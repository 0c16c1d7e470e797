from fractions import Fraction as F

import pytest

from stablefixtures import generate
from stablefixtures.instance import Instance
from stablefixtures.stability import make_solution


@pytest.fixture
def example1():
    inst = generate("example1").instance
    sol = make_solution(
        inst,
        [("u1", "v1"), ("u2", "v2")],
        {
            ("u1", "v1"): F(7, 10),
            ("v1", "u1"): F(3, 10),
            ("u2", "v2"): F(7, 10),
            ("v2", "u2"): F(3, 10),
        },
    )
    alt = make_solution(
        inst,
        [("u1", "v2"), ("u2", "v1")],
        {
            ("u1", "v2"): F(7, 10),
            ("v2", "u1"): F(3, 10),
            ("u2", "v1"): F(7, 10),
            ("v1", "u2"): F(3, 10),
        },
    )
    return inst, sol, alt


@pytest.fixture
def example2():
    inst = generate("example2").instance
    sol = make_solution(
        inst,
        [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u3", "v3")],
        {
            ("u1", "v1"): 3,
            ("v1", "u1"): 1,
            ("u1", "v2"): 3,
            ("v2", "u1"): 3,
            ("u2", "v1"): 2,
            ("v1", "u2"): 2,
            ("u3", "v3"): 0,
            ("v3", "u3"): 2,
        },
    )
    alt = make_solution(
        inst,
        [("u1", "v1"), ("u1", "v3"), ("u2", "v1"), ("u3", "v2")],
        {
            ("u1", "v1"): 3,
            ("v1", "u1"): 1,
            ("u1", "v3"): 3,
            ("v3", "u1"): 2,
            ("u2", "v1"): 2,
            ("v1", "u2"): 2,
            ("u3", "v2"): 0,
            ("v2", "u3"): 3,
        },
    )
    return inst, sol, alt


@pytest.fixture
def example3():
    inst = generate("example3").instance
    sol = make_solution(
        inst,
        [("v1", "v2"), ("v3", "v4")],
        {
            ("v1", "v2"): F(3, 2),
            ("v2", "v1"): F(3, 2),
            ("v3", "v4"): F(1, 2),
            ("v4", "v3"): F(1, 2),
        },
    )
    return inst, sol


@pytest.fixture
def diamond():
    return generate("diamond").instance


@pytest.fixture
def heavy_edge_triangle():
    """Stable and non-bipartite; its complementary-slack residual is the
    single tight edge a-b, so the residual is bipartite."""
    return Instance(
        ["a", "b", "c"], {p: 1 for p in "abc"}, [("a", "b", 4), ("b", "c", 1), ("a", "c", 1)]
    )
