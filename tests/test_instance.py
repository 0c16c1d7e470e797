import json
import pickle
import random
from fractions import Fraction as F

import pytest

from stablefixtures import generate, induced, validate
from stablefixtures.errors import (
    InputError,
    InvalidInstanceError,
    NotBipartiteError,
    PreconditionError,
    UnknownEdgeError,
)
from stablefixtures.instance import Instance, instance_from_json, instance_to_json
from stablefixtures.oracles import max_weight_b_matching_bruteforce
from stablefixtures.randomgen import random_instance
from stablefixtures.rationals import MAX_LITERAL_DIGITS, format_rational, parse_rational


def test_validate_triangle_clean():
    players = ["a", "b", "c"]
    edges = [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]
    assert validate(players, {p: 1 for p in players}, edges).ok


def test_validate_loop():
    report = validate(["a", "b"], {"a": 1, "b": 1}, [("a", "a", 1)])
    assert any("loop" in v for v in report.violations)


def test_validate_negative_weight():
    report = validate(["a", "b"], {"a": 1, "b": 1}, [("a", "b", -1)])
    assert any("negative weight" in v for v in report.violations)


def test_validate_multi_edge_and_unknown_endpoint():
    edges = [("a", "b", 1), ("b", "a", 2), ("a", "c", 1)]
    report = validate(["a", "b"], {"a": 1, "b": 1}, edges)
    assert any("multi-edge" in v for v in report.violations)
    assert any("undeclared" in v for v in report.violations)


def test_a_loop_is_no_edge():
    tri = generate("triangle").instance
    with pytest.raises(UnknownEdgeError, match="loop 'a'-'a' is not an edge"):
        tri.edge_key("a", "a")
    assert not tri.has_edge("a", "a")
    assert tri.has_edge("b", "a")


def test_validate_capacity_issues():
    report = validate(["a", "b"], {"a": -1}, [])
    assert any("negative capacity" in v for v in report.violations)
    assert any("missing capacity" in v for v in report.violations)


def test_construction_rejects_every_violation_in_order():
    with pytest.raises(InvalidInstanceError) as info:
        Instance(
            ["a", "b", "", "a", "c"],
            {"a": -1, "b": True, "z": 1, "": 1},
            [("a", "b", 1), ("b", "a", "9"), ("c", "c", 1), ("a", "x", 1), ("b", "c", "-1/2")],
        )
    assert info.value.violations == [
        "player id '' is not a non-empty string",
        "duplicate player 'a'",
        "negative capacity b(a) = -1",
        "capacity of 'b' is not an integer",
        "capacity given for unknown player 'z'",
        "missing capacity for player 'c'",
        "multi-edge 'b'-'a'",
        "loop at 'c'",
        "edge 'a'-'x' has an undeclared endpoint",
        "negative weight w(b,c) = -1/2",
    ]
    assert str(info.value).startswith("invalid instance: player id '' is")


def test_construction_parses_weights_before_model_checks():
    with pytest.raises(InputError):
        Instance(["a"], {"a": -1}, [("a", "a", 0.5)])


def test_capacity_is_read_only():
    inst = generate("triangle").instance
    with pytest.raises(TypeError):
        inst.capacity["a"] = 5
    assert inst.b("a") == 1


def test_pickle_round_trip(example2):
    inst, _, _ = example2
    back = pickle.loads(pickle.dumps(inst))
    assert back.players == inst.players
    assert back.capacity == inst.capacity
    assert back.edges == inst.edges and back.edge_weights() == inst.edge_weights()
    assert [back.neighbors(p) for p in back.players] == [inst.neighbors(p) for p in inst.players]


def test_induced_example2(example2):
    inst, _, _ = example2
    sub = induced(inst, ["u1", "v1", "v2"])
    assert sub.players == ("u1", "v1", "v2")
    assert sub.edges == (("u1", "v1"), ("u1", "v2"))
    assert sub.weight("u1", "v1") == 4
    assert sub.weight("u1", "v2") == 6


def test_induced_empty_and_identity(example2):
    inst, _, _ = example2
    assert induced(inst, []).n == 0
    full = induced(inst, inst.players)
    assert full.players == inst.players
    assert full.edge_weights() == inst.edge_weights()


def test_induced_unknown_player(example2):
    inst, _, _ = example2
    with pytest.raises(PreconditionError):
        induced(inst, ["nobody"])


def test_induced_nesting():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_instance(rng, n_range=(4, 8))
        players = list(inst.players)
        rng.shuffle(players)
        big = players[: rng.randint(2, len(players))]
        small = big[: rng.randint(1, len(big))]
        direct = induced(inst, small)
        nested = induced(induced(inst, big), small)
        assert direct.players == nested.players
        assert direct.edge_weights() == nested.edge_weights()
        assert direct.capacity == nested.capacity


def test_generate_example4_shape():
    gen = generate("example4", alpha=2)
    inst = gen.instance
    assert inst.n == 6  # 3 cycle vertices + 3 pendants
    assert inst.m == 6  # 3 cycle edges + 3 pendant edges
    assert all(inst.b(p) == 2 for p in inst.players)
    assert gen.allocation["s1"] == F(4, 3)
    assert gen.allocation["t1_1"] == 0
    assert sum(gen.allocation.values()) == 4  # 3*alpha - 2


@pytest.mark.parametrize("alpha", [2, 3])
def test_generate_example4_value_formula(alpha):
    inst = generate("example4", alpha=alpha).instance
    _, value = max_weight_b_matching_bruteforce(inst)
    assert value == 3 * alpha - 2


def test_generate_example4_rejects_small_alpha():
    with pytest.raises(PreconditionError):
        generate("example4", alpha=1)


def test_generate_diamond_shape(diamond):
    assert diamond.n == 4
    assert diamond.m == 5
    assert [diamond.b(p) for p in diamond.players] == [2, 2, 2, 1]
    assert all(diamond.weight(u, v) == 1 for (u, v) in diamond.edges)


def test_generate_cubic_gadget_single_edge():
    base = Instance(["p", "q"], {"p": 1, "q": 1}, [("p", "q", 1)])
    gen = generate("cubic_gadget", graph=base)
    inst = gen.instance
    assert inst.n == 12
    assert inst.m == 1 + 18
    assert gen.allocation["p"] == 1  # 3/2 - 1/n with n = 2
    assert gen.allocation["a_p"] == F(3, 2) + F(1, 10)
    assert inst.is_bipartite()


def test_generate_cubic_gadget_requires_bipartite():
    tri = generate("triangle").instance
    with pytest.raises(NotBipartiteError):
        generate("cubic_gadget", graph=tri)


def test_generate_cubic_gadget_preserves_bipartite():
    rng = random.Random(5)
    for _ in range(10):
        base = random_instance(rng, n_range=(2, 5), bipartite=True)
        gen = generate("cubic_gadget", graph=base)
        assert gen.instance.is_bipartite()


def test_generate_unknown_family():
    with pytest.raises(InputError):
        generate("nonsense")


def test_json_round_trip(example2):
    inst, _, _ = example2
    data = instance_to_json(inst)
    back = instance_from_json(json.loads(json.dumps(data)))
    assert back.players == inst.players
    assert back.capacity == inst.capacity
    assert back.edge_weights() == inst.edge_weights()


def test_json_rejects_floats():
    data = {"players": ["a", "b"], "capacity": {"a": 1, "b": 1},
            "edges": [{"u": "a", "v": "b", "w": 0.1}]}
    with pytest.raises(InputError):
        instance_from_json(data)


def test_parse_rational_digit_bound():
    assert parse_rational("1e999") == 10**999
    assert parse_rational(10**MAX_LITERAL_DIGITS - 1) == 10**MAX_LITERAL_DIGITS - 1
    for literal in ("1e1000", "1_0e999", "1e-1000", 10**MAX_LITERAL_DIGITS, "1e" + "9" * 40):
        with pytest.raises(PreconditionError):
            parse_rational(literal)
    with pytest.raises(InputError):
        parse_rational("1e")


def test_format_rational_past_digit_limit():
    with pytest.raises(PreconditionError):
        format_rational(F(1, 10**5000))


def test_json_rational_strings():
    data = {"players": ["a", "b"], "capacity": {"a": 1, "b": 1},
            "edges": [{"u": "a", "v": "b", "w": "7/2"}]}
    inst = instance_from_json(data)
    assert inst.weight("a", "b") == F(7, 2)
