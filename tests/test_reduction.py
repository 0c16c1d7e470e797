import random

import pytest

from stablefixtures import generate
from stablefixtures.blossom import max_weight_b_matching
from stablefixtures.errors import InternalError, NotMaximumWeightError, PreconditionError
from stablefixtures.instance import Instance
from stablefixtures.matching import weight
from stablefixtures.randomgen import random_instance
from stablefixtures.reduction import reduce_instance
from stablefixtures.solver import solve
from stablefixtures.stability import is_stable, make_solution, total_payoff, utilities
from stablefixtures.transfers import (
    are_equivalent,
    lift_stable,
    reduce_matching,
    reduce_solution,
    srp_rematch,
)


def fig2_instance():
    return Instance(["i", "j"], {"i": 2, "j": 3}, [("i", "j", 5)])


def test_reduce_sizes_fig2():
    reduced = reduce_instance(fig2_instance())
    assert reduced.instance.n == 9  # 2 + 3 copies + 4 gadget vertices
    assert reduced.instance.m == 8  # 2 + 3 copy edges + 3 chain edges
    assert all(reduced.instance.b(p) == 1 for p in reduced.instance.players)
    assert all(w == 5 for w in reduced.instance.edge_weights().values())


def test_reduce_edgeless():
    inst = Instance(["a", "b"], {"a": 2, "b": 1}, [])
    reduced = reduce_instance(inst)
    assert reduced.instance.n == 3
    assert reduced.instance.m == 0


def test_reduce_triangle_sizes():
    tri = generate("triangle").instance
    reduced = reduce_instance(tri)
    assert reduced.instance.n == 3 + 12
    assert reduced.instance.m == 3 * (1 + 1 + 3)


def test_reduce_preserves_bipartiteness():
    rng = random.Random(3)
    for _ in range(10):
        inst = random_instance(rng, n_range=(3, 6), bipartite=True)
        assert reduce_instance(inst).instance.is_bipartite()
    tri = generate("triangle").instance
    assert not reduce_instance(tri).instance.is_bipartite()


def test_size_formulas_random():
    rng = random.Random(77)
    for _ in range(30):
        inst = random_instance(rng, n_range=(2, 7), b_range=(0, 3), allow_zero_capacity=True)
        reduced = reduce_instance(inst)
        total_b = sum(inst.b(p) for p in inst.players)
        assert reduced.instance.n == total_b + 4 * inst.m
        assert reduced.instance.m == sum(
            inst.b(u) + inst.b(v) + 3 for (u, v) in inst.edges
        )


def test_wrong_expansion_size_raises_internal_error(monkeypatch):
    real = Instance._derived

    def lossy(players, capacity, edges):
        return real(players, capacity, edges[:-1])

    monkeypatch.setattr(Instance, "_derived", lossy)
    with pytest.raises(InternalError, match="wrong size"):
        reduce_instance(fig2_instance())


def test_weight_identity_empty_matching(diamond):
    reduced = reduce_instance(diamond)
    expanded = reduce_matching(diamond, [], reduced)
    assert weight(reduced.instance, expanded) == 2 * diamond.total_weight()


def test_weight_identity_diamond(diamond):
    reduced = reduce_instance(diamond)
    best, value = max_weight_b_matching(diamond)
    assert value == 3
    expanded = reduce_matching(diamond, best, reduced)
    assert weight(reduced.instance, expanded) == 3 + 2 * 5


def test_weight_identity_example2(example2):
    inst, sol, _ = example2
    reduced = reduce_instance(inst)
    expanded = reduce_matching(inst, sol.matching, reduced)
    assert weight(reduced.instance, expanded) == 16 + 2 * 26


def test_weight_identity_random():
    rng = random.Random(41)
    for _ in range(30):
        inst = random_instance(rng, n_range=(2, 6), b_range=(1, 3))
        reduced = reduce_instance(inst)
        matching, value = max_weight_b_matching(inst)
        expanded = reduce_matching(inst, matching, reduced)
        assert weight(reduced.instance, expanded) == value + 2 * inst.total_weight()


def test_reduce_matching_rejects_overload(example3):
    inst, _ = example3
    with pytest.raises(PreconditionError):
        reduce_matching(inst, [("v1", "v2"), ("v4", "v1")])


def test_reduce_solution_two_player_path():
    inst = generate("two_player", w=7).instance
    sol = make_solution(inst, [("i", "j")], {("i", "j"): 3, ("j", "i"): 4})
    reduced = reduce_instance(inst)
    rsol = reduce_solution(inst, sol, reduced)
    pay = total_payoff(reduced.instance, rsol.payoffs)
    assert pay[reduced.copies[("i", 1)]] == 3
    assert pay[reduced.outer[("i", "j")]] == 4
    assert pay[reduced.inner[("i", "j")]] == 3
    assert pay[reduced.inner[("j", "i")]] == 4
    assert pay[reduced.outer[("j", "i")]] == 3
    assert pay[reduced.copies[("j", 1)]] == 4
    assert is_stable(reduced.instance, rsol).stable


def test_reduce_solution_example3_stable(example3):
    inst, sol = example3
    reduced = reduce_instance(inst)
    rsol = reduce_solution(inst, sol, reduced)
    assert is_stable(reduced.instance, rsol).stable


def test_reduce_solution_zero_weight_edge():
    inst = Instance(["a", "b"], {"a": 1, "b": 1}, [("a", "b", 0)])
    sol = make_solution(inst, [("a", "b")], {("a", "b"): 0, ("b", "a"): 0})
    reduced = reduce_instance(inst)
    rsol = reduce_solution(inst, sol, reduced)
    assert all(v == 0 for v in total_payoff(reduced.instance, rsol.payoffs).values())


def test_srp_rematch_example1(example1):
    inst, sol, alt = example1
    reduced_target = [("u1", "v2"), ("u2", "v1")]
    moved = srp_rematch(inst, sol, reduced_target)
    assert moved.payoffs == alt.payoffs
    assert are_equivalent(inst, sol, moved)


def test_srp_rematch_identity(example1):
    inst, sol, _ = example1
    moved = srp_rematch(inst, sol, sol.matching)
    assert moved.payoffs == sol.payoffs


def test_srp_rematch_rejects_suboptimal():
    inst = Instance(
        ["a", "b", "c"], {"a": 1, "b": 1, "c": 1}, [("a", "b", 5), ("b", "c", 1)]
    )
    sol = make_solution(inst, [("a", "b")], {("a", "b"): 3, ("b", "a"): 2})
    with pytest.raises(NotMaximumWeightError):
        srp_rematch(inst, sol, [("b", "c")])


def test_srp_rematch_random_property():
    rng = random.Random(99)
    done = 0
    while done < 25:
        inst = random_instance(rng, n_range=(3, 7), b_range=(1, 1), max_weight=6)
        outcome = solve(inst)
        if not outcome.stable:
            continue
        done += 1
        matching, _ = max_weight_b_matching(inst)
        moved = srp_rematch(inst, outcome.solution, matching)
        assert is_stable(inst, moved).stable
        assert are_equivalent(inst, outcome.solution, moved)


def test_lift_two_player_alternative_payoffs():
    inst = generate("two_player", w=7).instance
    reduced = reduce_instance(inst)
    g = reduced.instance
    chain = [
        reduced.copies[("i", 1)],
        reduced.outer[("i", "j")],
        reduced.inner[("i", "j")],
        reduced.inner[("j", "i")],
        reduced.outer[("j", "i")],
        reduced.copies[("j", 1)],
    ]
    values = [1, 6, 3, 4, 4, 3]
    vertex_pay = dict(zip(chain, values))
    matching = [(chain[0], chain[1]), (chain[2], chain[3]), (chain[4], chain[5])]
    payoffs = {}
    for (a, b) in matching:
        payoffs[(a, b)] = vertex_pay[a]
        payoffs[(b, a)] = vertex_pay[b]
    rsol = make_solution(g, matching, payoffs)
    assert is_stable(g, rsol).stable
    lifted = lift_stable(inst, reduced, rsol)
    assert lifted.payoff("i", "j") == 3
    assert lifted.payoff("j", "i") == 4


def test_lift_round_trip_example3(example3):
    inst, sol = example3
    reduced = reduce_instance(inst)
    rsol = reduce_solution(inst, sol, reduced)
    lifted = lift_stable(inst, reduced, rsol)
    assert is_stable(inst, lifted).stable
    assert utilities(inst, lifted) == utilities(inst, sol)


def test_lift_zero_weight():
    inst = Instance(["a", "b"], {"a": 1, "b": 1}, [("a", "b", 0)])
    reduced = reduce_instance(inst)
    sol = make_solution(inst, [("a", "b")], {("a", "b"): 0, ("b", "a"): 0})
    rsol = reduce_solution(inst, sol, reduced)
    lifted = lift_stable(inst, reduced, rsol)
    assert all(v == 0 for v in lifted.payoffs.values())
