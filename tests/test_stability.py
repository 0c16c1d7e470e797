import random
from fractions import Fraction as F

import pytest

from stablefixtures import generate, solution, stability, transfers
from stablefixtures.cycles import resolve_sides
from stablefixtures.errors import (
    IncompatibleSolutionError,
    InternalError,
    NotBipartiteError,
    NotMaximumWeightError,
    PreconditionError,
    UnstableSolutionError,
)
from stablefixtures.instance import Instance
from stablefixtures.randomgen import random_instance
from stablefixtures.reduction import reduce_instance
from stablefixtures.solver import solve
from stablefixtures.stability import (
    Solution,
    check_solution,
    is_stable,
    make_solution,
    total_payoff,
    utilities,
)
from stablefixtures.transfers import are_equivalent, meet_join, rematch, to_competitive_equilibrium


def test_utilities_example3(example3):
    inst, sol = example3
    u = utilities(inst, sol)
    assert u == {"v1": F(3, 2), "v2": F(3, 2), "v3": 0, "v4": 0}


def test_utilities_empty_matching(example3):
    inst, _ = example3
    sol = Solution(matching=frozenset(), payoffs={})
    assert all(v == 0 for v in utilities(inst, sol).values())


def test_utilities_example2(example2):
    # u2 is matched once with b(u2) = 2, hence unsaturated with utility 0.
    inst, sol, _ = example2
    u = utilities(inst, sol)
    assert u == {"u1": 3, "u2": 0, "u3": 0, "v1": 1, "v2": 3, "v3": 2}


def test_incompatible_rejected(example3):
    inst, _ = example3
    bad = make_solution(inst, [("v1", "v2")], {("v1", "v2"): 1, ("v2", "v1"): 1})
    with pytest.raises(IncompatibleSolutionError):
        utilities(inst, bad)
    assert check_solution(inst, bad)


def test_check_solution_lists_every_violation_in_a_fixed_order():
    """Stray matched pairs sorted, degrees in player order, payoff entries
    in their order, then edges in `inst.edges` order; a payoff on one end
    of an unmatched edge is a violation by itself."""
    tri = generate("triangle").instance
    sol = Solution(
        matching=frozenset({("c", "b"), ("a", "b"), ("b", "c"), ("c", "a")}),
        payoffs={("a", "b"): F(-1), ("b", "a"): F(1), ("a", "c"): F(1), ("z", "a"): F(0)},
    )
    violations = [
        "matching contains non-edge or non-canonical pair c-a",
        "matching contains non-edge or non-canonical pair c-b",
        "degree 2 exceeds b(b) = 1",
        "negative payoff p(a,b) = -1",
        "payoff entry on non-edge (z,a)",
        "p(a,b) + p(b,a) = 0 != w = 1",
        "nonzero payoff on unmatched edge a-c",
        "p(b,c) + p(c,b) = 0 != w = 1",
    ]
    assert check_solution(tri, sol) == violations
    with pytest.raises(IncompatibleSolutionError) as raised:
        is_stable(tri, sol)
    assert raised.value.violations == violations


def test_is_stable_reference_solutions(example1, example3):
    inst1, sol1, _ = example1
    assert is_stable(inst1, sol1).stable
    inst3, sol3 = example3
    assert is_stable(inst3, sol3).stable


def test_is_stable_triangle_blocking():
    tri = generate("triangle").instance
    sol = make_solution(tri, [("a", "b")], {("a", "b"): F(1, 2), ("b", "a"): F(1, 2)})
    verdict = is_stable(tri, sol)
    assert not verdict.stable
    assert set(verdict.blocking_pairs) == {("a", "c"), ("b", "c")}


def test_total_payoff_example3(example3):
    inst, sol = example3
    assert total_payoff(inst, sol.payoffs) == {
        "v1": F(3, 2),
        "v2": F(3, 2),
        "v3": F(1, 2),
        "v4": F(1, 2),
    }
    assert total_payoff(inst, {}) == {p: 0 for p in inst.players}


def test_total_payoff_example2(example2):
    inst, sol, _ = example2
    assert total_payoff(inst, sol.payoffs) == {
        "u1": 6,
        "v1": 3,
        "u2": 2,
        "v2": 3,
        "u3": 0,
        "v3": 2,
    }


def test_equivalence_example2(example2):
    inst, sol, alt = example2
    assert are_equivalent(inst, sol, alt)
    assert are_equivalent(inst, sol, sol)


def test_equivalence_example1(example1):
    inst, sol, alt = example1
    assert are_equivalent(inst, sol, alt)


def test_equivalence_requires_equal_utilities():
    inst = generate("two_player", w=7).instance
    a = make_solution(inst, [("i", "j")], {("i", "j"): 3, ("j", "i"): 4})
    b = make_solution(inst, [("i", "j")], {("i", "j"): 2, ("j", "i"): 5})
    assert not are_equivalent(inst, a, b)


def test_equivalent_implies_equal_totals_random():
    from stablefixtures import max_weight_b_matching

    rng = random.Random(123)
    done = 0
    while done < 20:
        inst = random_instance(rng, n_range=(3, 7), b_range=(1, 3))
        outcome = solve(inst)
        if not outcome.stable:
            continue
        done += 1
        matching, _ = max_weight_b_matching(inst)
        moved = rematch(inst, outcome.solution, matching)
        assert are_equivalent(inst, outcome.solution, moved)
        assert total_payoff(inst, outcome.solution.payoffs) == total_payoff(
            inst, moved.payoffs
        )


def test_unit_capacity_equivalence_iff_equal_totals():
    from stablefixtures import max_weight_b_matching

    # For b = 1, equal total payoffs characterise equivalence: rematched
    # solutions keep the totals and stay equivalent, while shifting payoff
    # along a matched edge changes both.
    rng = random.Random(44)
    checked = 0
    while checked < 15:
        inst = random_instance(rng, n_range=(3, 6), b_range=(1, 1), max_weight=5)
        out = solve(inst, split_rule="half")
        if not out.stable or not out.solution.matching:
            continue
        checked += 1
        sol = out.solution
        matching, _ = max_weight_b_matching(inst)
        moved = rematch(inst, sol, matching)
        assert total_payoff(inst, sol.payoffs) == total_payoff(inst, moved.payoffs)
        assert are_equivalent(inst, sol, moved)
        shifted = dict(sol.payoffs)
        (i, j) = sorted(sol.matching)[0]
        if is_stable(inst, sol).utilities[i] > 0:
            shifted[(i, j)] -= F(1, 7)
            shifted[(j, i)] += F(1, 7)
            other = Solution(matching=sol.matching, payoffs=shifted)
            if is_stable(inst, other).stable:
                assert total_payoff(inst, other.payoffs) != total_payoff(
                    inst, sol.payoffs
                )
                assert not are_equivalent(inst, sol, other)


def test_rematch_example2_reference_values(example2):
    inst, sol, alt = example2
    moved = rematch(inst, sol, alt.matching)
    assert moved.payoffs == alt.payoffs
    assert are_equivalent(inst, sol, moved)


def test_rematch_identity(example2):
    inst, sol, _ = example2
    moved = rematch(inst, sol, sol.matching)
    assert moved.payoffs == sol.payoffs


def test_rematch_example1_value(example1):
    inst, sol, _ = example1
    moved = rematch(inst, sol, [("u1", "v2"), ("u2", "v1")])
    assert moved.payoff("u1", "v2") == F(7, 10)


def test_rematch_rejects_unstable(example3):
    inst, _ = example3
    unstable = make_solution(
        inst,
        [("v1", "v2"), ("v3", "v4")],
        {("v1", "v2"): 3, ("v2", "v1"): 0, ("v3", "v4"): 1, ("v4", "v3"): 0},
    )
    with pytest.raises(UnstableSolutionError):
        rematch(inst, unstable, unstable.matching)


def test_rematch_rejects_bad_targets(example2):
    inst, sol, _ = example2
    with pytest.raises(NotMaximumWeightError, match="< optimum 16"):
        rematch(inst, sol, [("u1", "v1"), ("u2", "v1")])
    with pytest.raises(PreconditionError, match="not a b-matching"):
        rematch(inst, sol, [("u1", "v1"), ("u2", "v1"), ("u3", "v1")])


def test_rematch_failed_equivalence_is_internal_error(monkeypatch, example2):
    inst, sol, alt = example2
    monkeypatch.setattr(transfers, "_equivalent", lambda *args: False)
    with pytest.raises(InternalError, match="non-equivalent"):
        rematch(inst, sol, alt.matching)


def test_rematch_unstable_result_is_internal_error(monkeypatch, example2):
    # Utilities read one unit low make the direct formula underpay new edges.
    inst, sol, alt = example2
    real = transfers.require_stable

    def low(inst_, sol_):
        verdict = real(inst_, sol_)
        u = {p: q - 1 for p, q in verdict.utilities.items()}
        return stability.StabilityVerdict(verdict.stable, verdict.blocking_pairs, u)

    monkeypatch.setattr(transfers, "require_stable", low)
    with pytest.raises(InternalError, match="incompatible or unstable"):
        rematch(inst, sol, alt.matching)


def test_transfers_check_each_solution_once(monkeypatch, example2):
    """The transfers run the one compatibility-and-stability check
    (`solution._solution_faults`) once per solution they read or build:
    `rematch` its input and its output, `meet_join` both inputs, the second
    one rematched onto the first one's matching and the result, and
    `lift_stable` the expanded solution, its re-seated copy and the
    result. The equivalence test and the re-seating reuse the utilities."""
    inst, sol, alt = example2
    reduced = reduce_instance(inst)
    reduced_sol = transfers.reduce_solution(inst, sol, reduced)
    checked = []
    real = solution._solution_faults

    def spy(inst_, sol_, w):
        checked.append(sol_)
        return real(inst_, sol_, w)

    for module in (solution, stability):
        monkeypatch.setattr(module, "_solution_faults", spy)
    for name, call, count in (
        ("rematch", lambda: rematch(inst, sol, alt.matching), 2),
        ("meet_join", lambda: meet_join(inst, sol, sol._replace(), "join"), 3),
        ("meet_join onto another matching", lambda: meet_join(inst, sol, alt, "meet"), 4),
        ("lift_stable", lambda: transfers.lift_stable(inst, reduced, reduced_sol), 3),
    ):
        checked.clear()
        out = call()
        assert len(checked) == count, name
        assert len({id(s) for s in checked}) == count and checked[-1] is out, name


def test_resolve_sides_explicit_and_auto(example2):
    inst, _, _ = example2
    side = resolve_sides(inst, ["u1", "u2", "u3"])
    assert side == frozenset({"u1", "u2", "u3"})
    auto = resolve_sides(inst)
    assert auto == frozenset({"u1", "u2", "u3"})  # class of the first player
    with pytest.raises(NotBipartiteError):
        resolve_sides(inst, ["u1", "v1"])


def test_resolve_sides_ambiguous_components():
    inst = Instance(
        ["a", "b", "c", "d"],
        {p: 1 for p in "abcd"},
        [("a", "b", 1), ("c", "d", 1)],
    )
    with pytest.raises(PreconditionError):
        resolve_sides(inst)
    assert resolve_sides(inst, ["a", "c"]) == frozenset({"a", "c"})
    # An isolated player is no second component: the side is the colour-0
    # class of the one component with edges, without the isolated player.
    lone = Instance(["z", "a", "b", "c"], dict.fromkeys("zabc", 1), [("a", "b", 1), ("b", "c", 1)])
    assert resolve_sides(lone) == frozenset({"a", "c"})
    assert resolve_sides(Instance(["a", "b"], {"a": 1, "b": 1}, [])) == frozenset()


def test_meet_join_idempotent(example2):
    inst, sol, _ = example2
    joined = meet_join(inst, sol, sol, "join")
    assert joined.payoffs == sol.payoffs


def test_meet_join_single_edge():
    inst = Instance(["s", "t"], {"s": 1, "t": 1}, [("s", "t", 7)])
    a = make_solution(inst, [("s", "t")], {("s", "t"): 3, ("t", "s"): 4})
    b = make_solution(inst, [("s", "t")], {("s", "t"): 5, ("t", "s"): 2})
    joined = meet_join(inst, a, b, "join", sellers=["s"])
    assert joined.payoff("s", "t") == 3 and joined.payoff("t", "s") == 4
    met = meet_join(inst, a, b, "meet", sellers=["s"])
    assert met.payoff("s", "t") == 5 and met.payoff("t", "s") == 2


def test_meet_join_stable_random_bipartite():
    rng = random.Random(777)
    done = 0
    while done < 20:
        inst = random_instance(rng, n_range=(3, 7), b_range=(1, 2), bipartite=True)
        if inst.m == 0:
            continue
        out_a = solve(inst, split_rule="half")
        assert out_a.stable
        try:
            sellers = resolve_sides(inst)
        except PreconditionError:
            sellers = frozenset(
                p for p in inst.players if inst.two_coloring()[p] == 0
            )
        out_b = solve(inst, split_rule="seller_side", sellers=sellers)
        done += 1
        for op in ("meet", "join"):
            combo = meet_join(inst, out_a.solution, out_b.solution, op, sellers=sellers)
            assert is_stable(inst, combo).stable


def test_competitive_equilibrium_single_edge():
    inst = Instance(["s", "t"], {"s": 1, "t": 1}, [("s", "t", 7)])
    sol = make_solution(inst, [("s", "t")], {("s", "t"): 3, ("t", "s"): 4})
    ce = to_competitive_equilibrium(inst, sol, sellers=["s"])
    assert ce.payoff("s", "t") == 3


def test_competitive_equilibrium_example2(example2):
    inst, sol, _ = example2
    ce = to_competitive_equilibrium(inst, sol, sellers=["u1", "u2", "u3"])
    # u1 is saturated with utility 3: both its buyers now pay exactly 3.
    assert ce.payoff("u1", "v1") == 3
    assert ce.payoff("u1", "v2") == 3
    assert is_stable(inst, ce).stable


def test_competitive_equilibrium_unsaturated_seller(example2):
    inst, sol, _ = example2
    ce = to_competitive_equilibrium(inst, sol, sellers=["u1", "u2", "u3"])
    # u2 has spare capacity, so its price is 0 on its matched edge.
    assert ce.payoff("u2", "v1") == 0
