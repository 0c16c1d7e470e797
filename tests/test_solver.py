import random
from fractions import Fraction as F

import pytest

from stablefixtures import generate
from stablefixtures.errors import DualityGapError, InputError, PreconditionError
from stablefixtures.instance import Instance
from stablefixtures.matching import (
    max_half_b_matching_bruteforce,
    max_weight_b_matching,
    weight,
)
from stablefixtures.randomgen import random_instance
from stablefixtures.solver import (
    DualSolution,
    dual_from_duplicated,
    dual_from_stable,
    dual_objective,
    has_stable_solution,
    is_dual_feasible,
    primal_objective,
    solve,
    stable_from_dual,
    tighten_d,
    verify_complementary_slackness,
)
from stablefixtures.stability import (
    are_equivalent,
    is_stable,
    make_solution,
    rematch,
)


def test_primal_objective_example3(example3):
    inst, sol = example3
    x = {e: F(1 if e in sol.matching else 0) for e in inst.edges}
    assert primal_objective(inst, x) == 4
    assert primal_objective(inst, {e: F(0) for e in inst.edges}) == 0
    with pytest.raises(InputError):
        primal_objective(inst, {})


def test_dual_objective_trivial_feasible(example3):
    inst, _ = example3
    dual = DualSolution(
        y={p: F(0) for p in inst.players}, d=dict(inst.edge_weights())
    )
    assert is_dual_feasible(inst, dual).feasible
    assert dual_objective(inst, dual) == inst.total_weight()


def test_dual_infeasible_lists_edges(example3):
    inst, _ = example3
    dual = DualSolution(y={p: F(0) for p in inst.players}, d={e: F(0) for e in inst.edges})
    feas = is_dual_feasible(inst, dual)
    assert not feas.feasible
    assert ("v1", "v2") in feas.violated_edges


def test_tighten_d_cases():
    inst = generate("two_player", w=7).instance
    assert tighten_d(inst, {"i": F(0), "j": F(0)}) == {("i", "j"): 7}
    assert tighten_d(inst, {"i": F(4), "j": F(4)}) == {("i", "j"): 0}


def test_tighten_d_example3(example3):
    inst, _ = example3
    y = {"v1": F(3, 2), "v2": F(3, 2), "v3": F(0), "v4": F(0)}
    d = tighten_d(inst, y)
    assert d == {
        ("v1", "v2"): 0,
        ("v2", "v3"): 0,
        ("v3", "v4"): 1,
        ("v1", "v4"): 0,
    }


def test_dual_from_duplicated_single_edge():
    inst = generate("two_player", w=7).instance
    dual = dual_from_duplicated(inst)
    assert dual_objective(inst, dual) == 7


def test_dual_from_duplicated_diamond(diamond):
    dual = dual_from_duplicated(diamond)
    assert dual_objective(diamond, dual) == F(7, 2)


def test_dual_from_duplicated_example4():
    inst = generate("example4", alpha=2).instance
    dual = dual_objective(inst, dual_from_duplicated(inst))
    assert dual == max_half_b_matching_bruteforce(inst, max_edges=6)
    assert dual >= 4


def test_has_stable_solution(example2, diamond):
    assert not has_stable_solution(diamond)
    inst2, _, _ = example2
    assert has_stable_solution(inst2)
    assert not has_stable_solution(generate("triangle").instance)


def test_stable_from_dual_single_edge():
    inst = generate("two_player", w=7).instance
    dual = DualSolution(y={"i": F(3), "j": F(4)}, d={("i", "j"): F(0)})
    sol = stable_from_dual(inst, [("i", "j")], dual)
    assert sol.payoff("i", "j") == 3 and sol.payoff("j", "i") == 4


def test_stable_from_dual_split_rules():
    inst = Instance(["s", "t"], {"s": 1, "t": 1}, [("s", "t", 4)])
    dual = DualSolution(y={"s": F(1), "t": F(1)}, d={("s", "t"): F(2)})
    half = stable_from_dual(inst, [("s", "t")], dual, split_rule="half")
    assert half.payoff("s", "t") == 2 and half.payoff("t", "s") == 2
    seller = stable_from_dual(
        inst, [("s", "t")], dual, split_rule="seller_side", sellers=["s"]
    )
    assert seller.payoff("s", "t") == 1 and seller.payoff("t", "s") == 3


def test_stable_from_dual_example2(example2):
    inst, sol, alt = example2
    dual = dual_from_duplicated(inst)
    matching, _ = max_weight_b_matching(inst)
    built = stable_from_dual(inst, matching, dual)
    assert is_stable(inst, built).stable
    moved = rematch(inst, built, alt.matching)
    assert are_equivalent(inst, built, moved)


def test_stable_from_dual_gap_detected(diamond):
    matching, _ = max_weight_b_matching(diamond)
    dual = dual_from_duplicated(diamond)  # objective 7/2 > 3
    with pytest.raises(DualityGapError):
        stable_from_dual(diamond, matching, dual)


def test_dual_from_stable_example3(example3):
    inst, sol = example3
    dual = dual_from_stable(inst, sol)
    assert dual.y == {"v1": F(3, 2), "v2": F(3, 2), "v3": 0, "v4": 0}
    assert dual_objective(inst, dual) == 4 == weight(inst, sol.matching)


def test_dual_from_stable_single_edge():
    inst = generate("two_player", w=7).instance
    sol = make_solution(inst, [("i", "j")], {("i", "j"): 3, ("j", "i"): 4})
    dual = dual_from_stable(inst, sol)
    assert dual.y == {"i": 3, "j": 4}
    assert dual.d == {("i", "j"): 0}


def test_dual_stable_round_trip_random():
    rng = random.Random(2024)
    done = 0
    while done < 25:
        inst = random_instance(rng, n_range=(3, 7), b_range=(1, 3))
        outcome = solve(inst)
        if not outcome.stable:
            continue
        done += 1
        dual = dual_from_stable(inst, outcome.solution)
        rebuilt = stable_from_dual(inst, outcome.solution.matching, dual)
        assert is_stable(inst, rebuilt).stable


def test_solve_diamond(diamond):
    outcome = solve(diamond)
    assert not outcome.stable
    assert outcome.witness.weight(diamond) == F(7, 2)
    assert outcome.matching_weight == 3


def test_solve_example1(example1):
    inst, _, _ = example1
    outcome = solve(inst)
    assert outcome.stable
    assert outcome.matching_weight == 2
    assert is_stable(inst, outcome.solution).stable


def test_solve_bipartite_always_stable():
    rng = random.Random(6)
    for _ in range(40):
        inst = random_instance(rng, n_range=(2, 7), b_range=(1, 3), bipartite=True)
        assert solve(inst).stable


def test_solve_matches_existence_test():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng, n_range=(3, 7), b_range=(1, 3))
        assert solve(inst).stable == has_stable_solution(inst)


def test_complementary_slackness_clean_single_edge():
    inst = generate("two_player", w=7).instance
    dual = DualSolution(y={"i": F(3), "j": F(4)}, d={("i", "j"): F(0)})
    report = verify_complementary_slackness(inst, {("i", "j"): F(1)}, dual)
    assert report.clean


def test_complementary_slackness_unsaturated_price():
    inst = generate("two_player", w=0).instance
    dual = DualSolution(y={"i": F(3), "j": F(4)}, d={("i", "j"): F(0)})
    report = verify_complementary_slackness(inst, {("i", "j"): F(0)}, dual)
    assert not report.clean
    assert set(report.unsaturated_with_price) == {"i", "j"}


def test_complementary_slackness_pipeline(example2):
    inst, _, _ = example2
    outcome = solve(inst)
    x = {e: F(1 if e in outcome.solution.matching else 0) for e in inst.edges}
    assert verify_complementary_slackness(inst, x, outcome.dual).clean


def test_complementary_slackness_rejects_bad_primal(example2):
    inst, _, _ = example2
    outcome = solve(inst)
    with pytest.raises(PreconditionError):
        verify_complementary_slackness(
            inst, {e: F(1, 2) for e in inst.edges}, outcome.dual
        )


def test_seller_side_needs_bipartite():
    from stablefixtures.errors import NotBipartiteError

    inst = Instance(
        ["a", "b", "c"],
        {"a": 1, "b": 1, "c": 1},
        [("a", "b", 4), ("b", "c", 1), ("a", "c", 1)],
    )
    assert solve(inst).stable
    with pytest.raises(NotBipartiteError):
        solve(inst, split_rule="seller_side")


def test_solve_capacity_zero_edges_are_stable():
    # Edges pinned to capacity-0 players can never be formed, so they do not
    # block: both optima are 0 and the empty solution is stable.
    inst = Instance(
        ["a", "z", "b"], {"a": 2, "z": 0, "b": 1}, [("a", "z", 6), ("z", "b", 5)]
    )
    outcome = solve(inst)
    assert outcome.stable
    assert outcome.matching_weight == 0
    assert outcome.solution.matching == frozenset()
    dual = dual_from_stable(inst, outcome.solution)
    assert dual_objective(inst, dual) == 0


def test_solve_all_zero_weights():
    inst = Instance(["a", "b", "c"], {p: 1 for p in "abc"},
                    [("a", "b", 0), ("b", "c", 0), ("a", "c", 0)])
    outcome = solve(inst)
    assert outcome.stable
    assert outcome.matching_weight == 0
