import random
from fractions import Fraction as F

import pytest

from stablefixtures import generate, matching, solver
from stablefixtures.blossom import max_weight_b_matching
from stablefixtures.errors import (
    DualityGapError,
    InputError,
    NotMaximumWeightError,
    PreconditionError,
    UnknownPlayerError,
)
from stablefixtures.duals import (
    dual_from_duplicated,
    dual_from_stable,
    dual_objective,
    is_dual_feasible,
    stable_from_dual,
    verify_complementary_slackness,
)
from stablefixtures.instance import Instance
from stablefixtures.matching import DualSolution, _priced, lp_optimum, weight
from stablefixtures.oracles import max_half_b_matching_bruteforce
from stablefixtures.randomgen import random_instance
from stablefixtures.solver import solve
from stablefixtures.stability import is_stable, make_solution
from stablefixtures.transfers import are_equivalent, rematch


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
    """`_priced` takes d pointwise smallest, on `Fraction`s and on ints alike,
    and prices a capacity-0 player at its heaviest edge."""
    inst = generate("two_player", w=7).instance
    w = inst.edge_weights()
    assert _priced(inst, w, {"i": F(0), "j": F(0)})[1] == {("i", "j"): 7}
    assert _priced(inst, w, {"i": F(4), "j": F(4)})[1] == {("i", "j"): 0}
    assert _priced(inst, {("i", "j"): 7}, {"i": 3, "j": 1}) == ({"i": 3, "j": 1}, {("i", "j"): 3})
    zero = Instance(["i", "j", "k"], {"i": 0, "j": 1, "k": 1}, [("i", "j", 5), ("i", "k", 2)])
    y, d = _priced(zero, zero.edge_weights(), {p: F(0) for p in "ijk"})
    assert y == {"i": 5, "j": 0, "k": 0}
    assert d == {("i", "j"): 0, ("i", "k"): 0}


def test_tighten_d_example3(example3):
    inst, _ = example3
    y = {"v1": F(3, 2), "v2": F(3, 2), "v3": F(0), "v4": F(0)}
    y_priced, d = _priced(inst, inst.edge_weights(), y)
    assert y_priced == y
    assert d == {
        ("v1", "v2"): 0,
        ("v2", "v3"): 0,
        ("v3", "v4"): 1,
        ("v1", "v4"): 0,
    }


def test_dual_from_duplicated_single_edge():
    inst = generate("two_player", w=7).instance
    half, dual = dual_from_duplicated(inst)
    assert dual_objective(inst, dual) == half == 7


def test_dual_from_duplicated_diamond(diamond):
    half, dual = dual_from_duplicated(diamond)
    assert dual_objective(diamond, dual) == half == F(7, 2)


def test_dual_from_duplicated_example4():
    inst = generate("example4", alpha=2).instance
    half, dual = dual_from_duplicated(inst)
    assert dual_objective(inst, dual) == half == max_half_b_matching_bruteforce(inst, max_edges=6)
    assert half >= 4


def test_has_stable_solution(example2, diamond):
    inst2, _, _ = example2
    for inst, stable in ((diamond, False), (inst2, True), (generate("triangle").instance, False)):
        opt = lp_optimum(inst)
        assert (opt.weight == opt.half) == stable


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
    _, dual = dual_from_duplicated(inst)
    matching, _ = max_weight_b_matching(inst)
    built = stable_from_dual(inst, matching, dual)
    assert is_stable(inst, built).stable
    moved = rematch(inst, built, alt.matching)
    assert are_equivalent(inst, built, moved)


def test_stable_from_dual_gap_detected(diamond):
    matching, _ = max_weight_b_matching(diamond)
    _, dual = dual_from_duplicated(diamond)  # objective 7/2 > 3
    with pytest.raises(DualityGapError):
        stable_from_dual(diamond, matching, dual)


def test_stable_from_dual_scales_any_denominator():
    """A dual whose denominators share nothing with the weights' is scaled
    over their common denominator; the payoffs come out exact."""
    inst = generate("two_player", w=7).instance
    dual = DualSolution(y={"i": F(22, 7), "j": F(27, 7)}, d={("i", "j"): F(0)})
    sol = stable_from_dual(inst, [("j", "i")], dual)
    assert sol.payoff("i", "j") == F(22, 7) and sol.payoff("j", "i") == F(27, 7)
    loose = DualSolution(y={"i": F(1, 3), "j": F(1, 5)}, d={("i", "j"): F(97, 15)})
    sol = stable_from_dual(inst, [("i", "j")], loose)
    assert sol.payoff("i", "j") == F(1, 3) + F(97, 30)


def _corrupt(inst, matching, dual, how):
    y, d = dict(dual.y), dict(dual.d)
    if how == "negative_y":
        y[inst.players[0]] = F(-1, 3)
    elif how == "negative_d":
        d[inst.edges[0]] = F(-1)
    elif how == "lowered_y":
        p = next(p for p in inst.players if y[p] > 0)
        y[p] -= F(1, 2)
    elif how == "raised_y":
        y[inst.players[0]] += 1
    elif how == "dropped_edge":
        matching = matching - {min(matching)}
    elif how == "overfilled":
        matching = frozenset(inst.edges)
    return matching, DualSolution(y=y, d=d)


@pytest.mark.parametrize(
    "how, error",
    [
        ("negative_y", PreconditionError),
        ("negative_d", PreconditionError),
        ("lowered_y", PreconditionError),
        ("overfilled", PreconditionError),
        ("raised_y", DualityGapError),
        ("dropped_edge", NotMaximumWeightError),
    ],
)
def test_stable_from_dual_rejects_corrupted_input(example2, how, error):
    """The certificate on the scaled dual raises the same errors as the
    Fraction checks: infeasible dual or no b-matching, a feasible dual above
    the optimum, a matching below it."""
    inst, _, _ = example2
    outcome = solve(inst)
    matching, dual = _corrupt(inst, outcome.solution.matching, outcome.dual, how)
    infeasible = how in ("negative_y", "negative_d", "lowered_y")
    assert is_dual_feasible(inst, dual).feasible != infeasible
    with pytest.raises(error):
        stable_from_dual(inst, matching, dual)


BAD_SPLIT_ARGUMENTS = [
    ({"split_rule": "bogus"}, InputError),
    ({"sellers": ["nobody"]}, UnknownPlayerError),
    ({"split_rule": "seller_side", "sellers": ["u1", "nobody"]}, UnknownPlayerError),
]


@pytest.mark.parametrize("kwargs, error", BAD_SPLIT_ARGUMENTS)
def test_solve_refuses_bad_split_arguments_before_the_lp_pass(monkeypatch, example2, diamond, kwargs, error):
    """On either branch, stable or not: an unknown split rule or a seller
    who is not a player stops `solve` before its LP pass."""
    monkeypatch.setattr(solver, "_lp_optimum", lambda inst: pytest.fail("the LP pass ran"))
    for inst in (example2[0], diamond):
        with pytest.raises(error):
            solve(inst, **kwargs)


@pytest.mark.parametrize("kwargs, error", BAD_SPLIT_ARGUMENTS)
def test_stable_from_dual_refuses_bad_split_arguments(example2, kwargs, error):
    inst, _, _ = example2
    outcome = solve(inst)
    with pytest.raises(error):
        stable_from_dual(inst, outcome.solution.matching, outcome.dual, **kwargs)


def test_split_sellers_may_be_any_iterable(example2):
    inst, _, _ = example2
    outcome = solve(inst, split_rule="seller_side", sellers=["u1", "u2", "u3"])
    assert solve(inst, split_rule="seller_side", sellers=iter(["u1", "u2", "u3"])) == outcome
    sellers = (p for p in ("u1", "u2", "u3"))
    built = stable_from_dual(inst, outcome.solution.matching, outcome.dual, split_rule="seller_side", sellers=sellers)
    assert built == outcome.solution


def test_stable_from_dual_needs_every_dual_entry(example2):
    inst, _, _ = example2
    outcome = solve(inst)
    y = dict(outcome.dual.y)
    del y[inst.players[-1]]
    with pytest.raises(InputError, match="missing players"):
        stable_from_dual(inst, outcome.solution.matching, DualSolution(y=y, d=outcome.dual.d))
    d = dict(outcome.dual.d)
    del d[inst.edges[0]]
    with pytest.raises(InputError, match="missing edges"):
        stable_from_dual(inst, outcome.solution.matching, DualSolution(y=outcome.dual.y, d=d))


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
        opt = lp_optimum(inst)
        assert solve(inst).stable == (opt.weight == opt.half)


def test_a_stable_solve_runs_the_engines_only_in_its_lp_pass(monkeypatch, example1, example2):
    """`_lp_optimum` certifies the stable answer by weak duality, so nothing
    after it re-solves the game."""
    inside, calls = [False], []
    real_pass = solver._lp_optimum

    def lp_pass(inst):
        inside[0] = True
        try:
            return real_pass(inst)
        finally:
            inside[0] = False

    def spy(name):
        real = getattr(matching, name)

        def call(*args):
            calls.append((name, inside[0]))
            return real(*args)

        monkeypatch.setattr(matching, name, call)

    games = [example1[0], example2[0], *(random_instance(random.Random(k), n_range=(4, 8)) for k in range(30))]
    stable = [inst for inst in games if solve(inst).stable]
    assert len(stable) >= 10
    monkeypatch.setattr(solver, "_lp_optimum", lp_pass)
    spy("lp_optimum")
    spy("_engine")
    for inst in stable:
        solve(inst)
    assert ("_engine", True) in calls
    assert all(within for _, within in calls), calls


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
