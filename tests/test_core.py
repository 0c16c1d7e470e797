import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablefixtures import blossom, core, cycles, generate, transfers
from stablefixtures.blossom import max_weight_b_matching
from stablefixtures.core import CoreViolationError, core_membership_b2, game_value, is_allocation
from stablefixtures.errors import (
    BoundExceededError,
    CapacityTooLargeError,
    ComponentSumError,
    InputError,
    InternalError,
    NotMaximumWeightError,
)
from stablefixtures.instance import Instance, induced
from stablefixtures.matching import lp_optimum, weight
from stablefixtures.oracles import core_membership_bruteforce, max_weight_b_matching_bruteforce
from stablefixtures.randomgen import (
    random_allocation,
    random_instance,
    random_nonallocation,
)
from stablefixtures.solver import solve
from stablefixtures.stability import total_payoff
from stablefixtures.transfers import allocation_to_payoff


def test_game_value_example4():
    for alpha in (2, 3):
        inst = generate("example4", alpha=alpha).instance
        assert game_value(inst, inst.players) == 3 * alpha - 2


def test_game_value_singleton(diamond):
    assert game_value(diamond, ["s1"]) == 0


def test_game_value_example4_pendant_coalition():
    inst = generate("example4", alpha=2).instance
    coalition = ["s1", "s2", "t1_1", "t2_1"]
    assert game_value(inst, coalition) == 3  # 2*alpha - 1


def test_game_value_matches_only_the_residual(monkeypatch):
    """On a stable general game v(N) is read off the LP dual: blossom runs at
    most once, on the complementary-slack residual, and the answer is the
    tie-broken engine optimum."""
    inst = Instance(
        ["v1", "v2", "v3", "v4", "v5"],
        {"v1": 2, "v2": 1, "v3": 1, "v4": 2, "v5": 2},
        [
            ("v1", "v3", 7), ("v1", "v4", 3), ("v2", "v3", 2),
            ("v2", "v4", 5), ("v3", "v4", 9), ("v3", "v5", 1),
        ],
    )  # fmt: skip
    assert inst.two_coloring() is None and solve(inst).stable
    real = blossom._general_matching
    sizes = []

    def spy(net, *args):
        sizes.append(net.m)
        return real(net, *args)

    monkeypatch.setattr(blossom, "_general_matching", spy)
    value, witness = core.game_value_with_witness(inst, inst.players)
    assert len(sizes) <= 1 and all(m < inst.m for m in sizes)
    monkeypatch.undo()
    assert core.game_value(inst, inst.players) == value
    assert (witness, value) == max_weight_b_matching(inst)


def test_is_allocation(example3):
    inst, sol = example3
    assert is_allocation(inst, total_payoff(inst, sol.payoffs))
    assert not is_allocation(inst, {p: F(0) for p in inst.players})


def test_core_membership_b2_refuses_an_allocation_missing_a_player():
    tri = generate("triangle").instance
    with pytest.raises(InputError, match=r"allocation missing players \['b', 'c'\]"):
        core_membership_b2(tri, {"a": F(1)})


def test_is_allocation_cubic_gadget():
    base = Instance(["p", "q"], {"p": 1, "q": 1}, [("p", "q", 1)])
    gen = generate("cubic_gadget", graph=base)
    assert sum(gen.allocation.values()) == 18  # 9n with n = 2
    assert is_allocation(gen.instance, gen.allocation)


def test_allocation_to_payoff_single_edge():
    inst = generate("two_player", w=7).instance
    p = allocation_to_payoff(inst, {"i": F(3), "j": F(4)}, [("i", "j")])
    assert p == {("i", "j"): 3, ("j", "i"): 4}


def test_allocation_to_payoff_path_split_is_unique():
    # On a forest the payoffs are fixed by x; here all are nonnegative.
    inst = Instance(
        ["a", "b", "c"], {"a": 1, "b": 2, "c": 1}, [("a", "b", 1), ("b", "c", 1)]
    )
    x = {"a": F(1, 2), "b": F(1), "c": F(1, 2)}
    p = allocation_to_payoff(inst, x, inst.edges)
    half = F(1, 2)
    assert p == {("a", "b"): half, ("b", "a"): half, ("b", "c"): half, ("c", "b"): half}


def test_allocation_to_payoff_triangle():
    inst = Instance(
        ["s1", "s2", "s3"],
        {p: 2 for p in ("s1", "s2", "s3")},
        [("s1", "s2", 1), ("s1", "s3", 1), ("s2", "s3", 1)],
    )
    x = {"s1": F(0), "s2": F(3, 2), "s3": F(3, 2)}
    p = allocation_to_payoff(inst, x, inst.edges)
    assert all(v >= 0 for v in p.values())
    assert total_payoff(inst, p) == x


def test_allocation_above_the_matched_weight_is_component_sum_error():
    inst = generate("two_player", w=7).instance
    with pytest.raises(ComponentSumError, match="total 8 exceeds the matched weight 7"):
        allocation_to_payoff(inst, {"i": F(4), "j": F(4)}, [("i", "j")])


def test_allocation_to_payoff_certifies_the_matching_by_weak_duality(monkeypatch, heavy_edge_triangle):
    """x >= 0 with x/b a feasible dual and w(M) >= x(N) proves M maximum, so
    no `lp_optimum` runs; a lighter M still re-solves the game and raises."""
    tri, x = heavy_edge_triangle, {"a": F(2), "b": F(2), "c": F(0)}
    runs = []
    monkeypatch.setattr(transfers, "lp_optimum", lambda inst: runs.append(inst) or lp_optimum(inst))
    assert allocation_to_payoff(tri, x, [("a", "b")]) == {("a", "b"): 2, ("b", "a"): 2}
    assert runs == []
    with pytest.raises(NotMaximumWeightError):
        allocation_to_payoff(tri, x, [("b", "c")])
    assert len(runs) == 1


@pytest.mark.parametrize(
    "inst, x, matching, coalition",
    [
        (
            Instance(["a", "b", "c", "d"], dict.fromkeys("abcd", 1), [("a", "b", 4), ("c", "d", 6)]),
            {"a": 3, "b": 3, "c": 2, "d": 2},
            [("a", "b"), ("c", "d")],
            ("c", "d"),
        ),
        (
            Instance(["a", "b", "c"], dict.fromkeys("abc", 1), [("a", "b", 2), ("b", "c", 2)]),
            {"a": 1, "b": 0, "c": 1},
            [("a", "b")],
            ("a", "b"),
        ),
        (
            Instance(["a", "b", "c"], {"a": 1, "b": 2, "c": 1}, [("a", "b", 1), ("b", "c", 1)]),
            {"a": 2, "b": 0, "c": 0},
            [("a", "b"), ("b", "c")],
            ("b", "c"),
        ),
    ],
    ids=["short_component", "uncovered_player", "path"],
)  # fmt: skip
def test_allocation_to_payoff_names_a_short_coalition(inst, x, matching, coalition):
    x = {p: F(v) for p, v in x.items()}
    with pytest.raises(CoreViolationError) as err:
        allocation_to_payoff(inst, x, matching)
    verdict = err.value.verdict
    assert verdict.coalition == coalition
    assert verdict.coalition_total < verdict.coalition_value


def _shortfall(inst, x, m, members):
    """w(M[S]) - x(S)."""
    inside = sum(inst.weight(u, v) for (u, v) in m if u in members and v in members)
    return inside - sum(x[p] for p in members)


def _short_coalition_exists(inst, x, m):
    """Whether some player set S has x(S) < w(M[S]), by brute force."""
    return any(
        _shortfall(inst, x, m, members) > 0
        for r in range(1, inst.n + 1)
        for members in itertools.combinations(inst.players, r)
    )


def test_allocation_to_payoff_decomposes_iff_no_coalition_is_short():
    """Gale's supply-demand theorem, checked by brute force over player
    sets: an efficient x decomposes on a maximum-weight M iff no S has
    x(S) < w(M[S]); otherwise the coalition raised is short too."""
    rng = random.Random(1957)
    kinds = {"decomposed": 0, "violation": 0}
    for k in range(1000):
        inst = random_instance(rng, n_range=(3, 8), b_range=(1, 3))
        m = lp_optimum(inst).matching
        outcome = solve(inst) if k % 2 else None
        if outcome is not None and outcome.stable:
            # A core allocation, sometimes pushed across a coalition's bound.
            x = total_payoff(inst, outcome.solution.payoffs)
            giver, taker = rng.sample(inst.players, 2)
            shift = F(rng.randint(0, 2), rng.choice((1, 2, 4)))
            x[giver] -= shift
            x[taker] += shift
        else:
            x = random_allocation(rng, inst, weight(inst, m))
        if _short_coalition_exists(inst, x, m):
            with pytest.raises(CoreViolationError) as err:
                allocation_to_payoff(inst, x, m)
            verdict = err.value.verdict
            assert verdict.deficit > 0
            assert _shortfall(inst, x, m, verdict.coalition) > 0
            kinds["violation"] += 1
            continue
        p = allocation_to_payoff(inst, x, m)
        assert all(q >= 0 for q in p.values())
        assert all(inst.edge_key(i, j) in m for (i, j) in p)
        assert all(p[(u, v)] + p[(v, u)] == inst.weight(u, v) for (u, v) in m)
        assert total_payoff(inst, p) == x
        kinds["decomposed"] += 1
    assert min(kinds.values()) >= 300, kinds


def test_uncertified_violation_is_internal_error(diamond):
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}  # in the core
    with pytest.raises(InternalError, match="certification"):
        core._violation(diamond, x, ["s1", "s2"])


def test_violation_tied_with_its_value_is_internal_error(diamond):
    """x(S) = v(S) is no violation: `_violation` refuses a tie with the
    optimum it is handed as it refuses a surplus."""
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}
    members = ["s1", "s2"]
    tie = lp_optimum(induced(diamond, members))._replace(weight=F(2))
    with pytest.raises(InternalError, match=r"violation by \['s1', 's2'\] fails certification"):
        core._violation(diamond, x, members, tie)


def test_wrong_row_sums_are_internal_errors(monkeypatch):
    inst = Instance(["a", "b"], {"a": 1, "b": 1}, [("a", "b", 4)])
    x = {"a": F(1), "b": F(3)}
    monkeypatch.setattr(transfers, "total_payoff", lambda inst_, p: {q: F(0) for q in inst_.players})
    with pytest.raises(InternalError, match="row sums"):
        allocation_to_payoff(inst, x, inst.edges)


def test_allocation_to_payoff_diamond(diamond):
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}
    mstar = [("s1", "s2"), ("s1", "s3"), ("s2", "s3")]
    p = allocation_to_payoff(diamond, x, mstar)
    assert all(v >= 0 for v in p.values())
    assert total_payoff(diamond, p) == x
    for (i, j) in mstar:
        assert p[(i, j)] + p[(j, i)] == 1
    # The cyclic split from the counterexample construction is also valid.
    cyclic = {
        ("s1", "s2"): F(1),
        ("s2", "s1"): F(0),
        ("s2", "s3"): F(1),
        ("s3", "s2"): F(0),
        ("s3", "s1"): F(1),
        ("s1", "s3"): F(0),
    }
    assert total_payoff(diamond, cyclic) == x


def test_allocation_to_payoff_example3_round_trip(example3):
    inst, sol = example3
    x = total_payoff(inst, sol.payoffs)
    p = allocation_to_payoff(inst, x, sol.matching)
    assert total_payoff(inst, p) == x
    assert all(v >= 0 for v in p.values())


def test_allocation_to_payoff_solve_output():
    rng = random.Random(17)
    done = 0
    while done < 10:
        inst = random_instance(rng, n_range=(3, 6), b_range=(1, 3))
        outcome = solve(inst)
        if not outcome.stable:
            continue
        done += 1
        x = total_payoff(inst, outcome.solution.payoffs)
        p = allocation_to_payoff(inst, x, outcome.solution.matching)
        assert total_payoff(inst, p) == x


def test_core_membership_b2_example4():
    gen = generate("example4", alpha=2)
    verdict = core_membership_b2(gen.instance, gen.allocation)
    assert verdict.kind == "violation"
    assert len(verdict.coalition) == 4
    assert verdict.deficit == F(1, 3)
    assert verdict.coalition_value == 3
    assert verdict.coalition_total == F(8, 3)


def test_core_membership_b2_diamond(diamond):
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}
    assert core_membership_b2(diamond, x).in_core
    assert core_membership_bruteforce(diamond, x).in_core


def test_core_membership_b2_example3_totals(example3):
    inst, sol = example3
    verdict = core_membership_b2(inst, total_payoff(inst, sol.payoffs))
    assert verdict.in_core


def test_core_membership_b2_sums_the_grand_coalition_once(monkeypatch, example3):
    inst, sol = example3
    real = core._coalition_total
    grand = []

    def spy(inst_, x, coalition):
        if list(coalition) == list(inst.players):
            grand.append(coalition)
        return real(inst_, x, coalition)

    monkeypatch.setattr(core, "_coalition_total", spy)
    assert core_membership_b2(inst, total_payoff(inst, sol.payoffs)).in_core
    assert len(grand) == 1


def test_core_membership_b2_negative_capacity_two_cycle(monkeypatch):
    """A cycle of capacity-2 players paid less than its weight is found by
    the path/cycle system; no separate negative-cycle stage runs."""
    inst = Instance(
        ["a", "b", "c", "d"],
        {"a": 2, "b": 2, "c": 2, "d": 1},
        [("a", "b", 4), ("b", "c", 4), ("a", "c", 4), ("a", "d", 10)],
    )
    x = {"a": F(2), "b": F(3), "c": F(3), "d": F(10)}  # x(abc) = 8 < w(abc) = 12
    assert is_allocation(inst, x)

    def unused(vertices, costs):
        raise AssertionError("negative_cycle ran")

    monkeypatch.setattr(cycles, "negative_cycle", unused)
    verdict = core_membership_b2(inst, x)
    assert verdict.kind == "violation" == core_membership_bruteforce(inst, x).kind
    assert verdict.coalition == ("a", "b", "c")
    assert verdict.coalition_value == 12 and verdict.deficit == 4


def test_core_membership_b2_rejects_large_capacity():
    inst = generate("example4", alpha=3).instance  # b = 3 everywhere
    with pytest.raises(CapacityTooLargeError):
        core_membership_b2(inst, {p: F(0) for p in inst.players})


def test_core_membership_b2_singleton_stage(diamond):
    x = {"s1": F(-1), "s2": F(2), "s3": F(2), "u": F(0)}
    verdict = core_membership_b2(diamond, x)
    assert verdict.kind == "violation"
    assert verdict.coalition == ("s1",)


def test_core_membership_b2_capacity_zero_stage():
    inst = Instance(
        ["a", "b", "z"], {"a": 1, "b": 1, "z": 0}, [("a", "b", 2), ("b", "z", 5)]
    )
    ok = core_membership_b2(inst, {"a": F(1), "b": F(1), "z": F(0)})
    assert ok.in_core
    shifted = core_membership_b2(inst, {"a": F(1), "b": F(0), "z": F(1)})
    assert shifted.kind == "violation"
    assert "z" not in shifted.coalition


def test_core_membership_not_allocation_agreement():
    inst = generate("two_player", w=7).instance
    x = {"i": F(5), "j": F(5)}  # sums to 10 > v(N) = 7, no violated coalition
    assert core_membership_b2(inst, x).kind == "not_allocation"
    assert core_membership_bruteforce(inst, x).kind == "not_allocation"


def test_core_membership_walk_counterexample():
    # Doubling the middle edge in a walk would look like a -1/2 "path", but
    # no simple path or cycle is violated; both tests must agree on in_core.
    inst = Instance(
        ["s", "u", "v", "t"],
        {"s": 2, "u": 2, "v": 2, "t": 2},
        [("s", "u", 0), ("u", "v", 2), ("u", "t", 0)],
    )
    x = {"s": F(0), "u": F(3, 2), "v": F(1, 2), "t": F(0)}
    assert core_membership_b2(inst, x).in_core
    assert core_membership_bruteforce(inst, x).in_core


def test_core_membership_triangle_always_violated():
    tri = generate("triangle").instance
    for x in (
        {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)},
        {"a": F(1), "b": F(0), "c": F(0)},
    ):
        assert core_membership_b2(tri, x).kind == "violation"
        assert core_membership_bruteforce(tri, x).kind == "violation"


def test_core_membership_bruteforce_bound():
    rng = random.Random(1)
    inst = random_instance(rng, n_range=(5, 5))
    with pytest.raises(BoundExceededError):
        core_membership_bruteforce(inst, {p: F(0) for p in inst.players}, max_players=4)


def test_cubic_gadget_k33_violation_arithmetic():
    left = ["l1", "l2", "l3"]
    right = ["r1", "r2", "r3"]
    base = Instance(
        left + right,
        {p: 1 for p in left + right},
        [(a, b, 1) for a in left for b in right],
    )
    gen = generate("cubic_gadget", graph=base)
    inst, x = gen.instance, gen.allocation
    assert is_allocation(inst, x)
    coalition = left + right  # V(H) for the 3-regular subgraph H = K33
    value = game_value(inst, coalition)
    total = sum(x[p] for p in coalition)
    assert value == F(3, 2) * 6
    assert value - total == 1  # |V(H)| / n with n = 6
    assert total < value


def test_cubic_gadget_tree_in_core_bruteforce():
    base = Instance(["p", "q"], {"p": 1, "q": 1}, [("p", "q", 1)])
    gen = generate("cubic_gadget", graph=base)
    verdict = core_membership_bruteforce(gen.instance, gen.allocation)
    assert verdict.in_core


def test_oracle_agreement_random():
    rng = random.Random(555)
    for trial in range(60):
        inst = random_instance(
            rng, n_range=(3, 8), max_extra_edges=4, b_range=(1, 2),
            allow_zero_capacity=True,
        )
        _, grand = max_weight_b_matching_bruteforce(inst)
        x = (
            random_nonallocation(rng, inst, grand)
            if trial % 3 == 0
            else random_allocation(rng, inst, grand)
        )
        fast = core_membership_b2(inst, x)
        slow = core_membership_bruteforce(inst, x)
        assert fast.kind == slow.kind


@st.composite
def planted_b2_allocations(draw):
    """A b <= 2 game with capacity-0 players, capacities above degree and
    weight-0 edges, a b-matching M, and x = b y for a dual y that is tight
    on M and zero at every player M leaves short: x is in the core. Then
    x made infeasible on one edge (its mass moved to a third player), and
    x raised above v(N)."""
    n = draw(st.integers(2, 7))
    players = [f"p{k}" for k in range(n)]
    pairs = list(itertools.combinations(players, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9))
    caps = {p: draw(st.sampled_from((0, 1, 1, 2, 2))) for p in players}
    load, matched = dict.fromkeys(players, 0), set()
    for u, v in edges:  # greedily, in the drawn order
        if load[u] < caps[u] and load[v] < caps[v]:
            matched.add((u, v))
            load[u] += 1
            load[v] += 1
    y = {
        p: F(draw(st.integers(0, 6)), draw(st.sampled_from((1, 2, 3)))) if load[p] == caps[p] > 0 else F(0)
        for p in players
    }
    weighted = []
    for u, v in edges:
        if (u, v) in matched:
            w = y[u] + y[v]
        elif caps[u] == 0 or caps[v] == 0:
            w = F(draw(st.integers(0, 12)))  # y is unbounded at a capacity-0 end
        else:
            w = (y[u] + y[v]) * F(draw(st.integers(0, 4)), 4)
        weighted.append((u, v, w))
    inst = Instance(players, caps, weighted)
    planted = {p: caps[p] * y[p] for p in players}
    allocations = [("planted", planted)]

    paying = [(u, v, w) for u, v, w in weighted if caps[u] and caps[v] and w > 0]
    if paying and n > 2:
        u, v, w = draw(st.sampled_from(paying))
        # Cut y(u) + y(v) to w - eps, from y(u) first, then from y(v).
        cut = y[u] + y[v] - w + w * F(draw(st.integers(1, 4)), 4)
        from_u = min(y[u], cut)
        taken = {u: caps[u] * from_u, v: caps[v] * (cut - from_u)}
        short = {p: q - taken.get(p, 0) for p, q in planted.items()}
        short[draw(st.sampled_from([p for p in players if p not in taken]))] += sum(taken.values())
        allocations.append(("short", short))

    above = dict(planted)
    above[draw(st.sampled_from(players))] += F(draw(st.integers(1, 6)), draw(st.sampled_from((1, 2))))
    allocations.append(("above", above))
    return inst, allocations


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(planted_b2_allocations())
def test_dual_screen_agrees_with_the_bruteforce_oracle(game):
    """Equal verdicts with the brute-force oracle on every kind of
    allocation; where x/b is a feasible dual, the path/cycle search finds
    no violation either, so the screen never hides one."""
    inst, allocations = game
    work = induced(inst, [p for p in inst.players if inst.b(p) > 0])
    for kind, x in allocations:
        screened = core._pays_every_edge(work, x, work.edge_weights())
        assert screened == (kind != "short"), kind
        verdict = core_membership_b2(inst, x)
        assert verdict.kind == core_membership_bruteforce(inst, x).kind, kind
        if kind != "short":
            assert verdict.kind == ("in_core" if kind == "planted" else "not_allocation")
            assert core._b2_constraint_search(work, x) is None
