"""Differential properties of the dual-first front end `lp_optimum`.

Hypothesis draws small general games with the shapes that break engines:
capacities 0 and above the degree, weights 0, 10^12, 10^400 and coprime
fractions, isolated players and ids that collide with the names the double
cover and the edge gadgets generate. On every game `lp_optimum` must return
the tie-broken engine's b-matching, the brute-force optima, and the verdict
of `solve`, and `solve`'s answer must pass the public Fraction checks
(dual feasibility and objective, complementary slackness, stability). On
games with a triangle, so that the general engine runs on both its edge
gadgets and its direct edges, `max_weight_b_matching` must return the
tie-broken optimum found by enumeration. On
bipartite games, whose LP `lp_optimum` solves on the game itself, the half
optimum and the dual must equal the double cover's (`dual_from_duplicated`),
kept here as the oracle. On the same games with
capacities capped at 2, `core_membership_b2` must give the verdict kind of
the exhaustive `core_membership_bruteforce` on allocations read off
`solve`'s payoffs, shaved, shifted or raised. The runs are
derandomized, so a failure reproduces as it stands; each shrunk failure is
pinned as a regression test below the properties.
"""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from stablefixtures.blossom import max_weight_b_matching
from stablefixtures.core import core_membership_b2
from stablefixtures.duals import (
    dual_from_duplicated,
    dual_objective,
    is_dual_feasible,
    verify_complementary_slackness,
)
from stablefixtures.instance import Instance
from stablefixtures.matching import (
    _lp_optimum,
    is_b_matching,
    lp_optimum,
    weight,
)
from stablefixtures.oracles import (
    core_membership_bruteforce,
    max_half_b_matching_bruteforce,
    max_weight_b_matching_bruteforce,
)
from stablefixtures.solution import _solution_faults
from stablefixtures.solver import solve
from stablefixtures.stability import Solution, check_solution, is_stable, total_payoff
from stablefixtures.transfers import allocation_to_payoff
from stablefixtures.witness import is_half_b_matching

# Gadget-like ids first, so shrinking keeps them.
IDS = ("a", "a'", "a''", "a^1", "a~b", "a@b", "b", "c", "d")
# The half-b-matching oracle enumerates 3^m assignments.
MAX_EDGES = 9
# Repeated small weights make ties and half-integral optima (no stable
# solution); the fractions have pairwise coprime denominators.
WEIGHTS = st.one_of(
    st.sampled_from((F(1), F(0), F(10**12), F(2), F(10**400))),
    st.builds(F, st.integers(1, 40), st.sampled_from((2, 3, 5, 7, 11, 13))),
)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=250)


@st.composite
def games(draw) -> Instance:
    players = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=7, unique=True))
    pairs = list(combinations(players, 2))
    count = draw(st.integers(min(len(pairs), 3), min(len(pairs), MAX_EDGES - 3)))
    chosen = draw(st.permutations(pairs))[:count]
    weights = {e: draw(WEIGHTS) for e in chosen}
    degree = {p: sum(p in e for e in chosen) for p in players}
    capacity = {p: draw(st.sampled_from((1, 2, 0, degree[p] + 1))) for p in players}
    # Often plant a heavy triangle of capacity-1 players, which leaves the
    # half-b-matching optimum above every b-matching unless the rest of the
    # game outweighs it: random weights alone rarely lose stability.
    triangle = list(combinations(players[:3], 2))
    if len(players) >= 3 and draw(st.booleans()):
        heavy = draw(WEIGHTS)
        chosen += [e for e in triangle if e not in weights]
        weights.update(dict.fromkeys(triangle, heavy))
        for p in players[:3]:
            capacity[p] = 1
    return Instance(players, capacity, [(u, v, weights[(u, v)]) for (u, v) in chosen])


@st.composite
def general_games(draw) -> Instance:
    """Games with a triangle on their first three players, so the general
    engine runs. Capacities from 0 to 3 or above the degree give edges
    whose ends have two or more copies (the 2-vertex gadget) and edges with
    a one-copy end on one side or both (direct edges)."""
    players = draw(st.lists(st.sampled_from(IDS), min_size=3, max_size=7, unique=True))
    triangle = list(combinations(players[:3], 2))
    rest = [e for e in combinations(players, 2) if e not in triangle]
    chosen = triangle + draw(st.permutations(rest))[: draw(st.integers(0, MAX_EDGES - 3))]
    degree = {p: sum(p in e for e in chosen) for p in players}
    capacity = {p: draw(st.sampled_from((1, 2, 0, 3, degree[p] + 1))) for p in players}
    return Instance(players, capacity, [(u, v, draw(WEIGHTS)) for (u, v) in chosen])


@st.composite
def bipartite_games(draw) -> Instance:
    """The shapes of `games` on a random bipartition, without the triangle."""
    players = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=8, unique=True))
    side = {p: draw(st.booleans()) for p in players}
    pairs = [(u, v) for (u, v) in combinations(players, 2) if side[u] != side[v]]
    chosen = draw(st.permutations(pairs))[: draw(st.integers(0, min(len(pairs), 12)))]
    degree = {p: sum(p in e for e in chosen) for p in players}
    capacity = {p: draw(st.sampled_from((1, 2, 0, degree[p] + 1))) for p in players}
    return Instance(players, capacity, [(u, v, draw(WEIGHTS)) for (u, v) in chosen])


@st.composite
def b2_games(draw) -> Instance:
    """The games of `games` with every capacity capped at 2."""
    inst = draw(games())
    capacity = {p: min(inst.b(p), 2) for p in inst.players}
    return Instance(inst.players, capacity, [(u, v, inst.weight(u, v)) for (u, v) in inst.edges])


# Shaving x(p) by one of these breaks efficiency or a singleton bound;
# shifting it to another player keeps x(N) and can break a coalition.
AMOUNTS = (F(1, 7), F(1, 2), F(1), F(10**400))


@st.composite
def b2_allocations(draw):
    """A b <= 2 game and an allocation near its stable payoffs.

    A game without a stable solution has an empty core, so it gets the even
    split of v(N) instead, which some coalition must block.
    """
    inst = draw(b2_games())
    outcome = solve(inst)
    if outcome.stable:
        x = total_payoff(inst, outcome.solution.payoffs)
    else:
        x = {p: outcome.matching_weight / inst.n for p in inst.players}
    move = draw(st.sampled_from(("keep", "shave", "shift", "raise")))
    if move != "keep":
        order = draw(st.permutations(inst.players))
        p, q = order[0], order[-1]
        amount = draw(st.sampled_from(AMOUNTS))
        x[p] += amount if move == "raise" else -amount
        if move == "shift":
            x[q] += amount
    return inst, x


@PROPERTY
@given(games())
def test_lp_optimum_is_the_tie_broken_engine_optimum(inst):
    opt = lp_optimum(inst)
    assert (opt.matching, opt.weight) == max_weight_b_matching(inst)
    assert opt.weight == max_weight_b_matching_bruteforce(inst)[1]


def _tie_broken_by_enumeration(inst: Instance) -> frozenset:
    """The maximum-weight b-matching that, among those of equal weight,
    holds the earliest edge (in the instance's order) where they differ."""
    edges = inst.edges
    best_key, best = None, frozenset()
    for mask in range(1 << len(edges)):
        chosen = [e for k, e in enumerate(edges) if mask >> k & 1]
        if is_b_matching(inst, chosen):
            key = (weight(inst, chosen), [e in chosen for e in edges])
            if best_key is None or key > best_key:
                best_key, best = key, frozenset(chosen)
    return best


@PROPERTY
@given(general_games())
def test_general_engine_is_the_tie_broken_optimum(inst):
    matching, value = max_weight_b_matching(inst)
    assert value == max_weight_b_matching_bruteforce(inst)[1]
    assert matching == _tie_broken_by_enumeration(inst)


@PROPERTY
@given(games())
def test_lp_optimum_half_and_the_solve_verdict(inst):
    opt = lp_optimum(inst)
    assert opt.half == max_half_b_matching_bruteforce(inst)
    assert solve(inst).stable == (opt.weight == opt.half)


@PROPERTY
@given(games())
def test_solve_outcome_passes_the_fraction_checks(inst):
    """`solve` certifies in scaled integers; its answer must pass the public
    checks, which work in Fractions on the game's own weights."""
    outcome = solve(inst)
    if outcome.stable:
        sol, dual = outcome.solution, outcome.dual
        assert is_dual_feasible(inst, dual).feasible
        assert dual_objective(inst, dual) == outcome.matching_weight == outcome.half_weight
        assert verify_complementary_slackness(inst, dict.fromkeys(sol.matching, F(1)), dual).clean
        assert is_stable(inst, sol).stable
    else:
        assert is_half_b_matching(inst, outcome.witness.values)
        assert outcome.witness.weight(inst) == outcome.half_weight > outcome.matching_weight


# Moves of a matched edge's integer payoffs: from one end to the other
# (the sum kept), and off its weight. "neg" leaves the first end at -1.
MOVES = st.sampled_from((0, 0, 1, -1, 3, "neg"))
OFFSETS = st.sampled_from((0, 0, 0, 1, -1))


@PROPERTY
@given(games(), st.data())
def test_integer_split_check_agrees_with_the_fraction_checks(inst, data):
    """`solution._solution_faults` checks `solve`'s stable answer in the
    integers of its pass, and every other solution in Fractions. From the
    payoffs `solve` splits off the pass's dual, with payoff moved between
    the ends of matched edges, pushed off their weight or made negative, and
    with a matched edge dropped or an unmatched one added, the integer
    payoffs against 2w and the same payoffs as Fractions over 2 * denom
    against the game's weights (`check_solution`, `is_stable`) are both
    compatible or both not, and then have the same blocking pairs and
    utilities equal up to the scale, which the integer check keeps in ints."""
    opt, (y, d, denom, w), _, _ = _lp_optimum(inst)
    m = set(opt.matching)
    if m and data.draw(st.booleans()):
        m.discard(data.draw(st.sampled_from(sorted(m))))
    unmatched = [e for e in inst.edges if e not in m]
    if unmatched and data.draw(st.booleans()):
        m.add(data.draw(st.sampled_from(unmatched)))
    payoffs = {}
    for (u, v) in sorted(m):
        p_uv, p_vu = 2 * y[u] + d[(u, v)], 2 * y[v] + d[(u, v)]
        move = data.draw(MOVES)
        move = p_uv + 1 if move == "neg" else move
        payoffs[(u, v)] = p_uv - move + data.draw(OFFSETS)
        payoffs[(v, u)] = p_vu + move
    m = frozenset(m)
    scale = 2 * denom
    sol = Solution(m, {k: F(q, scale) for k, q in payoffs.items()})
    violations, utility, blocking = _solution_faults(inst, Solution(m, payoffs), {e: 2 * q for e, q in w.items()})
    assert bool(violations) == bool(check_solution(inst, sol))
    if not violations:
        verdict = is_stable(inst, sol)
        assert blocking == verdict.blocking_pairs
        assert {p: F(q, scale) for p, q in utility.items()} == verdict.utilities
        # Zeros take the weights' type; a game without edges has none.
        assert not inst.edges or all(type(q) is int for q in utility.values())


@PROPERTY
@given(bipartite_games())
def test_bipartite_lp_optimum_equals_the_cover_dual(inst):
    opt = lp_optimum(inst)
    half, dual = dual_from_duplicated(inst)
    assert opt.half == half == opt.weight
    assert opt.dual.y == dual.y
    assert opt.dual.d == dual.d


@PROPERTY
@given(b2_allocations())
def test_core_membership_b2_agrees_with_bruteforce(case):
    inst, x = case
    fast = core_membership_b2(inst, x)
    slow = core_membership_bruteforce(inst, x)
    assert fast.kind == slow.kind
    for verdict in (fast, slow):
        assert verdict.kind != "violation" or verdict.deficit > 0
    if fast.in_core:
        # An in-core allocation decomposes into nonnegative payoffs on M*.
        payoffs = allocation_to_payoff(inst, x, lp_optimum(inst).matching)
        assert all(q >= 0 for q in payoffs.values())
        assert total_payoff(inst, payoffs) == x
