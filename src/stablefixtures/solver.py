"""Existence test and construction of stable solutions via LP duality.

The degree-constrained LP relaxation of maximum-weight b-matching

    max sum w(ij) x(ij)   s.t.  sum_j x(ij) <= b(i),  0 <= x <= 1

has dual variables y (per player) and d (per edge) with constraints
y(i) + y(j) + d(ij) >= w(ij), y >= 0, d >= 0. A stable solution exists iff
the integral optimum equals the fractional (half-b-matching) optimum; in
that case an optimal dual extracted from the bipartite double cover turns a
maximum-weight b-matching into stable payoffs p(i,j) = y(i) + xi(i,j) with
xi splitting the slack d(ij) of each matched edge.

The dual type `DualSolution` and its checks (`is_dual_feasible`,
`dual_objective`, `tighten_d`) are defined in `matching`, whose bipartite
engine returns certified duals, and re-exported here. `dual_from_duplicated`
is the one double-cover pass behind `solve` and `has_stable_solution`.

Pure pipeline over immutable inputs; no global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    DualityGapError,
    InputError,
    InternalError,
    NotMaximumWeightError,
    PreconditionError,
)
from .instance import Edge, Instance
from .matching import (  # DualFeasibility and tighten_d are re-exported
    DualFeasibility,
    DualSolution,
    HalfBMatching,
    bipartite_optimum_with_duals,
    dual_objective,
    duplicated_instance,
    is_b_matching,
    is_dual_feasible,
    max_half_b_matching_weight,
    max_weight_b_matching,
    priced_dual,
    tighten_d,
    weight,
)
from .rationals import format_rational
from .stability import (
    PayoffMatrix,
    Solution,
    require_stable,
    resolve_sides,
    utilities,
)

SPLIT_RULES = ("half", "seller_side")


@dataclass(frozen=True)
class SlacknessReport:
    clean: bool
    unsaturated_with_price: tuple[str, ...]
    unmatched_with_slack: tuple[Edge, ...]
    matched_not_tight: tuple[Edge, ...]


@dataclass(frozen=True)
class SolveOutcome:
    """Either a stable solution with its dual certificate, or the fractional
    witness proving none exists."""

    stable: bool
    matching_weight: Fraction
    half_weight: Fraction
    solution: Solution | None = None
    dual: DualSolution | None = None
    witness: HalfBMatching | None = None


def primal_objective(inst: Instance, x: Mapping[tuple[str, str], Fraction]) -> Fraction:
    """sum w(ij) x(ij); every edge needs an entry."""
    values = {inst.edge_key(u, v): q for (u, v), q in x.items()}
    missing = [e for e in inst.edges if e not in values]
    if missing:
        raise InputError(f"primal vector missing edges {missing}")
    return sum((inst.weight(u, v) * values[(u, v)] for (u, v) in inst.edges), Fraction(0))


def dual_from_duplicated(inst: Instance) -> tuple[Fraction, DualSolution]:
    """The half-b-matching optimum and an optimal dual of Dual-(G, b, w),
    from one unperturbed pass on the bipartite double cover.

    Folding the cover's certified dual (y(i) = y(i') + y(i''), d(ij) = the
    slacks of both cross edges) keeps it feasible and keeps its objective,
    the half-b-matching optimum, which is the LP optimum.
    """
    dup = duplicated_instance(inst)
    half, cover = bipartite_optimum_with_duals(dup.instance)
    key = dup.instance.edge_key
    y = {i: cover.y[dup.left[i]] + cover.y[dup.right[i]] for i in inst.players}
    d = {
        (i, j): cover.d[key(dup.left[i], dup.right[j])] + cover.d[key(dup.left[j], dup.right[i])]
        for (i, j) in inst.edges
    }
    return half, DualSolution(y=y, d=d)


def _check_half_at_least(half: Fraction, integral: Fraction) -> None:
    if half < integral:
        raise InternalError(
            f"half-b-matching optimum {format_rational(half)} below "
            f"b-matching optimum {format_rational(integral)}"
        )


def has_stable_solution(inst: Instance) -> bool:
    """Exact equality test between the integral and fractional optima.

    The fractional optimum and an optimal dual come from one unperturbed
    double-cover pass; the instance is stable iff a b-matching of the
    complementary-slack residual reaches it.
    """
    half, dual = dual_from_duplicated(inst)
    _, integral = _stable_matching(inst, dual, half)
    return integral == half


def _stable_matching(
    inst: Instance, dual: DualSolution, half: Fraction
) -> tuple[frozenset[Edge], Fraction | None]:
    """A b-matching read off the optimal dual (y, d) and the game's maximum
    b-matching weight, or (empty set, None) where the dual does not settle
    that weight. The game is stable iff the weight is the half optimum
    `half`, and the b-matching is then its tie-broken optimum.

    By complementary slackness, edges with d > 0 are forced, and the rest of
    the matching uses tight edges (d = 0, y(u) + y(v) = w(uv)) within the
    capacity the forced edges leave free. When the game is stable its optimal
    b-matchings are exactly the forced edges plus a maximum-weight b-matching
    of that residual, so the lexicographic tie-break on the residual (same
    edge order) picks the same set as on the whole game. If the dual cuts
    nothing (no forced edge, every edge between players with capacity tight),
    the residual is the whole game and its optimum is the game's anyway.
    """
    forced = frozenset(e for e in inst.edges if dual.d[e] > 0)
    free = {p: inst.b(p) for p in inst.players}
    for (u, v) in forced:
        free[u] -= 1
        free[v] -= 1
    if any(c < 0 for c in free.values()):
        return frozenset(), None
    tight = [
        (u, v, inst.weight(u, v))
        for (u, v) in inst.edges
        if dual.d[(u, v)] == 0
        and free[u]
        and free[v]
        and dual.y[u] + dual.y[v] == inst.weight(u, v)
    ]
    chosen, residual_weight = max_weight_b_matching(Instance(inst.players, free, tight))
    total = weight(inst, forced) + residual_weight
    _check_half_at_least(half, total)
    if total != half:
        whole = not forced and len(tight) == sum(
            1 for (u, v) in inst.edges if inst.b(u) and inst.b(v)
        )
        return frozenset(), total if whole else None
    matching = forced | chosen
    if not is_b_matching(inst, matching):
        raise InternalError("forced and residual edges overfill a player")
    return matching, total


def stable_from_dual(
    inst: Instance,
    matching: Iterable[tuple[str, str]],
    dual: DualSolution,
    split_rule: str = "half",
    sellers: Iterable[str] | None = None,
) -> Solution:
    """Assemble stable payoffs from a maximum-weight b-matching and an
    optimal dual: p(i,j) = y(i) + xi(i,j) on matched edges, zero elsewhere.

    split_rule "half" shares each matched slack d(ij) equally; "seller_side"
    hands it entirely to the buyer, reproducing uniform seller prices on
    bipartite instances.
    """
    if split_rule not in SPLIT_RULES:
        raise InputError(f"split_rule must be one of {SPLIT_RULES}")
    m = inst.canonical_edge_set(matching)
    if not is_b_matching(inst, m):
        raise PreconditionError("given edge set is not a b-matching")
    feas = is_dual_feasible(inst, dual)
    if not feas.feasible:
        raise PreconditionError(f"infeasible dual: {feas}")
    # Weak duality: a feasible dual at objective w(M) certifies M maximum.
    w_m = weight(inst, m)
    if dual_objective(inst, dual) != w_m:
        _, optimum = max_weight_b_matching(inst)
        if w_m != optimum:
            raise NotMaximumWeightError(
                f"matching weight {format_rational(w_m)} below optimum {format_rational(optimum)}"
            )
        raise DualityGapError(
            "dual objective differs from the matching weight; no stable solution"
        )

    side = resolve_sides(inst, sellers) if split_rule == "seller_side" else None
    payoffs: PayoffMatrix = {}
    for (u, v) in m:
        d_uv = dual.d[(u, v)]
        if split_rule == "half":
            xi_u = d_uv / 2
        else:
            xi_u = Fraction(0) if u in side else d_uv
        payoffs[(u, v)] = dual.y[u] + xi_u
        payoffs[(v, u)] = dual.y[v] + (d_uv - xi_u)
        # Complementary slackness makes the matched constraint tight.
        if payoffs[(u, v)] + payoffs[(v, u)] != inst.weight(u, v):
            raise InternalError(f"payoffs on {u}-{v} do not split its weight")
    sol = Solution(matching=m, payoffs=payoffs)
    require_stable(inst, sol)
    return sol


def dual_from_stable(inst: Instance, sol: Solution) -> DualSolution:
    """Read an optimal dual off a stable solution: y = utilities, d tightened.

    Stability gives feasibility; the objective collapses to the matching
    weight because unsaturated players have zero utility. Capacity-0 players
    (infinite blocking utility) are priced by `priced_dual`.
    """
    require_stable(inst, sol)
    dual = priced_dual(inst, utilities(inst, sol))
    if not is_dual_feasible(inst, dual).feasible:
        raise InternalError("dual read off a stable solution is infeasible")
    if dual_objective(inst, dual) != weight(inst, sol.matching):
        raise InternalError("dual read off a stable solution misses the matching weight")
    return dual


def solve(
    inst: Instance,
    split_rule: str = "half",
    sellers: Iterable[str] | None = None,
) -> SolveOutcome:
    """Decide and construct: stable solution + dual certificate, or the
    heavier half-b-matching witness proving none exists.

    One unperturbed double-cover pass gives the half-b-matching optimum and
    an optimal dual; the stable matching is matched on the complementary-slack
    residual of that dual alone, and the dual objective check of
    `stable_from_dual` certifies it. Otherwise the perturbed cover pass gives
    the witness, and the full-graph engine the b-matching optimum unless the
    residual was the whole game.
    """
    half, dual = dual_from_duplicated(inst)
    matching, integral = _stable_matching(inst, dual, half)
    if integral != half:
        if integral is None:
            _, integral = max_weight_b_matching(inst)
        _check_half_at_least(half, integral)
        if integral == half:
            raise InternalError(
                "a b-matching attains the half optimum, but none is "
                "complementary-slack with the optimal dual"
            )
        witness_weight, witness = max_half_b_matching_weight(inst)
        if witness_weight != half:
            raise InternalError(
                f"half-b-matching witness weighs {format_rational(witness_weight)}, "
                f"optimum is {format_rational(half)}"
            )
        return SolveOutcome(
            stable=False,
            matching_weight=integral,
            half_weight=half,
            witness=witness,
        )
    sol = stable_from_dual(inst, matching, dual, split_rule=split_rule, sellers=sellers)
    return SolveOutcome(
        stable=True,
        matching_weight=half,
        half_weight=half,
        solution=sol,
        dual=dual,
    )


def verify_complementary_slackness(
    inst: Instance, x: Mapping[tuple[str, str], Fraction], dual: DualSolution
) -> SlacknessReport:
    """The three optimality conditions for a 0/1 primal and a feasible dual.

    Unsaturated player => zero price; unmatched edge => zero slack; matched
    edge => tight dual constraint. A clean report certifies both optimal.
    """
    values = {inst.edge_key(u, v): q for (u, v), q in x.items()}
    deg: dict[str, Fraction] = {p: Fraction(0) for p in inst.players}
    for e in inst.edges:
        q = values.get(e, Fraction(0))
        if q not in (Fraction(0), Fraction(1)):
            raise PreconditionError(f"primal value x{e} = {q} is not 0/1")
        deg[e[0]] += q
        deg[e[1]] += q
    for p, load in deg.items():
        if load > inst.b(p):
            raise PreconditionError(f"primal infeasible at {p}")
    feas = is_dual_feasible(inst, dual)
    if not feas.feasible:
        raise PreconditionError(f"infeasible dual: {feas}")

    unsaturated = tuple(
        p for p in inst.players if deg[p] < inst.b(p) and dual.y[p] != 0
    )
    unmatched = tuple(
        e for e in inst.edges if values.get(e, Fraction(0)) == 0 and dual.d[e] != 0
    )
    loose = tuple(
        (u, v)
        for (u, v) in inst.edges
        if values.get((u, v), Fraction(0)) == 1
        and dual.y[u] + dual.y[v] + dual.d[(u, v)] != inst.weight(u, v)
    )
    return SlacknessReport(
        clean=not (unsaturated or unmatched or loose),
        unsaturated_with_price=unsaturated,
        unmatched_with_slack=unmatched,
        matched_not_tight=loose,
    )


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def dual_to_json(inst: Instance, dual: DualSolution) -> dict:
    return {
        "y": {p: format_rational(dual.y[p]) for p in inst.players},
        "d": [
            {"u": u, "v": v, "value": format_rational(dual.d[(u, v)])}
            for (u, v) in inst.edges
        ],
    }


def outcome_to_json(inst: Instance, outcome: SolveOutcome) -> dict:
    from .matching import half_matching_to_json
    from .stability import solution_to_json

    data = {
        "status": "stable" if outcome.stable else "no_stable",
        "b_matching_weight": format_rational(outcome.matching_weight),
        "half_b_matching_weight": format_rational(outcome.half_weight),
    }
    if outcome.stable:
        data["solution"] = solution_to_json(inst, outcome.solution)
        data["dual"] = dual_to_json(inst, outcome.dual)
    else:
        data["witness"] = half_matching_to_json(inst, outcome.witness)
    return data
