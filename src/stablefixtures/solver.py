"""Existence test and construction of stable solutions via LP duality.

The degree-constrained LP relaxation of maximum-weight b-matching

    max sum w(ij) x(ij)   s.t.  sum_j x(ij) <= b(i),  0 <= x <= 1

has dual variables y (per player) and d (per edge) with constraints
y(i) + y(j) + d(ij) >= w(ij), y >= 0, d >= 0. A stable solution exists iff
the integral optimum equals the fractional (half-b-matching) optimum; in
that case an optimal dual extracted from the bipartite double cover turns a
maximum-weight b-matching into stable payoffs p(i,j) = y(i) + xi(i,j) with
xi splitting the slack d(ij) of each matched edge.

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
from .matching import (
    BipartiteDualCertificate,
    DuplicatedInstance,
    HalfBMatching,
    bipartite_optimum_with_duals,
    duplicated_instance,
    is_b_matching,
    max_half_b_matching_weight,
    max_weight_b_matching,
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
class DualSolution:
    """Feasible point (y, d) of the dual LP."""

    y: dict[str, Fraction]
    d: dict[Edge, Fraction]


@dataclass(frozen=True)
class DualFeasibility:
    feasible: bool
    violated_edges: tuple[Edge, ...]
    negative_y: tuple[str, ...]
    negative_d: tuple[Edge, ...]


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


def dual_objective(inst: Instance, dual: DualSolution) -> Fraction:
    """sum b(i) y(i) + sum d(ij); every player and edge needs an entry."""
    missing_y = [p for p in inst.players if p not in dual.y]
    if missing_y:
        raise InputError(f"dual vector missing players {missing_y}")
    d = {inst.edge_key(u, v): q for (u, v), q in dual.d.items()}
    missing_d = [e for e in inst.edges if e not in d]
    if missing_d:
        raise InputError(f"dual vector missing edges {missing_d}")
    total = sum((Fraction(inst.b(p)) * dual.y[p] for p in inst.players), Fraction(0))
    return total + sum((d[e] for e in inst.edges), Fraction(0))


def is_dual_feasible(inst: Instance, dual: DualSolution) -> DualFeasibility:
    """Check y(i) + y(j) + d(ij) >= w(ij), y >= 0, d >= 0 exactly."""
    d = {inst.edge_key(u, v): q for (u, v), q in dual.d.items()}
    violated = tuple(
        (u, v)
        for (u, v) in inst.edges
        if dual.y.get(u, Fraction(0)) + dual.y.get(v, Fraction(0)) + d.get((u, v), Fraction(0))
        < inst.weight(u, v)
    )
    neg_y = tuple(p for p in inst.players if dual.y.get(p, Fraction(0)) < 0)
    neg_d = tuple(e for e in inst.edges if d.get(e, Fraction(0)) < 0)
    return DualFeasibility(
        feasible=not (violated or neg_y or neg_d),
        violated_edges=violated,
        negative_y=neg_y,
        negative_d=neg_d,
    )


def tighten_d(inst: Instance, y: Mapping[str, Fraction]) -> dict[Edge, Fraction]:
    """The pointwise smallest feasible d: d(ij) = max(w(ij) - y(i) - y(j), 0)."""
    out = {}
    for (u, v) in inst.edges:
        gap = inst.weight(u, v) - y[u] - y[v]
        out[(u, v)] = gap if gap > 0 else Fraction(0)
    return out


def dual_from_duplicated(inst: Instance) -> DualSolution:
    """Optimal dual of Dual-(G, b, w) from the bipartite double cover.

    Runs one unperturbed pass on the cover. Folding the cover's dual
    certificate (y(i) = y(i') + y(i''), likewise for slacks) is feasible for
    the original dual and attains the half-b-matching optimum, which is the
    LP optimum.
    """
    inst.require_valid()
    dup = duplicated_instance(inst)
    _, cert = bipartite_optimum_with_duals(dup.instance)
    return _fold_dual(inst, dup, cert)


def _fold_dual(
    inst: Instance, dup: DuplicatedInstance, cert: BipartiteDualCertificate
) -> DualSolution:
    y = {
        i: cert.potentials[dup.left[i]] + cert.potentials[dup.right[i]]
        for i in inst.players
    }
    d: dict[Edge, Fraction] = {}
    for (i, j) in inst.edges:
        total = Fraction(0)
        for (a, b) in ((dup.left[i], dup.right[j]), (dup.left[j], dup.right[i])):
            total += cert.slacks[dup.instance.edge_key(a, b)]
        d[(i, j)] = total
    dual = DualSolution(y=y, d=d)
    if not is_dual_feasible(inst, dual).feasible:
        raise InternalError("folded double-cover dual is infeasible")
    return dual


def _check_half_at_least(half: Fraction, integral: Fraction) -> None:
    if half < integral:
        raise InternalError(
            f"half-b-matching optimum {format_rational(half)} below "
            f"b-matching optimum {format_rational(integral)}"
        )


def has_stable_solution(inst: Instance) -> bool:
    """Exact equality test between the integral and fractional optima.

    The fractional optimum comes from one unperturbed double-cover pass.
    """
    inst.require_valid()
    _, integral = max_weight_b_matching(inst)
    half, _ = bipartite_optimum_with_duals(duplicated_instance(inst).instance)
    _check_half_at_least(half, integral)
    return integral == half


def stable_from_dual(
    inst: Instance,
    matching: Iterable[tuple[str, str]],
    dual: DualSolution,
    split_rule: str = "half",
    sellers: Iterable[str] | None = None,
    _known_optimum: Fraction | None = None,
) -> Solution:
    """Assemble stable payoffs from a maximum-weight b-matching and an
    optimal dual: p(i,j) = y(i) + xi(i,j) on matched edges, zero elsewhere.

    split_rule "half" shares each matched slack d(ij) equally; "seller_side"
    hands it entirely to the buyer, reproducing uniform seller prices on
    bipartite instances.
    """
    if split_rule not in SPLIT_RULES:
        raise InputError(f"split_rule must be one of {SPLIT_RULES}")
    inst.require_valid()
    m = inst.canonical_edge_set(matching)
    if not is_b_matching(inst, m):
        raise PreconditionError("given edge set is not a b-matching")
    feas = is_dual_feasible(inst, dual)
    if not feas.feasible:
        raise PreconditionError(f"infeasible dual: {feas}")
    optimum = _known_optimum
    if optimum is None:
        _, optimum = max_weight_b_matching(inst)
    w_m = weight(inst, m)
    if w_m != optimum:
        raise NotMaximumWeightError(
            f"matching weight {format_rational(w_m)} below optimum {format_rational(optimum)}"
        )
    if dual_objective(inst, dual) != w_m:
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
        assert payoffs[(u, v)] + payoffs[(v, u)] == inst.weight(u, v)
    sol = Solution(matching=m, payoffs=payoffs)
    require_stable(inst, sol)
    return sol


def dual_from_stable(inst: Instance, sol: Solution) -> DualSolution:
    """Read an optimal dual off a stable solution: y = utilities, d tightened.

    Stability gives feasibility; the objective collapses to the matching
    weight because unsaturated players have zero utility. Capacity-0 players
    (infinite blocking utility, zero objective coefficient) are priced at
    their heaviest incident edge so every such edge keeps zero slack.
    """
    inst.require_valid()
    require_stable(inst, sol)
    y = utilities(inst, sol)
    for p in inst.players:
        if inst.b(p) == 0:
            y[p] = max([Fraction(0)] + [inst.weight(p, q) for q in inst.neighbors(p)])
    dual = DualSolution(y=y, d=tighten_d(inst, y))
    assert is_dual_feasible(inst, dual).feasible
    assert dual_objective(inst, dual) == weight(inst, sol.matching)
    return dual


def solve(
    inst: Instance,
    split_rule: str = "half",
    sellers: Iterable[str] | None = None,
) -> SolveOutcome:
    """Decide and construct: stable solution + dual certificate, or the
    heavier half-b-matching witness proving none exists.

    One unperturbed double-cover pass gives the half-b-matching optimum and
    the optimal dual; the perturbed cover pass runs only when no stable
    solution exists, to produce the tie-broken witness.
    """
    inst.require_valid()
    matching, integral = max_weight_b_matching(inst)
    dup = duplicated_instance(inst)
    half, cert = bipartite_optimum_with_duals(dup.instance)
    _check_half_at_least(half, integral)
    if integral != half:
        witness_weight, witness = max_half_b_matching_weight(inst, _dup=dup)
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
    dual = _fold_dual(inst, dup, cert)
    sol = stable_from_dual(
        inst, matching, dual, split_rule=split_rule, sellers=sellers, _known_optimum=integral
    )
    return SolveOutcome(
        stable=True,
        matching_weight=integral,
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
