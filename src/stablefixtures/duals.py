"""The LP dual in `Fraction`s: feasibility, objective and complementary
slackness checks, the optimum and dual read off `lp_optimum`, and the
paper's characterisation of stable payoffs by optimal duals. Library code
that no CLI request loads (`solve` certifies on `matching`'s integer dual).
A game has a stable solution iff `lp_optimum`'s weight equals its half.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .cover import _cover_pass
from .errors import InputError, InternalError, NotBipartiteError, PreconditionError
from .instance import Edge, Instance
from .matching import DualSolution, _fraction_dual, _objective, _priced, lp_optimum, weight
from .rationals import common_denominator, format_rational, scale_to_integers
from .solver import _split_arguments, _stable_solution
from .stability import Solution, require_stable, utilities


class DualFeasibility(NamedTuple):
    feasible: bool
    violated_edges: tuple[Edge, ...]
    negative_y: tuple[str, ...]
    negative_d: tuple[Edge, ...]


def dual_objective(inst: Instance, dual: DualSolution) -> Fraction:
    """sum b(i) y(i) + sum d(ij); every player and edge needs an entry."""
    missing_y = [p for p in inst.players if p not in dual.y]
    if missing_y:
        raise InputError(f"dual vector missing players {missing_y}")
    d = {inst.edge_key(u, v): q for (u, v), q in dual.d.items()}
    missing_d = [e for e in inst.edges if e not in d]
    if missing_d:
        raise InputError(f"dual vector missing edges {missing_d}")
    return Fraction(_objective(inst, dual.y, d))


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


class SlacknessReport(NamedTuple):
    clean: bool
    unsaturated_with_price: tuple[str, ...]
    unmatched_with_slack: tuple[Edge, ...]
    matched_not_tight: tuple[Edge, ...]


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


def bipartite_max_weight_b_matching_with_duals(
    inst: Instance,
) -> tuple[frozenset[Edge], DualSolution]:
    """The tie-broken maximum-weight b-matching of a bipartite instance and
    an optimal LP dual, both read off one `lp_optimum`: the LP of a
    bipartite game is integral, so the matching must reach the dual's
    certified optimum, which makes the two complementary slack.
    """
    if inst.two_coloring() is None:
        raise NotBipartiteError("instance is not bipartite")
    opt = lp_optimum(inst)
    if opt.weight != opt.half:
        raise InternalError(
            f"tie-broken bipartite matching weighs {format_rational(opt.weight)}, "
            f"optimum is {format_rational(opt.half)}"
        )
    return opt.matching, opt.dual


def dual_from_duplicated(inst: Instance) -> tuple[Fraction, DualSolution]:
    """The half-b-matching optimum and an optimal dual of Dual-(G, b, w),
    from one certified pass on the bipartite double cover (`_cover_pass`)."""
    base, scale = scale_to_integers(inst.edge_weights())
    half, y, d, _ = _cover_pass(inst, base, scale)
    return Fraction(half, 2 * scale), _fraction_dual(y, d, 2 * scale)


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
    bipartite instances. Its arguments are checked first, as `solve`'s are
    (`solver._split_arguments`); then it is certified and split by
    `solver._stable_solution`, on the common denominator of the dual and
    the weights.
    """
    sellers = _split_arguments(inst, split_rule, sellers)
    m = inst.canonical_edge_set(matching)
    d = {inst.edge_key(u, v): q for (u, v), q in dual.d.items()}
    for name, keys, entries in (("players", inst.players, dual.y), ("edges", inst.edges, d)):
        missing = [k for k in keys if k not in entries]
        if missing:
            raise InputError(f"dual vector missing {name} {missing}")
    y = {p: dual.y[p] for p in inst.players}
    d = {e: d[e] for e in inst.edges}
    n = common_denominator([*inst.edge_weights().values(), *y.values(), *d.values()])
    scaled = ({p: int(q * n) for p, q in y.items()}, {e: int(q * n) for e, q in d.items()}, n)
    return _stable_solution(inst, m, scaled, split_rule, sellers)


def dual_from_stable(inst: Instance, sol: Solution) -> DualSolution:
    """Read an optimal dual off a stable solution: y = utilities, d tightened.

    Stability gives feasibility; the objective collapses to the matching
    weight because unsaturated players have zero utility. Capacity-0 players
    (infinite blocking utility) are priced by `matching._priced`.
    """
    require_stable(inst, sol)
    dual = _fraction_dual(*_priced(inst, inst.edge_weights(), utilities(inst, sol)), 1)
    if not is_dual_feasible(inst, dual).feasible:
        raise InternalError("dual read off a stable solution is infeasible")
    if dual_objective(inst, dual) != weight(inst, sol.matching):
        raise InternalError("dual read off a stable solution misses the matching weight")
    return dual
