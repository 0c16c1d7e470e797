"""Unit-capacity expansion of an instance and the solution transfer around it.

A player i with capacity b(i) becomes b(i) copy vertices; every edge ij
becomes a 4-vertex chain

    i-copies -- outer(i,j) -- inner(i,j) -- inner(j,i) -- outer(j,i) -- j-copies

with all chain edges carrying the original weight w(ij). The expanded
instance has unit capacities, is bipartite iff the original is, and its
maximum matchings encode maximum-weight b-matchings through the exact weight
identity  w'(M') = w(M) + 2 w(E).

Payoffs on expanded instances follow the unit-capacity convention of one
value per vertex (each vertex has at most one matched edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InternalError, NotMaximumWeightError, PreconditionError
from .instance import Edge, Instance, _fresh_name
from .rationals import format_rational
from .stability import (
    PayoffMatrix,
    Solution,
    _utilities_unchecked,
    require_compatible,
    require_stable,
    total_payoff,
)


@dataclass(frozen=True)
class ReducedInstance:
    """The expanded unit-capacity instance plus provenance maps.

    copies[(i, s)] is the s-th copy of player i (1-based); inner[(i, j)] and
    outer[(i, j)] are the gadget vertices of edge ij on i's side. origin maps
    every expanded player back to a ("copy", i, s) / ("inner", i, j) /
    ("outer", i, j) tag.
    """

    instance: Instance
    copies: dict[tuple[str, int], str]
    inner: dict[tuple[str, str], str]
    outer: dict[tuple[str, str], str]
    origin: dict[str, tuple]


def reduce_instance(inst: Instance) -> ReducedInstance:
    """Build the expanded instance (G', 1, w').

    |N'| = sum_i b(i) + 4m and |E'| = sum_{ij} (b(i) + b(j) + 3).
    """
    used: set[str] = set()
    players: list[str] = []
    copies: dict[tuple[str, int], str] = {}
    inner: dict[tuple[str, str], str] = {}
    outer: dict[tuple[str, str], str] = {}
    origin: dict[str, tuple] = {}

    for i in inst.players:
        for s in range(1, inst.b(i) + 1):
            name = _fresh_name(used, f"{i}^{s}")
            copies[(i, s)] = name
            origin[name] = ("copy", i, s)
            players.append(name)
    edges: list[tuple[str, str, Fraction]] = []
    for (i, j) in inst.edges:
        w = inst.weight(i, j)
        out_i = _fresh_name(used, f"{i}~{j}")
        in_i = _fresh_name(used, f"{i}@{j}")
        in_j = _fresh_name(used, f"{j}@{i}")
        out_j = _fresh_name(used, f"{j}~{i}")
        for name, tag in (
            (out_i, ("outer", i, j)),
            (in_i, ("inner", i, j)),
            (in_j, ("inner", j, i)),
            (out_j, ("outer", j, i)),
        ):
            origin[name] = tag
            players.append(name)
        outer[(i, j)] = out_i
        outer[(j, i)] = out_j
        inner[(i, j)] = in_i
        inner[(j, i)] = in_j
        for s in range(1, inst.b(i) + 1):
            edges.append((copies[(i, s)], out_i, w))
        edges.append((out_i, in_i, w))
        edges.append((in_i, in_j, w))
        edges.append((in_j, out_j, w))
        for t in range(1, inst.b(j) + 1):
            edges.append((out_j, copies[(j, t)], w))

    reduced = Instance(players, {p: 1 for p in players}, edges)
    n = sum(inst.b(p) for p in inst.players) + 4 * inst.m
    m = sum(inst.b(u) + inst.b(v) + 3 for (u, v) in inst.edges)
    if (reduced.n, reduced.m) != (n, m):
        raise InternalError(f"expanded instance has the wrong size {reduced.n}/{reduced.m}, not {n}/{m}")
    return ReducedInstance(reduced, copies, inner, outer, origin)


def partner_ranks(inst: Instance, matching: frozenset[Edge]) -> dict[tuple[str, str], int]:
    """rank[(i, j)] = position of j among i's partners, ordered by index."""
    partners: dict[str, list[str]] = {p: [] for p in inst.players}
    for (u, v) in matching:
        partners[u].append(v)
        partners[v].append(u)
    ranks: dict[tuple[str, str], int] = {}
    for i, part in partners.items():
        part.sort(key=inst.index)
        for s, j in enumerate(part, start=1):
            ranks[(i, j)] = s
    return ranks


def reduce_matching(
    inst: Instance, matching: Iterable[tuple[str, str]], reduced: ReducedInstance | None = None
) -> frozenset[Edge]:
    """Expand a b-matching M into a matching M' of the expanded instance.

    Matched ij with partner ranks (s, t) contributes the three chain edges
    through copy i^s, the middle, and copy j^t; unmatched ij contributes the
    two chain edges that cover all four gadget vertices. The weight identity
    w'(M') = w(M) + 2 w(E) holds exactly.
    """
    from .matching import is_b_matching

    if reduced is None:
        reduced = reduce_instance(inst)
    m = inst.canonical_edge_set(matching)
    if not is_b_matching(inst, m):
        raise PreconditionError("edge set is not a b-matching")
    ranks = partner_ranks(inst, m)
    out: set[Edge] = set()
    g = reduced.instance
    for (i, j) in inst.edges:
        if (i, j) in m:
            s, t = ranks[(i, j)], ranks[(j, i)]
            out.add(g.edge_key(reduced.copies[(i, s)], reduced.outer[(i, j)]))
            out.add(g.edge_key(reduced.inner[(i, j)], reduced.inner[(j, i)]))
            out.add(g.edge_key(reduced.outer[(j, i)], reduced.copies[(j, t)]))
        else:
            out.add(g.edge_key(reduced.outer[(i, j)], reduced.inner[(i, j)]))
            out.add(g.edge_key(reduced.inner[(j, i)], reduced.outer[(j, i)]))
    return frozenset(out)


def reduce_solution(
    inst: Instance, sol: Solution, reduced: ReducedInstance | None = None
) -> Solution:
    """Expand a solution (M, p) into a solution on the expanded instance.

    Copies are paid the utility of their original player. On matched edges
    the inner vertices inherit p(i, j) and p(j, i) and the outers take the
    complement w(ij) - u(i); on unmatched edges the inner vertex takes
    min(u(i), w(ij)) and the outer the rest.
    """
    if reduced is None:
        reduced = reduce_instance(inst)
    require_compatible(inst, sol)
    u = _utilities_unchecked(inst, sol)
    matching = reduce_matching(inst, sol.matching, reduced)

    vertex_pay: dict[str, Fraction] = {}
    for i in inst.players:
        for s in range(1, inst.b(i) + 1):
            vertex_pay[reduced.copies[(i, s)]] = u[i]
    for (i, j) in inst.edges:
        w = inst.weight(i, j)
        for (a, b_) in ((i, j), (j, i)):
            if (i, j) in sol.matching:
                vertex_pay[reduced.inner[(a, b_)]] = sol.payoff(a, b_)
                vertex_pay[reduced.outer[(a, b_)]] = w - u[a]
            else:
                # Capacity-0 players have infinite blocking utility, so the
                # clip lands on the full edge weight.
                clipped = w if inst.b(a) == 0 else min(u[a], w)
                vertex_pay[reduced.inner[(a, b_)]] = clipped
                vertex_pay[reduced.outer[(a, b_)]] = w - clipped

    return _vertex_solution(reduced.instance, matching, vertex_pay)


def _vertex_solution(
    g: Instance, matching: frozenset[Edge], vertex_pay: Mapping[str, Fraction]
) -> Solution:
    """Turn unit-capacity per-vertex payoffs into a payoff matrix on M."""
    payoffs: PayoffMatrix = {}
    for (a, b_) in matching:
        payoffs[(a, b_)] = vertex_pay.get(a, Fraction(0))
        payoffs[(b_, a)] = vertex_pay.get(b_, Fraction(0))
    sol = Solution(matching=matching, payoffs=payoffs)
    require_compatible(g, sol)
    return sol


def srp_rematch(
    g: Instance, sol: Solution, new_matching: Iterable[tuple[str, str]]
) -> Solution:
    """Re-seat a stable unit-capacity solution on another maximum matching.

    The per-vertex payoff values are kept verbatim; because the total payoff
    vector of a stable solution is a core allocation, those values are
    automatically compatible with any other maximum-weight matching.
    """
    from .matching import is_b_matching, lp_optimum, weight

    if any(g.b(p) != 1 for p in g.players):
        raise PreconditionError("srp_rematch requires unit capacities")
    require_stable(g, sol)
    target = g.canonical_edge_set(new_matching)
    if not is_b_matching(g, target):
        raise PreconditionError("target edge set is not a matching")
    optimum = lp_optimum(g).weight
    if weight(g, target) != optimum:
        raise NotMaximumWeightError(
            f"target weight {format_rational(weight(g, target))}"
            f" != optimum {format_rational(optimum)}"
        )
    vertex_pay = total_payoff(g, sol.payoffs)
    out = _vertex_solution(g, target, vertex_pay)
    require_stable(g, out)
    return out


def lift_stable(
    inst: Instance, reduced: ReducedInstance, reduced_sol: Solution
) -> Solution:
    """Pull a stable solution of the expanded instance back to the original.

    A maximum-weight b-matching M of the original is computed, its expansion
    M' re-seats the given stable payoffs, and p(i, j) is read off the inner
    vertices of the matched edges. The result is a stable solution of the
    original instance.
    """
    from .matching import lp_optimum

    require_stable(reduced.instance, reduced_sol)
    matching = lp_optimum(inst).matching
    expanded = reduce_matching(inst, matching, reduced)
    moved = srp_rematch(reduced.instance, reduced_sol, expanded)
    vertex_pay = total_payoff(reduced.instance, moved.payoffs)
    payoffs: PayoffMatrix = {}
    for (i, j) in matching:
        payoffs[(i, j)] = vertex_pay[reduced.inner[(i, j)]]
        payoffs[(j, i)] = vertex_pay[reduced.inner[(j, i)]]
    out = Solution(matching=matching, payoffs=payoffs)
    require_stable(inst, out)
    return out


def provenance_to_json(reduced: ReducedInstance) -> dict:
    out = {}
    for name in reduced.instance.players:
        tag = reduced.origin[name]
        if tag[0] == "copy":
            out[name] = {"kind": "copy", "player": tag[1], "rank": tag[2]}
        else:
            out[name] = {"kind": tag[0], "player": tag[1], "partner": tag[2]}
    return out
