"""Solutions (M, p), utilities, stability, and the seller side of a
bipartite game.

A solution pairs a b-matching M with a payoff matrix p that splits the weight
of every matched edge between its ends and is zero elsewhere. Player i's
utility is her worst payoff across matched edges when saturated, 0 otherwise;
a solution is stable when no unmatched edge pays more than the combined
utilities of its ends.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    IncompatibleSolutionError, InputError, InternalError, NotBipartiteError, PreconditionError,
    UnknownEdgeError, UnstableSolutionError,
)
from .instance import Edge, Instance, _spanning_forest
from .rationals import format_rational, parse_rational

PayoffMatrix = dict[tuple[str, str], Fraction]

# The payoff of an omitted entry; a Fraction is immutable, so one is shared.
_ZERO = Fraction(0)


class Solution(NamedTuple):
    """A b-matching plus a compatible directional payoff matrix.

    `payoffs` maps ordered pairs (i, j) to p(i, j); omitted entries are zero.
    """

    matching: frozenset[Edge]
    payoffs: PayoffMatrix

    def payoff(self, i: str, j: str) -> Fraction:
        return self.payoffs.get((i, j), _ZERO)


def make_solution(inst: Instance, matching: Iterable[tuple[str, str]], payoffs: Mapping) -> Solution:
    """Canonicalise raw matching/payoff data into a Solution (no checks)."""
    m = inst.canonical_edge_set(matching)
    p: PayoffMatrix = {}
    for (i, j), q in payoffs.items():
        inst.edge_key(i, j)
        p[(i, j)] = parse_rational(q)
    return Solution(matching=m, payoffs=p)


def check_solution(inst: Instance, sol: Solution) -> list[str]:
    """All compatibility violations of (M, p); empty means compatible."""
    out: list[str] = []
    deg: dict[str, int] = {}
    for (u, v) in sol.matching:
        if not inst.has_edge(u, v) or inst.edge_key(u, v) != (u, v):
            out.append(f"matching contains non-edge or non-canonical pair {u}-{v}")
            continue
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    for p, d in deg.items():
        if d > inst.b(p):
            out.append(f"degree {d} exceeds b({p}) = {inst.b(p)}")
    for (i, j), q in sol.payoffs.items():
        if not inst.has_edge(i, j):
            out.append(f"payoff entry on non-edge ({i},{j})")
        elif q < 0:
            out.append(f"negative payoff p({i},{j}) = {format_rational(q)}")
    for (u, v) in inst.edges:
        puv, pvu = sol.payoff(u, v), sol.payoff(v, u)
        if (u, v) in sol.matching:
            w = inst.weight(u, v)
            if puv + pvu != w:
                out.append(
                    f"p({u},{v}) + p({v},{u}) = {format_rational(puv + pvu)}"
                    f" != w = {format_rational(w)}"
                )
        elif puv != 0 or pvu != 0:
            out.append(f"nonzero payoff on unmatched edge {u}-{v}")
    return out


def require_compatible(inst: Instance, sol: Solution) -> None:
    violations = check_solution(inst, sol)
    if violations:
        raise IncompatibleSolutionError(violations)


def utilities(inst: Instance, sol: Solution) -> dict[str, Fraction]:
    """u(i): worst matched payoff if i is saturated, else 0.

    A capacity-0 player is saturated with no matched edges; the min over the
    empty set is +infinity, meaning such players can never block. The vector
    stores 0 for them; blocking tests special-case b(i) = 0 instead.
    """
    require_compatible(inst, sol)
    return _utilities_unchecked(inst, sol)


def _utilities_unchecked(inst: Instance, sol: Solution) -> dict[str, Fraction]:
    matched: dict[str, list[Fraction]] = {p: [] for p in inst.players}
    for (u, v) in sol.matching:
        matched[u].append(sol.payoff(u, v))
        matched[v].append(sol.payoff(v, u))
    out = {}
    for p in inst.players:
        if matched[p] and len(matched[p]) == inst.b(p):
            out[p] = min(matched[p])
        else:
            out[p] = Fraction(0)
    return out


def _can_block(inst: Instance, edge: Edge) -> bool:
    return inst.b(edge[0]) > 0 and inst.b(edge[1]) > 0


class StabilityVerdict(NamedTuple):
    stable: bool
    blocking_pairs: tuple[Edge, ...]
    utilities: dict[str, Fraction]


def is_stable(inst: Instance, sol: Solution) -> StabilityVerdict:
    """Stability check with the complete list of blocking pairs.

    A pair ij outside M blocks when u(i) + u(j) < w(ij); pairs with a
    capacity-0 end cannot form a partnership and never block.
    """
    require_compatible(inst, sol)
    u = _utilities_unchecked(inst, sol)
    blocking = tuple(
        e
        for e in inst.edges
        if e not in sol.matching
        and _can_block(inst, e)
        and u[e[0]] + u[e[1]] < inst.weight(*e)
    )
    return StabilityVerdict(stable=not blocking, blocking_pairs=blocking, utilities=u)


def require_stable(inst: Instance, sol: Solution) -> StabilityVerdict:
    verdict = is_stable(inst, sol)
    if not verdict.stable:
        raise UnstableSolutionError(f"blocking pairs: {list(verdict.blocking_pairs)}")
    return verdict


def _require_own_stable(inst: Instance, sol: Solution, source: str) -> None:
    """`require_stable` on a solution that `source` built itself: its one
    compatibility-and-stability pass failing is a bug, not bad input, so it
    raises InternalError."""
    try:
        require_stable(inst, sol)
    except (IncompatibleSolutionError, UnstableSolutionError) as exc:
        raise InternalError(f"{source} produced an incompatible or unstable solution: {exc}") from None


def total_payoff(inst: Instance, payoffs: Mapping[tuple[str, str], Fraction]) -> dict[str, Fraction]:
    """Row sums p^t(i) = sum_j p(i, j), every player present."""
    out = {p: Fraction(0) for p in inst.players}
    for (i, j), q in payoffs.items():
        if not inst.has_edge(i, j):
            raise UnknownEdgeError(f"payoff entry on non-edge ({i},{j})")
        out[i] += q
    return out


# ---------------------------------------------------------------------------
# Bipartite-only constructions
# ---------------------------------------------------------------------------


def resolve_sides(inst: Instance, sellers: Iterable[str] | None = None) -> frozenset[str]:
    """The seller side of a bipartite instance.

    With explicit `sellers`, verifies every edge crosses the bipartition.
    Otherwise 2-colors the graph; this is only unambiguous when a single
    component carries all edges, in which case the class containing its
    smallest-index vertex is the seller side.
    """
    if sellers is not None:
        side = frozenset(sellers)
        for p in side:
            inst.index(p)
        for (u, v) in inst.edges:
            if (u in side) == (v in side):
                raise NotBipartiteError(
                    f"edge {u}-{v} does not cross the declared seller side"
                )
        return side
    coloring = inst.two_coloring()
    if coloring is None:
        raise NotBipartiteError("instance is not bipartite")
    root, _ = _spanning_forest(inst.edges)
    if len(set(root.values())) > 1:
        raise PreconditionError(
            "side assignment is ambiguous across components; pass sellers explicitly"
        )
    return frozenset(p for p in root if coloring[p] == 0)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# {"matching": [{"u": ..., "v": ...}],
#  "payoffs": [{"u": ..., "v": ..., "p_uv": "3", "p_vu": "1"}]}


def solution_to_json(inst: Instance, sol: Solution) -> dict:
    edges = [e for e in inst.edges if e in sol.matching]
    return {
        "matching": [{"u": u, "v": v} for (u, v) in edges],
        "payoffs": [
            {
                "u": u,
                "v": v,
                "p_uv": format_rational(sol.payoff(u, v)),
                "p_vu": format_rational(sol.payoff(v, u)),
            }
            for (u, v) in edges
        ],
    }


def solution_from_json(inst: Instance, data: dict) -> Solution:
    if not isinstance(data, dict) or "matching" not in data:
        raise InputError("solution JSON must be an object with 'matching'")
    try:
        matching = [(item["u"], item["v"]) for item in data["matching"]]
        payoffs: PayoffMatrix = {}
        for item in data.get("payoffs", []):
            u, v = item["u"], item["v"]
            payoffs[(u, v)] = parse_rational(item["p_uv"])
            payoffs[(v, u)] = parse_rational(item["p_vu"])
        return make_solution(inst, matching, payoffs)
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad solution JSON: {exc!r}") from None
