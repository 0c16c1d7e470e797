"""Solutions (M, p), utilities, stability, equivalence, and the bipartite
lattice and competitive-equilibrium constructions.

A solution pairs a b-matching M with a payoff matrix p that splits the weight
of every matched edge between its ends and is zero elsewhere. Player i's
utility is her worst payoff across matched edges when saturated, 0 otherwise;
a solution is stable when no unmatched edge pays more than the combined
utilities of its ends.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    IncompatibleSolutionError,
    InputError,
    InternalError,
    NotMaximumWeightError,
    PreconditionError,
    UnknownEdgeError,
    UnstableSolutionError,
)
from .instance import Edge, Instance
from .rationals import format_rational, parse_rational

PayoffMatrix = dict[tuple[str, str], Fraction]


@dataclass(frozen=True)
class Solution:
    """A b-matching plus a compatible directional payoff matrix.

    `payoffs` maps ordered pairs (i, j) to p(i, j); omitted entries are zero.
    """

    matching: frozenset[Edge]
    payoffs: PayoffMatrix

    def payoff(self, i: str, j: str) -> Fraction:
        return self.payoffs.get((i, j), Fraction(0))


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


@dataclass(frozen=True)
class StabilityVerdict:
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


def total_payoff(inst: Instance, payoffs: Mapping[tuple[str, str], Fraction]) -> dict[str, Fraction]:
    """Row sums p^t(i) = sum_j p(i, j), every player present."""
    out = {p: Fraction(0) for p in inst.players}
    for (i, j), q in payoffs.items():
        if not inst.has_edge(i, j):
            raise UnknownEdgeError(f"payoff entry on non-edge ({i},{j})")
        out[i] += q
    return out


def are_equivalent(inst: Instance, sol_a: Solution, sol_b: Solution) -> bool:
    """The four-condition payoff equivalence.

    Equal utilities everywhere; equal entries on the shared matching; and on
    each side of the symmetric difference the payoffs are pinned to the
    utilities of both solutions.
    """
    require_compatible(inst, sol_a)
    require_compatible(inst, sol_b)
    ua = _utilities_unchecked(inst, sol_a)
    ub = _utilities_unchecked(inst, sol_b)
    if ua != ub:
        return False
    ma, mb = sol_a.matching, sol_b.matching
    for (i, j) in ma & mb:
        if sol_a.payoff(i, j) != sol_b.payoff(i, j) or sol_a.payoff(j, i) != sol_b.payoff(j, i):
            return False
    for (i, j) in ma - mb:
        if sol_a.payoff(i, j) != ua[i] or sol_a.payoff(j, i) != ua[j]:
            return False
    for (i, j) in mb - ma:
        if sol_b.payoff(i, j) != ub[i] or sol_b.payoff(j, i) != ub[j]:
            return False
    return True


def rematch(inst: Instance, sol: Solution, new_matching: Iterable[tuple[str, str]]) -> Solution:
    """Move a stable solution onto another maximum-weight b-matching.

    By the equivalence theorem the moved solution keeps p on the edges that
    M and M' share and pays (u(i), u(j)) on each edge ij of M' outside M.
    The result is checked to be stable and equivalent to the input.
    """
    from . import matching as matching_mod

    u = require_stable(inst, sol).utilities
    target = inst.canonical_edge_set(new_matching)
    if not matching_mod.is_b_matching(inst, target):
        raise PreconditionError("target edge set is not a b-matching")
    # The matching of a stable solution has maximum weight (its utilities
    # give a dual of equal value), so it measures the target.
    optimum = matching_mod.weight(inst, sol.matching)
    if matching_mod.weight(inst, target) != optimum:
        raise NotMaximumWeightError(
            "target matching weight "
            f"{format_rational(matching_mod.weight(inst, target))} < optimum "
            f"{format_rational(optimum)}"
        )

    payoffs: PayoffMatrix = {}
    for (i, j) in target:
        shared = (i, j) in sol.matching
        payoffs[(i, j)] = sol.payoff(i, j) if shared else u[i]
        payoffs[(j, i)] = sol.payoff(j, i) if shared else u[j]
    out = Solution(matching=target, payoffs=payoffs)
    if check_solution(inst, out) or not is_stable(inst, out).stable:
        raise InternalError("rematch produced an incompatible or unstable solution")
    if not are_equivalent(inst, sol, out):
        raise InternalError("rematch produced a non-equivalent payoff vector")
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
    from .errors import NotBipartiteError

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
    edge_comps = [c for c in inst.connected_components() if len(c) > 1]
    if len(edge_comps) > 1:
        raise PreconditionError(
            "side assignment is ambiguous across components; pass sellers explicitly"
        )
    if not edge_comps:
        return frozenset()
    comp = set(edge_comps[0])
    return frozenset(p for p in comp if coloring[p] == 0)


def meet_join(
    inst: Instance,
    sol_a: Solution,
    sol_b: Solution,
    op: str,
    sellers: Iterable[str] | None = None,
) -> Solution:
    """Lattice meet/join of two stable payoffs of a bipartite instance.

    The join favours buyers (sellers take the entrywise minimum), the meet
    favours sellers. Solutions on different matchings are first rematched
    onto the matching of `sol_a`.
    """
    if op not in ("meet", "join"):
        raise InputError(f"op must be 'meet' or 'join', got {op!r}")
    side = resolve_sides(inst, sellers)
    require_stable(inst, sol_a)
    require_stable(inst, sol_b)
    if sol_b.matching != sol_a.matching:
        sol_b = rematch(inst, sol_b, sol_a.matching)
    pick = min if op == "join" else max
    payoffs: PayoffMatrix = {}
    for (u, v) in sol_a.matching:
        i, j = (u, v) if u in side else (v, u)
        seller_part = pick(sol_a.payoff(i, j), sol_b.payoff(i, j))
        payoffs[(i, j)] = seller_part
        payoffs[(j, i)] = inst.weight(i, j) - seller_part
    out = Solution(matching=sol_a.matching, payoffs=payoffs)
    require_stable(inst, out)
    return out


def to_competitive_equilibrium(
    inst: Instance, sol: Solution, sellers: Iterable[str] | None = None
) -> Solution:
    """Flatten a stable bipartite solution into uniform per-seller prices.

    Every seller i is paid exactly u(i) on each of her matched edges (0 when
    unsaturated); buyers absorb the rest. The result is stable.
    """
    side = resolve_sides(inst, sellers)
    verdict = require_stable(inst, sol)
    u = verdict.utilities
    payoffs: PayoffMatrix = {}
    for (a, b_) in sol.matching:
        i, j = (a, b_) if a in side else (b_, a)
        payoffs[(i, j)] = u[i]
        payoffs[(j, i)] = inst.weight(i, j) - u[i]
    out = Solution(matching=sol.matching, payoffs=payoffs)
    require_stable(inst, out)
    return out


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# {"matching": [{"u": ..., "v": ...}],
#  "payoffs": [{"u": ..., "v": ..., "p_uv": "3", "p_vu": "1"}]}


def solution_to_json(inst: Instance, sol: Solution) -> dict:
    edges = sorted(sol.matching, key=lambda e: (inst.index(e[0]), inst.index(e[1])))
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
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad solution JSON: {exc!r}") from None
    return make_solution(inst, matching, payoffs)
