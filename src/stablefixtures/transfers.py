"""The paper's constructs that carry solutions and payoffs elsewhere, kept
as library code that no CLI request loads: `rematch` and payoff
equivalence, the bipartite lattice and competitive prices, the transfer of
solutions through the unit-capacity expansion (one payoff per expanded
vertex, which has at most one matched edge), and the decomposition of a
core allocation into nonnegative payoffs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Mapping

from .core import CoreViolationError, _coalition_total, _violation
from .errors import ComponentSumError, InputError, InternalError, NotMaximumWeightError, PreconditionError
from .instance import Edge, Instance, _spanning_forest
from .matching import is_b_matching, lp_optimum, weight
from .rationals import format_rational
from .reduction import ReducedInstance, reduce_instance
from .stability import PayoffMatrix, Solution, _utilities_unchecked, check_solution, is_stable
from .stability import require_compatible, require_stable, resolve_sides, total_payoff


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
    u = require_stable(inst, sol).utilities
    target = inst.canonical_edge_set(new_matching)
    if not is_b_matching(inst, target):
        raise PreconditionError("target edge set is not a b-matching")
    # The matching of a stable solution has maximum weight (its utilities
    # give a dual of equal value), so it measures the target.
    optimum = weight(inst, sol.matching)
    if weight(inst, target) != optimum:
        raise NotMaximumWeightError(
            "target matching weight "
            f"{format_rational(weight(inst, target))} < optimum "
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


def solve_payoff_system(
    inst: Instance,
    matching: Iterable[tuple[str, str]],
    x: Mapping[str, Fraction],
) -> PayoffMatrix:
    """Signed payoffs on M* with exact row sums x.

    Requires x to sum to the matched weight on every connected component of
    M* and to vanish on uncovered players. Each cycle gives up one edge,
    paid half its weight at each end: walking M* from its largest canonical
    edge down, the edges that close a cycle (Kruskal's rejects) are given
    up, in increasing order. These are the edges that reverse-delete removes
    by dropping the smallest canonical edge on a cycle again and again. The
    spanning forest left is peeled leaf by leaf, always at the smallest-index
    leaf.
    """
    m = inst.canonical_edge_set(matching)
    if not is_b_matching(inst, m):
        raise PreconditionError("edge set is not a b-matching")
    _coalition_total(inst, x, inst.players)

    decreasing = sorted(m, key=lambda e: (inst.index(e[0]), inst.index(e[1])), reverse=True)
    root, closing = _spanning_forest(decreasing)
    comps: dict[str, list[str]] = {}
    for p in inst.players:
        if p in root:
            comps.setdefault(root[p], []).append(p)
        elif x[p] != 0:
            raise ComponentSumError(
                f"player {p} is uncovered by the matching but has x({p}) = "
                f"{format_rational(x[p])}"
            )
    matched = dict.fromkeys(comps, Fraction(0))
    for (u, v) in m:
        matched[root[u]] += inst.weight(u, v)
    for r, comp in comps.items():
        total = sum((x[p] for p in comp), Fraction(0))
        if total != matched[r]:
            raise ComponentSumError(
                f"component {sorted(comp)} has x = {format_rational(total)}"
                f" but matched weight {format_rational(matched[r])}"
            )

    remaining: dict[str, set[str]] = {p: set() for p in inst.players}
    for (u, v) in m:
        remaining[u].add(v)
        remaining[v].add(u)
    live = dict(x)
    payoffs: PayoffMatrix = {}

    def drop(u: str, v: str) -> None:
        remaining[u].discard(v)
        remaining[v].discard(u)

    for (u, v) in reversed(closing):
        half = inst.weight(u, v) / 2
        payoffs[(u, v)] = payoffs[(v, u)] = half
        live[u] -= half
        live[v] -= half
        drop(u, v)

    # Peel the remaining forest at its smallest-index leaf. Degrees only fall, so a leaf
    # stays one until peeled: a heap of leaf indices (sorted here) skips peeled entries.
    leaves = [k for k, p in enumerate(inst.players) if len(remaining[p]) == 1]
    while leaves:
        i = inst.players[heapq.heappop(leaves)]
        if len(remaining[i]) != 1:
            continue
        (j,) = remaining[i]
        payoffs[(i, j)] = live[i]
        payoffs[(j, i)] = inst.weight(i, j) - live[i]
        live[j] -= inst.weight(i, j) - live[i]
        live[i] = Fraction(0)
        drop(i, j)
        if len(remaining[j]) == 1:
            heapq.heappush(leaves, inst.index(j))

    if total_payoff(inst, payoffs) != {p: x[p] for p in inst.players}:
        raise InternalError("decomposition row sums disagree with the allocation")
    return payoffs


def repair_negative(
    inst: Instance,
    matching: Iterable[tuple[str, str]],
    payoffs: PayoffMatrix,
    x: Mapping[str, Fraction],
) -> PayoffMatrix:
    """Shift signed payoffs along directed cycles until all are nonnegative.

    Arc u -> v exists when uv is matched and p(v, u) > 0; augmenting along a
    cycle through a negative entry raises it while preserving row sums. If
    the negative entry's endpoint cannot be reached, the unreachable side is
    a violating coalition and x was not in the core (CoreViolationError).
    """
    m = inst.canonical_edge_set(matching)
    p = dict(payoffs)

    def entries() -> list[tuple[str, str]]:
        out = []
        for (u, v) in m:
            out.append((u, v))
            out.append((v, u))
        out.sort(key=lambda t: (inst.index(t[0]), inst.index(t[1])))
        return out

    # Each round raises the first negative entry and zeroes a positive one;
    # the negative mass shrinks monotonically on a fixed rational grid, so
    # this generous cap only guards against implementation bugs.
    max_rounds = 10000 * (len(m) + 2) ** 2
    negative_count = None
    for _ in range(max_rounds):
        negative = [t for t in entries() if p.get(t, Fraction(0)) < 0]
        if negative_count is not None and len(negative) > negative_count:
            raise InternalError("repair increased the number of negative payoffs")
        negative_count = len(negative)
        if not negative:
            break
        i, j = negative[0]
        # p(j, i) = w - p(i, j) > 0, so the arc i -> j is present.
        arcs: dict[str, list[str]] = {q: [] for q in inst.players}
        for (u, v) in m:
            if p.get((v, u), Fraction(0)) > 0:
                arcs[u].append(v)
            if p.get((u, v), Fraction(0)) > 0:
                arcs[v].append(u)
        for q in arcs:
            arcs[q].sort(key=inst.index)

        parent: dict[str, str] = {j: ""}
        queue = [j]
        while queue:
            u = queue.pop(0)
            for v in arcs[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        if i not in parent:
            reached = set(parent)
            complement = [q for q in inst.players if q not in reached]
            raise CoreViolationError(_violation(inst, x, complement))

        cycle_arcs = [(i, j)]
        node = i
        while node != j:
            cycle_arcs.append((parent[node], node))
            node = parent[node]
        eps = min(p.get((v, u), Fraction(0)) for (u, v) in cycle_arcs)
        if eps <= 0:
            raise InternalError("repair cycle has no positive slack")
        for (u, v) in cycle_arcs:
            p[(u, v)] = p.get((u, v), Fraction(0)) + eps
            p[(v, u)] = p.get((v, u), Fraction(0)) - eps
    else:
        raise InternalError("repair did not terminate within its round bound")

    if total_payoff(inst, p) != {q: Fraction(x[q]) for q in inst.players}:
        raise InternalError("repair changed the row sums of the payoffs")
    if any(q < 0 for q in p.values()):
        raise InternalError("repair left a negative payoff")
    return p


def allocation_to_payoff(
    inst: Instance,
    x: Mapping[str, Fraction],
    matching: Iterable[tuple[str, str]],
) -> PayoffMatrix:
    """Express a core allocation as nonnegative payoffs on a maximum-weight
    b-matching: decomposition followed by repair. Row sums equal x exactly.
    """
    m = inst.canonical_edge_set(matching)
    if weight(inst, m) != lp_optimum(inst).weight:
        raise NotMaximumWeightError("matching is not maximum weight")
    signed = solve_payoff_system(inst, m, x)
    return repair_negative(inst, m, signed, x)
