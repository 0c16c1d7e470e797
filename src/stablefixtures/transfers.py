"""The paper's constructs that carry solutions and payoffs elsewhere, kept
as library code that no CLI request loads: `rematch` and payoff
equivalence, the bipartite lattice and competitive prices, the transfer of
solutions through the unit-capacity expansion (one payoff per expanded
vertex, which has at most one matched edge), and the decomposition of a
core allocation into nonnegative payoffs.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping

from .core import CoreViolationError, _coalition_total, _violation
from .errors import ComponentSumError, InputError, InternalError, NotMaximumWeightError, PreconditionError
from .instance import Edge, Instance
from .matching import is_b_matching, lp_optimum, weight
from .rationals import format_rational, scale_to_integers
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


def allocation_to_payoff(
    inst: Instance,
    x: Mapping[str, Fraction],
    matching: Iterable[tuple[str, str]],
) -> PayoffMatrix:
    """Express a core allocation x as nonnegative payoffs on a maximum-weight
    b-matching M: row sums x, p(i, j) + p(j, i) = w(ij) on M, zero elsewhere.

    This is Gale's supply-demand problem (1957): each edge ij of M supplies
    w(ij) to its two ends and each player i absorbs x(i). It is solved as one
    max flow in integers over the common denominator of w and x: a greedy
    start, then shortest augmenting paths (Edmonds-Karp 1972) by one BFS from
    every edge with supply left, each path alternating edge -> end player ->
    an edge that pays that player. When no player who still wants is
    reached, the players reached form S with x(S) < w(M[S]) <= v(S), raised
    as a re-certified CoreViolationError.
    """
    total = _coalition_total(inst, x, inst.players)
    m = inst.canonical_edge_set(matching)
    if not is_b_matching(inst, m):
        raise PreconditionError("edge set is not a b-matching")
    matched = weight(inst, m)
    if matched != lp_optimum(inst).weight:
        raise NotMaximumWeightError("matching is not maximum weight")
    for p in inst.players:
        if x[p] < 0:
            raise CoreViolationError(_violation(inst, x, [p]))
    if total > matched:
        raise ComponentSumError(
            f"allocation total {format_rational(total)} exceeds the matched"
            f" weight {format_rational(matched)}"
        )

    edges = [e for e in inst.edges if e in m]
    scaled, scale = scale_to_integers(
        {**{e: inst.weight(*e) for e in edges}, **{p: x[p] for p in inst.players}}
    )
    left = [scaled[e] for e in edges]  # supply each edge has left
    want = {p: scaled[p] for p in inst.players}  # what each player still wants
    pay = [[0, 0] for _ in edges]  # pay[k][s]: edge k to its end s
    paying: dict[str, list[tuple[int, int]]] = {p: [] for p in inst.players}
    for k, e in enumerate(edges):
        for s, p in enumerate(e):
            paying[p].append((k, s))
            give = min(left[k], want[p])
            pay[k][s] += give
            left[k] -= give
            want[p] -= give

    while any(left):
        # came[k]: the player and its side in edge k that the BFS reached k
        # through (None for a source); reached[p]: the edge and side reaching p.
        came: dict[int, tuple[str, int] | None] = {k: None for k, q in enumerate(left) if q}
        reached: dict[str, tuple[int, int]] = {}
        queue = deque(came)
        target = None
        while queue and target is None:
            k = queue.popleft()
            for s, p in enumerate(edges[k]):
                if p in reached:
                    continue
                reached[p] = (k, s)
                if want[p]:
                    target = p
                    break
                for (f, t) in paying[p]:
                    if f not in came and pay[f][t]:
                        came[f] = (p, t)
                        queue.append(f)
        if target is None:
            raise CoreViolationError(_violation(inst, x, reached))

        steps, p = [], target
        while p is not None:
            k, s = reached[p]
            p, t = came[k] or (None, None)
            steps.append((k, s, t))
        source = steps[-1][0]
        delta = min(want[target], left[source], *(pay[k][t] for (k, _, t) in steps[:-1]))
        want[target] -= delta
        left[source] -= delta
        for (k, s, t) in steps:
            pay[k][s] += delta
            if t is not None:
                pay[k][t] -= delta

    payoffs: PayoffMatrix = {}
    for (u, v), (pu, pv) in zip(edges, pay):
        payoffs[(u, v)] = Fraction(pu, scale)
        payoffs[(v, u)] = Fraction(pv, scale)
    if total_payoff(inst, payoffs) != {p: x[p] for p in inst.players}:
        raise InternalError("decomposition row sums disagree with the allocation")
    if any(q < 0 for q in payoffs.values()):
        raise InternalError("decomposition left a negative payoff")
    return payoffs
