"""Core allocations: decomposition into payoffs and membership tests.

The coalition value v(S) is the maximum b-matching weight inside G[S]. An
allocation x (with x(N) = v(N)) is in the core when x(S) >= v(S) for every
coalition. For capacities at most 2 a maximum b-matching inside any
coalition splits into paths and cycles, so membership reduces to
nonnegativity of singletons plus the path/cycle constraints checked by the
exact detectors in `cycles`. Every violation verdict is re-certified against
the matching engine before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import cycles
from .errors import (
    BoundExceededError,
    CapacityTooLargeError,
    ComponentSumError,
    InputError,
    InternalError,
    NotMaximumWeightError,
    PreconditionError,
)
from .instance import Edge, Instance, induced
from .matching import is_b_matching, lp_optimum, max_weight_b_matching_bruteforce, weight
from .rationals import format_rational
from .stability import PayoffMatrix, total_payoff

CORE_BRUTE_FORCE_PLAYER_BOUND = 16


def game_value(inst: Instance, coalition: Iterable[str]) -> Fraction:
    """v(S): maximum-weight b-matching value of the induced subgame."""
    return game_value_with_witness(inst, coalition)[0]


def game_value_with_witness(
    inst: Instance, coalition: Iterable[str]
) -> tuple[Fraction, frozenset[Edge]]:
    opt = lp_optimum(induced(inst, coalition))
    return opt.weight, opt.matching


def is_allocation(inst: Instance, x: Mapping[str, Fraction]) -> bool:
    """Exact test of x(N) = v(N)."""
    total = _coalition_total(inst, x, inst.players)
    return total == game_value(inst, inst.players)


def _coalition_total(inst: Instance, x: Mapping[str, Fraction], coalition) -> Fraction:
    missing = [p for p in coalition if p not in x]
    if missing:
        raise InputError(f"allocation missing players {missing}")
    return sum((x[p] for p in coalition), Fraction(0))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreVerdict:
    """InCore, a self-certified Violation, or NotAllocation.

    NotAllocation covers x(N) > v(N): the efficiency equality fails but no
    coalition certificate exists. x(N) < v(N) is a Violation by N itself.
    """

    kind: str  # "in_core" | "violation" | "not_allocation"
    coalition: tuple[str, ...] | None = None
    coalition_total: Fraction | None = None
    coalition_value: Fraction | None = None
    deficit: Fraction | None = None
    witness_matching: frozenset[Edge] | None = None
    grand_total: Fraction | None = None
    grand_value: Fraction | None = None

    @property
    def in_core(self) -> bool:
        return self.kind == "in_core"


def _violation(inst: Instance, x: Mapping[str, Fraction], coalition) -> CoreVerdict:
    """Build a Violation verdict, re-verifying x(S) < v(S) with the engine."""
    wanted = set(coalition)
    members = tuple(p for p in inst.players if p in wanted)
    value, witness = game_value_with_witness(inst, members)
    total = _coalition_total(inst, x, members)
    if not total < value:
        raise InternalError(f"claimed violation by {list(members)} fails certification")
    return CoreVerdict(
        kind="violation",
        coalition=members,
        coalition_total=total,
        coalition_value=value,
        deficit=value - total,
        witness_matching=witness,
    )


class CoreViolationError(PreconditionError):
    """Raised by the decomposition pipeline when x turns out not to be in
    the core; carries the discovered verdict."""

    def __init__(self, verdict: CoreVerdict):
        self.verdict = verdict
        super().__init__(
            f"allocation violated by coalition {list(verdict.coalition)}"
            f" (deficit {format_rational(verdict.deficit)})"
        )


# ---------------------------------------------------------------------------
# Allocation -> payoff decomposition
# ---------------------------------------------------------------------------


def solve_payoff_system(
    inst: Instance,
    matching: Iterable[tuple[str, str]],
    x: Mapping[str, Fraction],
) -> PayoffMatrix:
    """Signed payoffs on M* with exact row sums x.

    Requires x to sum to the matched weight on every connected component of
    M* and to vanish on uncovered players. Cycles are broken by paying half
    the weight of one edge to each side; trees are peeled leaf by leaf,
    always at the smallest-index leaf.
    """
    m = inst.canonical_edge_set(matching)
    if not is_b_matching(inst, m):
        raise PreconditionError("edge set is not a b-matching")
    _coalition_total(inst, x, inst.players)

    adj: dict[str, set[str]] = {p: set() for p in inst.players}
    for (u, v) in sorted(m, key=lambda e: (inst.index(e[0]), inst.index(e[1]))):
        adj[u].add(v)
        adj[v].add(u)
    covered = {p for p in inst.players if adj[p]}
    for p in inst.players:
        if p not in covered and x[p] != 0:
            raise ComponentSumError(
                f"player {p} is uncovered by the matching but has x({p}) = "
                f"{format_rational(x[p])}"
            )
    for comp in _matching_components(inst, adj):
        total = sum((x[p] for p in comp), Fraction(0))
        wsum = sum(
            (inst.weight(u, v) for (u, v) in m if u in comp and v in comp), Fraction(0)
        )
        if total != wsum:
            raise ComponentSumError(
                f"component {sorted(comp)} has x = {format_rational(total)}"
                f" but matched weight {format_rational(wsum)}"
            )

    remaining = {p: set(s) for p, s in adj.items()}
    live = dict(x)
    payoffs: PayoffMatrix = {}

    def drop(u: str, v: str) -> None:
        remaining[u].discard(v)
        remaining[v].discard(u)

    # Break every cycle: pay half the weight of its smallest edge to each end.
    while True:
        cycle_edge = _find_cycle_edge(inst, remaining)
        if cycle_edge is None:
            break
        u, v = cycle_edge
        half = inst.weight(u, v) / 2
        payoffs[(u, v)] = payoffs[(v, u)] = half
        live[u] -= half
        live[v] -= half
        drop(u, v)

    # Peel the remaining forest at its smallest-index leaf.
    while True:
        leaves = sorted(
            (p for p in inst.players if len(remaining[p]) == 1), key=inst.index
        )
        if not leaves:
            break
        i = leaves[0]
        j = min(remaining[i], key=inst.index)
        payoffs[(i, j)] = live[i]
        payoffs[(j, i)] = inst.weight(i, j) - live[i]
        live[j] -= inst.weight(i, j) - live[i]
        live[i] = Fraction(0)
        drop(i, j)

    if total_payoff(inst, payoffs) != {p: x[p] for p in inst.players}:
        raise InternalError("decomposition row sums disagree with the allocation")
    return payoffs


def _matching_components(inst, adj) -> list[set[str]]:
    seen: set[str] = set()
    comps = []
    for start in inst.players:
        if start in seen or not adj[start]:
            continue
        comp = {start}
        queue = [start]
        seen.add(start)
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def _find_cycle_edge(inst, remaining) -> Edge | None:
    """Smallest canonical edge lying on some cycle of the matching graph."""
    visited: set[str] = set()
    best: Edge | None = None
    for root in inst.players:
        if root in visited or not remaining[root]:
            continue
        parent: dict[str, str] = {root: ""}
        order = [root]
        visited.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in sorted(remaining[u], key=inst.index):
                if v not in parent:
                    parent[v] = u
                    visited.add(v)
                    order.append(v)
                    stack.append(v)
                elif parent[u] != v:
                    # Non-tree edge: the cycle through it exists; candidates
                    # are this edge and the tree path edges, but the smallest
                    # canonical edge on the cycle is enough for determinism.
                    cyc = _cycle_edges(inst, parent, u, v)
                    cand = min(cyc, key=lambda e: (inst.index(e[0]), inst.index(e[1])))
                    if best is None or (inst.index(cand[0]), inst.index(cand[1])) < (
                        inst.index(best[0]),
                        inst.index(best[1]),
                    ):
                        best = cand
    return best


def _cycle_edges(inst, parent, u, v) -> list[Edge]:
    anc_u = [u]
    node = u
    while parent[node]:
        node = parent[node]
        anc_u.append(node)
    anc_v = [v]
    node = v
    while parent[node]:
        node = parent[node]
        anc_v.append(node)
    common = set(anc_u) & set(anc_v)
    edges = [inst.edge_key(u, v)]
    for chain in (anc_u, anc_v):
        for node in chain:
            if node in common:
                break
            edges.append(inst.edge_key(node, parent[node]))
    return edges


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


# ---------------------------------------------------------------------------
# Membership: capacities at most 2
# ---------------------------------------------------------------------------


def core_membership_b2(inst: Instance, x: Mapping[str, Fraction]) -> CoreVerdict:
    """Polynomial core membership for b <= 2 with violation certificates.

    Stages: singletons x(i) >= 0; efficiency x(N) = v(N); capacity-0
    players forced to zero and dropped; then the exact minimum path/cycle
    system, which covers the cycles among capacity-2 players. Any violating
    component is returned as its coalition after engine re-certification.
    """
    heavy = [p for p in inst.players if inst.b(p) > 2]
    if heavy:
        raise CapacityTooLargeError(f"players with b > 2: {heavy}")
    grand_total = _coalition_total(inst, x, inst.players)

    for p in inst.players:
        if x[p] < 0:
            return _violation(inst, x, [p])

    grand_value = game_value(inst, inst.players)
    if grand_total < grand_value:
        return _violation(inst, x, inst.players)
    efficient = grand_total == grand_value

    zero_cap = [p for p in inst.players if inst.b(p) == 0]
    if efficient:
        for p in zero_cap:
            if x[p] > 0:
                # v is unchanged without p, so the rest is shortchanged.
                return _violation(inst, x, [q for q in inst.players if q != p])
    work = induced(inst, [p for p in inst.players if inst.b(p) > 0])

    verdict = _b2_constraint_search(work, x)
    if verdict is not None:
        return _violation(inst, x, verdict)

    if not efficient:
        return CoreVerdict(
            kind="not_allocation", grand_total=grand_total, grand_value=grand_value
        )
    return CoreVerdict(kind="in_core")


def _b2_constraint_search(inst: Instance, x) -> tuple[str, ...] | None:
    """First violated path/cycle coalition among b in {1, 2} players.

    The systems admit every cycle of capacity-2 players at its cost
    x(V(C)) - w(C), so a negative cycle makes the optimum negative too.
    """
    total, components = cycles.min_path_cycle_system(
        inst.players,
        {p: inst.b(p) for p in inst.players},
        inst.edge_weights(),
        {p: x[p] for p in inst.players},
    )
    if total < 0:
        worst = components[0]
        if worst.cost >= 0:
            raise InternalError("negative path/cycle system has no negative component")
        return tuple(sorted(worst.vertices, key=inst.index))
    return None


# ---------------------------------------------------------------------------
# Membership: exhaustive oracle
# ---------------------------------------------------------------------------


def core_membership_bruteforce(
    inst: Instance,
    x: Mapping[str, Fraction],
    max_players: int = CORE_BRUTE_FORCE_PLAYER_BOUND,
) -> CoreVerdict:
    """Enumerate every nonempty coalition; exact but exponential.

    Coalition values come from the brute-force matching oracle, keeping this
    path fully independent of the main engines (violations are still
    re-certified against the engine before being returned).
    """
    if inst.n > max_players:
        raise BoundExceededError(
            f"{inst.n} players exceed the brute-force bound {max_players}"
        )
    _coalition_total(inst, x, inst.players)
    players = inst.players
    for mask in range(1, 1 << inst.n):
        coalition = [players[k] for k in range(inst.n) if mask >> k & 1]
        sub = induced(inst, coalition)
        _, value = max_weight_b_matching_bruteforce(sub)
        if _coalition_total(inst, x, coalition) < value:
            return _violation(inst, x, coalition)
    grand_total = _coalition_total(inst, x, players)
    _, grand_value = max_weight_b_matching_bruteforce(inst)
    if grand_total != grand_value:
        return CoreVerdict(
            kind="not_allocation", grand_total=grand_total, grand_value=grand_value
        )
    return CoreVerdict(kind="in_core")


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def verdict_to_json(inst: Instance, verdict: CoreVerdict) -> dict:
    from .matching import matching_to_json

    if verdict.kind == "in_core":
        return {"verdict": "in_core"}
    if verdict.kind == "not_allocation":
        return {
            "verdict": "not_allocation",
            "total": format_rational(verdict.grand_total),
            "grand_coalition_value": format_rational(verdict.grand_value),
        }
    return {
        "verdict": "violation",
        "coalition": list(verdict.coalition),
        "coalition_total": format_rational(verdict.coalition_total),
        "coalition_value": format_rational(verdict.coalition_value),
        "deficit": format_rational(verdict.deficit),
        "witness_matching": matching_to_json(inst, verdict.witness_matching),
    }
