"""b-matchings, half-b-matchings, and the exact maximum-weight engines.

Two engines, both exact over rationals:

* the general-graph engine replaces every edge by a 2-vertex gadget between
  the copies of its ends (min(b, deg) copies per player), runs the exact
  integer blossom engine of `blossom` (imported only when this engine runs)
  on integer-scaled weights, and reads the b-matching off the gadgets;
* the bipartite engine runs successive shortest paths with vertex potentials
  on a small flow network, which additionally yields an optimal dual (y, d)
  of the degree-constrained LP, certified by weak duality.

The LP dual `DualSolution` and its feasibility and objective checks live
here too. `lp_optimum` is the front end for every question about a game's
optimum: one unperturbed pass gives the LP optimum and an optimal dual (on
the game itself when it is bipartite, whose LP is integral, and on the
bipartite double cover, `dual_from_duplicated`, otherwise), and the engine
then runs only on the dual's complementary-slack residual, or on the whole
game when that residual cannot reach the LP optimum.

Ties among optimal b-matchings are broken toward the lexicographically
smallest edge set under the instance's edge order, implemented by a weight
perturbation that is too small to disturb optimality.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import BoundExceededError, InputError, InternalError, NotBipartiteError
from .instance import Edge, Instance, _fresh_name
from .rationals import format_rational, parse_rational, scale_to_integers

BRUTE_FORCE_EDGE_BOUND = 22
HALF_BRUTE_FORCE_EDGE_BOUND = 12


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def is_b_matching(inst: Instance, edges: Iterable[tuple[str, str]]) -> bool:
    """True iff every player meets at most b(i) of the given edges."""
    deg: dict[str, int] = {}
    for (u, v) in set(inst.edge_key(a, b) for (a, b) in edges):
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(d <= inst.b(p) for p, d in deg.items())


def weight(inst: Instance, edges: Iterable[tuple[str, str]]) -> Fraction:
    """Total weight of an edge set."""
    return sum(
        (inst.weight(u, v) for (u, v) in set(inst.edge_key(a, b) for (a, b) in edges)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# Integer scaling and lexicographic tie-breaking
# ---------------------------------------------------------------------------


def _perturbed_int_weights(inst: Instance) -> dict[Edge, int]:
    """Scaled weights with a bonus of 2^(m-1-k) on the k-th edge.

    The bonuses sum to < 2^m while base gaps are multiples of 2^(m+1), so a
    perturbed optimum is an unperturbed optimum whose edge set is the
    greedy-lexicographically smallest one; in particular it is unique.
    """
    base, _ = scale_to_integers(inst.edge_weights())
    edges = inst.edges
    m = len(edges)
    shift = 1 << (m + 1)
    return {e: base[e] * shift + (1 << (m - 1 - k)) for k, e in enumerate(edges)}


# ---------------------------------------------------------------------------
# General-graph engine: 2-vertex edge gadgets + blossom matching
# ---------------------------------------------------------------------------


def max_weight_b_matching(inst: Instance) -> tuple[frozenset[Edge], Fraction]:
    """A maximum-weight b-matching and its exact weight.

    Bipartite instances go through the flow engine; general instances through
    the edge-gadget graph and an exact integer blossom matching.
    """
    if inst.m == 0:
        return frozenset(), Fraction(0)
    coloring = inst.two_coloring()
    if coloring is not None:
        matching, _ = _ssp_flow(inst, _perturbed_int_weights(inst), coloring)
    else:
        matching = _general_matching(inst)
    if not is_b_matching(inst, matching):
        raise InternalError("matching engine overfilled a player")
    return matching, weight(inst, matching)


def _general_matching(inst: Instance) -> frozenset[Edge]:
    """The tie-broken optimum through the 2-vertex edge gadget.

    Player i gets min(b(i), deg(i)) copies; edge ij gets an end vertex for
    i and one for j, joined to each other and to the copies of their
    players, all with the perturbed weight of ij. An optimum matches one or
    two edges of every gadget, and ij is selected iff two.
    """
    from .blossom import max_weight_matching

    perturbed = _perturbed_int_weights(inst)
    # Vertex numbers: player p's copies form copies[p]; the end vertices of
    # the k-th edge come after all copies, at ends + 2k and ends + 2k + 1.
    copies, ends = {}, 0
    for p in inst.players:
        copies[p] = range(ends, ends + min(inst.b(p), len(inst.neighbors(p))))
        ends = copies[p].stop
    gadget = []
    for k, ((i, j), w) in enumerate(perturbed.items()):
        end_i, end_j = ends + 2 * k, ends + 2 * k + 1
        gadget.append((end_i, end_j, w))
        for end, p in ((end_i, i), (end_j, j)):
            gadget += [(end, c, w) for c in copies[p]]

    mate = max_weight_matching(ends + 2 * len(perturbed), gadget)
    count = {}
    for k, e in enumerate(perturbed):
        end_i, end_j = ends + 2 * k, ends + 2 * k + 1
        # Matched gadget edges: 1 if e is unused, 2 if e is selected.
        count[e] = 1 if mate[end_i] == end_j else (mate[end_i] >= 0) + (mate[end_j] >= 0)
    if any(c not in (1, 2) for c in count.values()):
        raise InternalError(f"unexpected edge gadget states {sorted(set(count.values()))}")
    return frozenset(e for e, c in count.items() if c == 2)


# ---------------------------------------------------------------------------
# The LP dual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSolution:
    """Point (y, d) of the dual of the degree-constrained LP

        max sum w(ij) x(ij)   s.t.  sum_j x(ij) <= b(i),  0 <= x <= 1,

    whose constraints are y(i) + y(j) + d(ij) >= w(ij), y >= 0, d >= 0.
    """

    y: dict[str, Fraction]
    d: dict[Edge, Fraction]


@dataclass(frozen=True)
class DualFeasibility:
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
    edges = inst.edges
    missing_d = [e for e in edges if e not in d]
    if missing_d:
        raise InputError(f"dual vector missing edges {missing_d}")
    total = sum((Fraction(inst.b(p)) * dual.y[p] for p in inst.players), Fraction(0))
    return total + sum((d[e] for e in edges), Fraction(0))


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


def priced_dual(inst: Instance, y: Mapping[str, Fraction]) -> DualSolution:
    """The dual with prices y and the tightened d.

    Capacity-0 players (zero objective coefficient) are priced at their
    heaviest incident edge, so every such edge keeps zero slack.
    """
    y = dict(y)
    for p in inst.players:
        if inst.b(p) == 0:
            y[p] = max([Fraction(0)] + [inst.weight(p, q) for q in inst.neighbors(p)])
    return DualSolution(y=y, d=tighten_d(inst, y))


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def max_weight_b_matching_bruteforce(
    inst: Instance, max_edges: int = BRUTE_FORCE_EDGE_BOUND
) -> tuple[frozenset[Edge], Fraction]:
    """Exhaustive optimum by branching over every edge subset."""
    if inst.m > max_edges:
        raise BoundExceededError(f"{inst.m} edges exceed brute-force bound {max_edges}")
    edges = inst.edges
    weights = [inst.weight(u, v) for (u, v) in edges]
    order = sorted(range(len(edges)), key=lambda k: -weights[k])
    suffix = [Fraction(0)] * (len(edges) + 1)
    for pos in range(len(edges) - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + weights[order[pos]]
    caps = {p: inst.b(p) for p in inst.players}
    best_weight = Fraction(0)
    best_set: list[Edge] = []
    chosen: list[Edge] = []

    def recurse(pos: int, acc: Fraction) -> None:
        nonlocal best_weight, best_set
        if acc > best_weight:
            best_weight, best_set = acc, list(chosen)
        if pos == len(edges) or acc + suffix[pos] <= best_weight:
            return
        u, v = edges[order[pos]]
        if caps[u] > 0 and caps[v] > 0:
            caps[u] -= 1
            caps[v] -= 1
            chosen.append((u, v))
            recurse(pos + 1, acc + weights[order[pos]])
            chosen.pop()
            caps[u] += 1
            caps[v] += 1
        recurse(pos + 1, acc)

    recurse(0, Fraction(0))
    return frozenset(best_set), best_weight


# ---------------------------------------------------------------------------
# Half-b-matchings and the duplicated instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfBMatching:
    """An assignment of 0, 1/2, or 1 to every edge within the capacities."""

    values: dict[Edge, Fraction]

    def weight(self, inst: Instance) -> Fraction:
        return sum(
            (inst.weight(u, v) * f for (u, v), f in self.values.items()),
            Fraction(0),
        )


def is_half_b_matching(inst: Instance, values: Mapping[Edge, Fraction]) -> bool:
    load: dict[str, Fraction] = {p: Fraction(0) for p in inst.players}
    for (u, v), f in values.items():
        inst.edge_key(u, v)
        if f not in (Fraction(0), Fraction(1, 2), Fraction(1)):
            return False
        load[u] += f
        load[v] += f
    return all(load[p] <= inst.b(p) for p in inst.players)


@dataclass(frozen=True)
class DuplicatedInstance:
    """Bipartite double cover with half-weights.

    Each player i splits into left/right copies with capacity b(i); each edge
    ij becomes the two cross edges left(i)-right(j) and left(j)-right(i) of
    weight w(ij)/2. Its integral optimum equals the half-b-matching optimum
    of the original.
    """

    instance: Instance
    left: dict[str, str]
    right: dict[str, str]
    origin: dict[str, tuple[str, str]]


def duplicated_instance(inst: Instance) -> DuplicatedInstance:
    used: set[str] = set()
    players: list[str] = []
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    origin: dict[str, tuple[str, str]] = {}
    for i in inst.players:
        li = _fresh_name(used, i + "'")
        ri = _fresh_name(used, i + "''")
        left[i], right[i] = li, ri
        origin[li] = (i, "left")
        origin[ri] = (i, "right")
        players.extend((li, ri))
    capacity = {}
    for i in inst.players:
        capacity[left[i]] = inst.b(i)
        capacity[right[i]] = inst.b(i)
    edges = []
    for (i, j) in inst.edges:
        half = inst.weight(i, j) / 2
        edges.append((left[i], right[j], half))
        edges.append((left[j], right[i], half))
    dup = Instance(players, capacity, edges)
    if not dup.is_bipartite():
        raise InternalError("double cover is not bipartite")
    return DuplicatedInstance(dup, left, right, origin)


def max_half_b_matching_weight(inst: Instance) -> tuple[Fraction, HalfBMatching]:
    """Maximum weight over half-b-matchings, with the tie-broken witness.

    Computed as the maximum-weight b-matching of the duplicated instance
    (one perturbed pass on the double cover): f(ij) = (x(i'j'') + x(i''j')) / 2
    preserves the weight exactly. Callers that need only the value should use
    `bipartite_optimum_with_duals` on the cover, which skips the perturbation.
    """
    dup = duplicated_instance(inst)
    matching, dup_weight = max_weight_b_matching(dup.instance)
    values: dict[Edge, Fraction] = {}
    for (i, j) in inst.edges:
        hits = 0
        for (a, b) in ((dup.left[i], dup.right[j]), (dup.left[j], dup.right[i])):
            if dup.instance.edge_key(a, b) in matching:
                hits += 1
        values[(i, j)] = Fraction(hits, 2)
    witness = HalfBMatching(values)
    if not is_half_b_matching(inst, values) or witness.weight(inst) != dup_weight:
        raise InternalError(
            "double-cover matching does not fold to a half-b-matching of its weight"
        )
    return dup_weight, witness


def max_half_b_matching_bruteforce(
    inst: Instance, max_edges: int = HALF_BRUTE_FORCE_EDGE_BOUND
) -> Fraction:
    """Test oracle: enumerate all 3^m half-assignments."""
    if inst.m > max_edges:
        raise BoundExceededError(f"{inst.m} edges exceed half brute-force bound {max_edges}")
    edges = inst.edges
    load = {p: Fraction(0) for p in inst.players}
    best = Fraction(0)

    def recurse(pos: int, acc: Fraction) -> None:
        nonlocal best
        if pos == len(edges):
            best = max(best, acc)
            return
        u, v = edges[pos]
        w = inst.weight(u, v)
        for f in (Fraction(1), Fraction(1, 2), Fraction(0)):
            if load[u] + f <= inst.b(u) and load[v] + f <= inst.b(v):
                load[u] += f
                load[v] += f
                recurse(pos + 1, acc + w * f)
                load[u] -= f
                load[v] -= f

    recurse(0, Fraction(0))
    return best


# ---------------------------------------------------------------------------
# Bipartite engine: successive shortest paths with potentials
# ---------------------------------------------------------------------------


def bipartite_max_weight_b_matching_with_duals(
    inst: Instance,
) -> tuple[frozenset[Edge], DualSolution]:
    """The tie-broken maximum-weight b-matching of a bipartite instance and
    an optimal LP dual.

    The dual comes from `bipartite_optimum_with_duals`; the perturbed pass
    must reach its certified optimum, which makes the two complementary
    slack. Callers that need only the optimum weight and a dual should use
    `bipartite_optimum_with_duals` alone.
    """
    optimum, dual = bipartite_optimum_with_duals(inst)
    matching, value = max_weight_b_matching(inst)
    if value != optimum:
        raise InternalError(
            f"tie-broken bipartite matching weighs {format_rational(value)}, "
            f"optimum is {format_rational(optimum)}"
        )
    return matching, dual


def bipartite_optimum_with_duals(inst: Instance) -> tuple[Fraction, DualSolution]:
    """Maximum b-matching weight and an optimal LP dual of a bipartite
    instance, from one unperturbed pass.

    Certified by weak duality, also under `python -O`: the pass's matching
    is a b-matching, the dual read off its potentials is feasible, and the
    dual objective equals the matching's weight, so both are optimal.
    Raises InternalError otherwise. `priced_dual` tightens d, so d >= 0 and
    every edge constraint hold by construction and only y >= 0 is checked.
    """
    coloring = inst.two_coloring()
    if coloring is None:
        raise NotBipartiteError("instance is not bipartite")
    base, scale = scale_to_integers(inst.edge_weights())
    matching, raw_y = _ssp_flow(inst, base, coloring)
    dual = priced_dual(inst, {p: Fraction(q, scale) for p, q in raw_y.items()})
    if not is_b_matching(inst, matching):
        raise InternalError("bipartite engine overfilled a player")
    if any(q < 0 for q in dual.y.values()):
        raise InternalError("bipartite engine read off an infeasible dual")
    primal, objective = weight(inst, matching), dual_objective(inst, dual)
    if primal != objective:
        raise InternalError(
            f"duality gap in bipartite engine: primal {format_rational(primal)}, "
            f"dual {format_rational(objective)}"
        )
    return primal, dual


def _ssp_flow(
    inst: Instance, int_weights: dict[Edge, int], coloring: dict[str, int]
) -> tuple[frozenset[Edge], dict[str, int]]:
    """Max-weight flow via successive shortest paths; returns matching and
    integer dual prices.

    Arc costs are negated weights; augmentation stops when no residual
    source-sink path has negative true cost. Final potentials are capped so
    that the zero-gap dual can be read off them directly.

    Each Dijkstra stops once the sink is settled (Ahuja, Magnanti & Orlin,
    Network Flows, ch. 9). That leaves the path and the potentials as a full
    run would: every unsettled node has tentative distance >= dist[SNK], so
    an augmenting round raises it by the cut dist[SNK] either way, and the
    last round by its threshold <= dist[SNK]. A round that never reaches
    the sink settles every reachable node, as before. The negative-reduced-
    cost guard covers only the arcs scanned before the sink is settled; the
    weak-duality certificate of `bipartite_optimum_with_duals` remains the
    backstop for a wrong dual.
    """
    active = [p for p in inst.players if inst.b(p) > 0]
    ids = {p: k + 2 for k, p in enumerate(active)}
    SRC, SNK = 0, 1
    nnodes = len(active) + 2

    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(nnodes)]

    def add_arc(a: int, b: int, c: int, w: int) -> None:
        adj[a].append(len(to))
        to.append(b)
        cap.append(c)
        cost.append(w)
        adj[b].append(len(to))
        to.append(a)
        cap.append(0)
        cost.append(-w)

    edge_arc: dict[Edge, int] = {}
    for p in active:
        if coloring[p] == 0:
            add_arc(SRC, ids[p], inst.b(p), 0)
        else:
            add_arc(ids[p], SNK, inst.b(p), 0)
    for (u, v) in inst.edges:
        if inst.b(u) == 0 or inst.b(v) == 0:
            continue
        a, b = (u, v) if coloring[u] == 0 else (v, u)
        edge_arc[(u, v)] = len(to)
        add_arc(ids[a], ids[b], 1, -int_weights[(u, v)])

    INF = float("inf")
    # Initial potentials from one relaxation pass over the source-to-sink DAG.
    pi: list[float | int] = [0] * nnodes
    for p in active:
        if coloring[p] == 1:
            incident = [
                -int_weights[inst.edge_key(p, q)]
                for q in inst.neighbors(p)
                if inst.b(q) > 0
            ]
            pi[ids[p]] = min(incident) if incident else 0
    sink_in = [pi[ids[p]] for p in active if coloring[p] == 1]
    pi[SNK] = min(sink_in) if sink_in else 0

    while True:
        dist: list[float | int] = [INF] * nnodes
        parent: list[int] = [-1] * nnodes
        dist[SRC] = 0
        heap: list[tuple[int, int]] = [(0, SRC)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            if node == SNK:
                break
            for arc in adj[node]:
                if cap[arc] <= 0:
                    continue
                reduced = cost[arc] + pi[node] - pi[to[arc]]
                if reduced < 0:
                    raise InternalError("negative reduced cost in the SSP engine")
                nd = d + reduced
                if nd < dist[to[arc]]:
                    dist[to[arc]] = nd
                    parent[to[arc]] = arc
                    heapq.heappush(heap, (nd, to[arc]))
        if dist[SNK] is not INF and dist[SNK] + pi[SNK] < 0:
            # Augment one unit (edge arcs bound the bottleneck to 1).
            bottleneck = None
            node = SNK
            while node != SRC:
                arc = parent[node]
                bottleneck = cap[arc] if bottleneck is None else min(bottleneck, cap[arc])
                node = to[arc ^ 1]
            node = SNK
            while node != SRC:
                arc = parent[node]
                cap[arc] -= bottleneck
                cap[arc ^ 1] += bottleneck
                node = to[arc ^ 1]
            cut = dist[SNK]
            for k in range(nnodes):
                pi[k] += min(dist[k], cut) if dist[k] is not INF else cut
        else:
            threshold = max(0, -pi[SNK])
            for k in range(nnodes):
                d = dist[k] if dist[k] is not INF else threshold
                pi[k] += min(d, threshold)
            break

    matched = frozenset(e for e, arc in edge_arc.items() if cap[arc] == 0)
    prices: dict[str, int] = {}
    for p in active:
        if coloring[p] == 0:
            prices[p] = max(0, pi[ids[p]])
        else:
            prices[p] = max(0, -pi[ids[p]])
    for p in inst.players:
        prices.setdefault(p, 0)
    return matched, prices


# ---------------------------------------------------------------------------
# The dual-first front end
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class LPOptimum:
    """The tie-broken maximum-weight b-matching of a game and its weight,
    the LP (half-b-matching) optimum `half` and an optimal LP dual. The game
    has a stable solution iff weight == half."""

    matching: frozenset[Edge]
    weight: Fraction
    half: Fraction
    dual: DualSolution


def lp_optimum(inst: Instance) -> LPOptimum:
    """The game's tie-broken maximum-weight b-matching, read off an optimal
    LP dual where the dual settles it.

    Every LP optimum takes the edges with d > 0 (forced) and otherwise only
    tight edges (d = 0, y(u) + y(v) = w(uv)). So when the integral optimum
    reaches the LP optimum, the optimal b-matchings are exactly the forced
    edges plus a maximum-weight b-matching of the tight residual within the
    capacity they leave free, and the tie-break on the residual (same edge
    order) picks the same set as on the whole game. Otherwise the engine
    runs on the whole game, unless the residual already is the whole game
    (no forced edge, every edge between players with capacity tight).

    The LP optimum and dual come from one unperturbed pass: on G itself
    when G is bipartite, whose LP is integral, and on the double cover
    otherwise.
    """
    if inst.is_bipartite():
        half, dual = bipartite_optimum_with_duals(inst)
    else:
        half, dual = dual_from_duplicated(inst)
    forced = frozenset(e for e in inst.edges if dual.d[e] > 0)
    free = {p: inst.b(p) for p in inst.players}
    for (u, v) in forced:
        free[u] -= 1
        free[v] -= 1
    if any(c < 0 for c in free.values()):
        raise InternalError("forced edges of the optimal dual overfill a player")
    tight = [
        (u, v, inst.weight(u, v))
        for (u, v) in inst.edges
        if dual.d[(u, v)] == 0
        and free[u]
        and free[v]
        and dual.y[u] + dual.y[v] == inst.weight(u, v)
    ]
    chosen, residual_weight = max_weight_b_matching(Instance(inst.players, free, tight))
    matching, total = forced | chosen, weight(inst, forced) + residual_weight
    whole = not forced and len(tight) == sum(1 for (u, v) in inst.edges if inst.b(u) and inst.b(v))
    if total != half and not whole:
        matching, total = max_weight_b_matching(inst)
        if total == half:
            raise InternalError(
                "a b-matching attains the half optimum, but none is "
                "complementary-slack with the optimal dual"
            )
    if half < total:
        raise InternalError(
            f"half-b-matching optimum {format_rational(half)} below "
            f"b-matching optimum {format_rational(total)}"
        )
    if not is_b_matching(inst, matching):
        raise InternalError("forced and residual edges overfill a player")
    return LPOptimum(matching=matching, weight=total, half=half, dual=dual)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def matching_to_json(inst: Instance, matching: frozenset[Edge]) -> list:
    return [
        {"u": u, "v": v}
        for (u, v) in sorted(matching, key=lambda e: (inst.index(e[0]), inst.index(e[1])))
    ]


def half_matching_to_json(inst: Instance, half: HalfBMatching) -> list:
    return [
        {"u": u, "v": v, "value": format_rational(f)}
        for (u, v), f in sorted(
            half.values.items(), key=lambda kv: (inst.index(kv[0][0]), inst.index(kv[0][1]))
        )
    ]


def half_matching_from_json(inst: Instance, data) -> HalfBMatching:
    values = {}
    for item in data:
        key = inst.edge_key(item["u"], item["v"])
        values[key] = parse_rational(item["value"])
    return HalfBMatching(values)
