"""b-matchings, half-b-matchings, and the exact maximum-weight engines.

Two engines, both exact over rationals:

* the general-graph engine replaces every edge by a 2-vertex gadget between
  the copies of its ends (min(b, deg) copies per player), runs a blossom-style
  primal-dual matching solver (networkx, imported only when this engine runs)
  on integer-scaled weights, and reads the b-matching off the gadgets;
* the bipartite engine runs successive shortest paths with vertex potentials
  on a small flow network, which additionally yields an optimal LP dual
  certificate (potentials + slacks).

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

from .errors import (
    BoundExceededError,
    InternalError,
    NotBipartiteError,
    PreconditionError,
    UnknownEdgeError,
)
from .instance import Edge, Instance, _fresh_name
from .rationals import (
    MAX_SCALE_DIGITS,
    common_denominator,
    format_rational,
    parse_rational,
)

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


def _int_weights(inst: Instance) -> tuple[dict[Edge, int], int]:
    """Weights times their common denominator, and that denominator.

    Raises PreconditionError when the denominator exceeds MAX_SCALE_DIGITS,
    before any engine spends time on the scaled weights.
    """
    scale = common_denominator(inst.edge_weights().values())
    if scale >= 10**MAX_SCALE_DIGITS:
        raise PreconditionError(
            f"common denominator of the weights exceeds {MAX_SCALE_DIGITS} digits"
        )
    return {e: int(w * scale) for e, w in inst.edge_weights().items()}, scale


def _perturbed_int_weights(inst: Instance) -> dict[Edge, int]:
    """Scaled weights with a bonus of 2^(m-1-k) on the k-th edge.

    The bonuses sum to < 2^m while base gaps are multiples of 2^(m+1), so a
    perturbed optimum is an unperturbed optimum whose edge set is the
    greedy-lexicographically smallest one; in particular it is unique.
    """
    base, _ = _int_weights(inst)
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
        matching = _bipartite_matching(inst, _perturbed_int_weights(inst), coloring)
    else:
        matching = _general_matching(inst)
    if not is_b_matching(inst, matching):
        raise InternalError("matching engine overfilled a player")
    return matching, weight(inst, matching)


def _general_matching(inst: Instance) -> frozenset[Edge]:
    """The tie-broken optimum through the 2-vertex edge gadget.

    Player i gets copies (i, 0), ..., (i, min(b(i), deg(i)) - 1); edge ij
    gets end vertices (i, ij) and (j, ij), joined to each other and to the
    copies of their players, all with the perturbed weight of ij. An optimum
    matches one or two edges of every gadget, and ij is selected iff two.
    """
    import networkx as nx

    perturbed = _perturbed_int_weights(inst)
    copies = {p: min(inst.b(p), len(inst.neighbors(p))) for p in inst.players}
    graph = nx.Graph()
    for (i, j), w in perturbed.items():
        end_i, end_j = (i, (i, j)), (j, (i, j))
        graph.add_edge(end_i, end_j, weight=w)
        for end, p in ((end_i, i), (end_j, j)):
            for s in range(copies[p]):
                graph.add_edge(end, (p, s), weight=w)

    count = dict.fromkeys(perturbed, 0)
    for (a, b) in nx.max_weight_matching(graph):
        # Copies are (player, int); every gadget edge has an end vertex.
        count[a[1] if isinstance(a[1], tuple) else b[1]] += 1
    if any(c not in (1, 2) for c in count.values()):
        raise InternalError(f"unexpected edge gadget states {sorted(set(count.values()))}")
    return frozenset(e for e, c in count.items() if c == 2)


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


@dataclass(frozen=True)
class BipartiteDualCertificate:
    """Optimal dual of the degree-constrained LP on a bipartite instance.

    potentials[i] + potentials[j] + slacks[ij] >= w(ij) on every edge, with
    complementary slackness against the companion matching.
    """

    potentials: dict[str, Fraction]
    slacks: dict[Edge, Fraction]


def bipartite_max_weight_b_matching_with_duals(
    inst: Instance,
) -> tuple[frozenset[Edge], BipartiteDualCertificate]:
    """Exact primal/dual pair for a bipartite instance.

    Runs two integer-exact passes: the perturbed pass yields the returned
    tie-broken matching, and one unperturbed pass yields the certificate,
    which is checked against the returned matching. Callers that need only
    the optimum weight and a dual should use `bipartite_optimum_with_duals`,
    which runs the unperturbed pass alone.
    """
    coloring = _require_coloring(inst)
    matching = _bipartite_matching(inst, _perturbed_int_weights(inst), coloring)
    _, cert = _plain_pass(inst, coloring)
    _verify_certificate(inst, matching, cert)
    return matching, cert


def bipartite_optimum_with_duals(
    inst: Instance,
) -> tuple[Fraction, BipartiteDualCertificate]:
    """Maximum b-matching weight and an optimal LP dual of a bipartite
    instance, from one unperturbed pass.

    The certificate is checked against the pass's own matching: complementary
    slackness holds between any optimal primal and any optimal dual, so the
    check certifies both the weight and the dual without a tie-broken pass.
    """
    coloring = _require_coloring(inst)
    matching, cert = _plain_pass(inst, coloring)
    return _verify_certificate(inst, matching, cert), cert


def _require_coloring(inst: Instance) -> dict[str, int]:
    coloring = inst.two_coloring()
    if coloring is None:
        raise NotBipartiteError("instance is not bipartite")
    return coloring


def _plain_pass(
    inst: Instance, coloring: dict[str, int]
) -> tuple[frozenset[Edge], BipartiteDualCertificate]:
    """An unperturbed optimum and the dual read off its potentials."""
    base, scale = _int_weights(inst)
    matching, raw_y = _ssp_flow(inst, base, coloring)
    y = {p: Fraction(q, scale) for p, q in raw_y.items()}
    for p in inst.players:
        # Capacity-0 players never match; price them high enough to cover
        # their edges so every such edge can take zero slack.
        if inst.b(p) == 0:
            y[p] = max(
                [Fraction(0)] + [inst.weight(p, q) for q in inst.neighbors(p)]
            )
    slacks: dict[Edge, Fraction] = {}
    for (u, v) in inst.edges:
        gap = inst.weight(u, v) - y[u] - y[v]
        slacks[(u, v)] = gap if gap > 0 else Fraction(0)
    return matching, BipartiteDualCertificate(potentials=y, slacks=slacks)


def _verify_certificate(
    inst: Instance, matching: frozenset[Edge], cert: BipartiteDualCertificate
) -> Fraction:
    """Check dual feasibility, zero duality gap and complementary slackness
    between `matching` and `cert`; return the certified optimum.

    Raises InternalError on any failure, also under `python -O`.
    """
    y, slacks = cert.potentials, cert.slacks
    deg: dict[str, int] = {p: 0 for p in inst.players}
    for (u, v) in matching:
        deg[u] += 1
        deg[v] += 1
    primal = weight(inst, matching)
    dual = sum((Fraction(inst.b(p)) * y[p] for p in inst.players), Fraction(0))
    dual += sum(slacks.values(), Fraction(0))
    if primal != dual:
        raise InternalError(
            f"duality gap in bipartite engine: primal {format_rational(primal)}, "
            f"dual {format_rational(dual)}"
        )
    for p in inst.players:
        if y[p] < 0:
            raise InternalError(f"negative price {format_rational(y[p])} on {p}")
        if deg[p] != inst.b(p) and y[p] != 0:
            raise InternalError(f"unsaturated {p} has price {format_rational(y[p])}")
    for (u, v) in inst.edges:
        tight = y[u] + y[v] + slacks[(u, v)]
        if tight < inst.weight(u, v):
            raise InternalError(f"dual constraint of {u}-{v} violated")
        if (u, v) in matching:
            if tight != inst.weight(u, v):
                raise InternalError(f"matched edge {u}-{v} is not tight")
        elif slacks[(u, v)] != 0:
            raise InternalError(f"unmatched edge {u}-{v} has slack")
    return primal


def _bipartite_matching(
    inst: Instance, int_weights: dict[Edge, int], coloring: dict[str, int]
) -> frozenset[Edge]:
    matching, _ = _ssp_flow(inst, int_weights, coloring)
    return matching


def _ssp_flow(
    inst: Instance, int_weights: dict[Edge, int], coloring: dict[str, int]
) -> tuple[frozenset[Edge], dict[str, int]]:
    """Max-weight flow via successive shortest paths; returns matching and
    integer dual prices.

    Arc costs are negated weights; augmentation stops when no residual
    source-sink path has negative true cost. Final potentials are capped so
    that the zero-gap dual can be read off them directly.
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
# JSON wire formats
# ---------------------------------------------------------------------------


def matching_to_json(inst: Instance, matching: frozenset[Edge]) -> list:
    return [
        {"u": u, "v": v}
        for (u, v) in sorted(matching, key=lambda e: (inst.index(e[0]), inst.index(e[1])))
    ]


def matching_from_json(inst: Instance, data) -> frozenset[Edge]:
    try:
        pairs = [(item["u"], item["v"]) for item in data]
    except (KeyError, TypeError) as exc:
        raise UnknownEdgeError(f"bad matching JSON: {exc!r}") from None
    return inst.canonical_edge_set(pairs)


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
