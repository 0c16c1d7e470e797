"""Exact negative-cycle detection and path/cycle systems on undirected graphs.

Two primitives back the polynomial core-membership test:

* `negative_cycle` decides whether an undirected graph with rational edge
  costs contains a simple cycle of negative total cost. Closed walks are not
  good enough here (walking an edge back and forth is not a cycle), so the
  test goes through the minimum even-degree subgraph: costs of the negative
  edge set E- plus a minimum join on the odd-degree vertices of E-, computed
  with Dijkstra and a minimum-weight perfect matching.

* `min_path_cycle_system` minimises sum over components of x(V(C)) - w(C)
  over subgraphs whose components are simple paths (endpoints anywhere,
  inner vertices restricted to capacity-2 players) and simple cycles (on
  capacity-2 players only), by one maximum-weight matching on the 2-vertex
  edge gadget (Shiloach 1981; Gabow 1983). A negative optimum exhibits a
  violated path or cycle core constraint and a nonnegative optimum proves
  there is none.

All arithmetic is integer after a common-denominator scaling, refused past
`rationals.MAX_SCALE_DIGITS` digits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalError, PreconditionError
from .rationals import scale_to_integers

Pair = tuple[str, str]


def _min_weight_perfect_matching(nodes: Sequence, weighted_edges) -> set[frozenset] | None:
    """Minimum-weight perfect matching with integer weights, or None."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    top = 0
    for (a, b, w) in weighted_edges:
        top = max(top, abs(w))
        graph.add_edge(a, b, weight=w)
    for (a, b) in graph.edges:
        graph[a][b]["weight"] = 3 * top + 1 - graph[a][b]["weight"]
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(mate) != len(nodes):
        return None
    return {frozenset(e) for e in mate}


# ---------------------------------------------------------------------------
# Negative simple cycles
# ---------------------------------------------------------------------------


def negative_cycle(
    vertices: Sequence[str], costs: Mapping[Pair, Fraction]
) -> list[Pair] | None:
    """A simple cycle with negative total cost, or None if none exists.

    Costs are arbitrary rationals on undirected edges keyed by vertex pairs.
    """
    cost, _ = scale_to_integers(costs)
    adj: dict[str, list[tuple[str, Pair]]] = {v: [] for v in vertices}
    for (u, v) in cost:
        adj[u].append((v, (u, v)))
        adj[v].append((u, (u, v)))

    negatives = [e for e, c in cost.items() if c < 0]
    if not negatives:
        return None
    odd: set[str] = set()
    for (u, v) in negatives:
        odd ^= {u}
        odd ^= {v}
    terminals = sorted(odd)

    join: set[Pair] = set()
    if terminals:
        dist: dict[str, dict[str, int]] = {}
        via: dict[str, dict[str, Pair]] = {}
        for t in terminals:
            dist[t], via[t] = _dijkstra(adj, cost, t)
        matching = _min_weight_perfect_matching(
            terminals,
            [
                (a, b, dist[a][b])
                for k, a in enumerate(terminals)
                for b in terminals[k + 1 :]
                if b in dist[a]
            ],
        )
        if matching is None:
            raise InternalError("odd-degree terminals must pair up per component")
        for pair in sorted(matching, key=sorted):
            a, b = sorted(pair)
            node = b
            while node != a:
                edge = via[a][node]
                join ^= {edge}
                node = edge[0] if edge[1] == node else edge[1]

    even_subgraph = set(negatives) ^ join
    total = sum(cost[e] for e in even_subgraph)
    if total >= 0:
        return None
    for cycle in _peel_cycles(even_subgraph):
        if sum(cost[e] for e in cycle) < 0:
            return cycle
    raise InternalError("negative even subgraph without a negative cycle")


def _dijkstra(adj, cost, source):
    """Shortest paths under |cost| with parent edges."""
    dist = {source: 0}
    via: dict[str, Pair] = {}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for (nxt, edge) in adj[node]:
            nd = d + abs(cost[edge])
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                via[nxt] = edge
                heapq.heappush(heap, (nd, nxt))
    return dist, via


def _peel_cycles(edges: set[Pair]) -> list[list[Pair]]:
    """Split an even-degree edge set into edge-disjoint simple cycles."""
    adj: dict[str, list[Pair]] = {}
    for (u, v) in sorted(edges):
        adj.setdefault(u, []).append((u, v))
        adj.setdefault(v, []).append((u, v))
    unused = set(edges)
    cycles: list[list[Pair]] = []
    for start in sorted(adj):
        while any(e in unused for e in adj[start]):
            stack_nodes = [start]
            stack_edges: list[Pair] = []
            pos = {start: 0}
            node = start
            while True:
                edge = next(e for e in adj[node] if e in unused)
                unused.discard(edge)
                nxt = edge[0] if edge[1] == node else edge[1]
                if nxt in pos:
                    k = pos[nxt]
                    cycles.append(stack_edges[k:] + [edge])
                    for dropped in stack_nodes[k + 1 :]:
                        del pos[dropped]
                    del stack_nodes[k + 1 :]
                    del stack_edges[k:]
                    node = nxt
                    if node == start and not any(e in unused for e in adj[node]):
                        break
                else:
                    pos[nxt] = len(stack_nodes)
                    stack_nodes.append(nxt)
                    stack_edges.append(edge)
                    node = nxt
    if unused:
        raise InternalError("even-degree edge set not split into cycles")
    return cycles


# ---------------------------------------------------------------------------
# Minimum path/cycle system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemComponent:
    kind: str  # "path" | "cycle"
    vertices: tuple[str, ...]
    edges: tuple[Pair, ...]
    cost: Fraction  # x(V) - w(edges)


def min_path_cycle_system(
    vertices: Sequence[str],
    capacity: Mapping[str, int],
    weights: Mapping[Pair, Fraction],
    x: Mapping[str, Fraction],
) -> tuple[Fraction, list[SystemComponent]]:
    """Minimise sum of x(V(C)) - w(C) over disjoint admissible path/cycle
    packings; returns the optimum and the components of a minimiser.

    Admissible: paths may end anywhere but pass only through capacity-2
    vertices; cycles consist of capacity-2 vertices. So a packing is an edge
    set F with deg_F <= capacity that pays x(v) at each vertex it touches.
    The empty packing is admissible, so the optimum is at most 0.

    Gadget: the 2-vertex edge gadget for degree-constrained subgraphs
    (Shiloach 1981; Gabow 1983) under one maximum-weight matching. A
    capacity-2 vertex v has two mandatory slots joined at profit 0 (degree
    0) and an optional helper at -x(v)/2 to each, which pays the second half
    of x(v) when v ends a path; a capacity-1 vertex has one optional slot.
    Edge uv has two mandatory ends joined at 0 (unused), each joined to the
    slots of its player at w(uv)/2 minus the slot's price: x/2 on a
    capacity-2 slot, x on a capacity-1 slot. uv is selected iff its ends
    are not matched together. A bonus B = 1 + sum |profit| per mandatory
    endpoint makes every optimum cover the mandatory vertices, as the
    all-unused state does.
    """
    for v in vertices:
        if capacity[v] not in (1, 2):
            raise PreconditionError(f"vertex {v} must have capacity 1 or 2")

    # Edge keys are pairs and vertex keys strings, so one mapping holds both.
    scaled, _ = scale_to_integers({**weights, **x})
    wx = {v: 2 * scaled[v] for v in vertices}
    ww = {e: 2 * scaled[e] for e in weights}

    slots: dict[str, list[tuple[tuple, int]]] = {}
    profits: list[tuple[tuple, tuple, int]] = []
    mandatory: set[tuple] = set()
    for v in vertices:
        if capacity[v] == 2:
            s1, s2, helper = ("slot", v, 1), ("slot", v, 2), ("helper", v)
            mandatory |= {s1, s2}
            profits += [(s1, s2, 0), (helper, s1, -(wx[v] // 2)), (helper, s2, -(wx[v] // 2))]
            slots[v] = [(s1, wx[v] // 2), (s2, wx[v] // 2)]
        else:
            slots[v] = [(("slot", v, 1), wx[v])]
    for (u, v), w in ww.items():
        ends = {u: ("end", (u, v), u), v: ("end", (u, v), v)}
        mandatory |= set(ends.values())
        profits.append((ends[u], ends[v], 0))
        for p, end in ends.items():
            profits += [(end, slot, w // 2 - price) for (slot, price) in slots[p]]

    import networkx as nx

    bonus = 1 + sum(abs(c) for (_, _, c) in profits)
    graph = nx.Graph()
    for (a, b, c) in profits:
        graph.add_edge(a, b, weight=c + bonus * ((a in mandatory) + (b in mandatory)))
    mate: dict[tuple, tuple] = {}
    for (a, b) in nx.max_weight_matching(graph):
        mate[a], mate[b] = b, a
    if not mandatory <= mate.keys():
        raise InternalError("path/cycle gadget matching leaves a mandatory vertex uncovered")

    selected = [e for e in ww if mate[("end", e, e[0])] != ("end", e, e[1])]
    components = _split_components(selected, x, weights)
    total = sum((c.cost for c in components), Fraction(0))
    return total, components


def _split_components(selected, x, weights) -> list[SystemComponent]:
    adj: dict[str, list[Pair]] = {}
    for (u, v) in selected:
        adj.setdefault(u, []).append((u, v))
        adj.setdefault(v, []).append((u, v))
    seen: set[str] = set()
    out: list[SystemComponent] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp_nodes = {start}
        queue = [start]
        while queue:
            node = queue.pop()
            for (a, b) in adj[node]:
                for nxt in (a, b):
                    if nxt not in comp_nodes:
                        comp_nodes.add(nxt)
                        queue.append(nxt)
        seen |= comp_nodes
        comp_edges = sorted({e for v in comp_nodes for e in adj[v]})
        kind = "cycle" if len(comp_edges) == len(comp_nodes) else "path"
        if len(comp_edges) not in (len(comp_nodes), len(comp_nodes) - 1):
            raise InternalError(f"component at {start} is neither a path nor a cycle")
        cost = sum((x[v] for v in comp_nodes), Fraction(0)) - sum(
            (weights[e] for e in comp_edges), Fraction(0)
        )
        out.append(
            SystemComponent(
                kind=kind,
                vertices=tuple(sorted(comp_nodes)),
                edges=tuple(comp_edges),
                cost=cost,
            )
        )
    out.sort(key=lambda c: (c.cost, c.vertices))
    return out


# ---------------------------------------------------------------------------
# Ratio diagnostics
# ---------------------------------------------------------------------------


def max_profit_cost_ratio(
    vertices: Sequence[str],
    profit: Mapping[Pair, Fraction],
    cost: Mapping[Pair, Fraction],
) -> tuple[Fraction | None, list[Pair] | None]:
    """Maximum profit(C)/cost(C) over simple cycles (diagnostics).

    Returns (None, None) when the graph is acyclic and (None, cycle) when a
    zero-cost positive-profit cycle makes the ratio unbounded. Costs must be
    nonnegative. Iterates discrete Newton steps: while some cycle is negative
    under lambda * cost - profit, raise lambda to that cycle's ratio.
    """
    for e, c in cost.items():
        if c < 0:
            raise PreconditionError(f"negative cost on {e}")

    zero_cost = {e for e, c in cost.items() if c == 0}
    for (u, v) in sorted(zero_cost):
        if profit[(u, v)] <= 0:
            continue
        path = _connecting_path(zero_cost - {(u, v)}, u, v)
        if path is not None:
            return None, path + [(u, v)]

    start = _any_cycle(vertices, list(cost))
    if start is None:
        return None, None
    best = start
    if sum((cost[e] for e in start), Fraction(0)) == 0:
        # Zero-cost cycles with positive profit were handled above, so this
        # one also has zero profit; start the search at ratio 0.
        ratio = Fraction(0)
    else:
        ratio = _cycle_ratio(start, profit, cost)
    for _ in range(100000):
        lam_cost = {e: ratio * cost[e] - profit[e] for e in cost}
        nxt = negative_cycle(vertices, lam_cost)
        if nxt is None:
            return ratio, best
        # An improving cycle has positive total cost: zero-cost cycles with
        # positive profit cannot reach this point.
        nxt_ratio = _cycle_ratio(nxt, profit, cost)
        if nxt_ratio <= ratio:
            raise InternalError("Newton step did not raise the cycle ratio")
        best, ratio = nxt, nxt_ratio
    raise InternalError("ratio search failed to converge")


def _cycle_ratio(cycle, profit, cost) -> Fraction:
    p = sum((profit[e] for e in cycle), Fraction(0))
    c = sum((cost[e] for e in cycle), Fraction(0))
    if c == 0:
        raise PreconditionError("cycle with zero total cost has no finite ratio")
    return p / c


def _connecting_path(edges: set[Pair], a: str, b: str) -> list[Pair] | None:
    adj: dict[str, list[Pair]] = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append((u, v))
        adj.setdefault(v, []).append((u, v))
    parent: dict[str, Pair] = {}
    seen = {a}
    queue = [a]
    while queue:
        node = queue.pop(0)
        for e in adj.get(node, []):
            nxt = e[0] if e[1] == node else e[1]
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = e
                queue.append(nxt)
    if b not in seen:
        return None
    path = []
    node = b
    while node != a:
        e = parent[node]
        path.append(e)
        node = e[0] if e[1] == node else e[1]
    return path


def _any_cycle(vertices, edges) -> list[Pair] | None:
    for k, (u, v) in enumerate(sorted(edges)):
        rest = set(edges) - {(u, v)}
        path = _connecting_path(rest, u, v)
        if path is not None:
            return path + [(u, v)]
    return None
