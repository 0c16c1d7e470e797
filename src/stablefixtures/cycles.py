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
  capacity-2 players only). Each vertex and edge is modelled by a small
  matching gadget, so one minimum-weight perfect matching solves the whole
  system exactly. A negative optimum exhibits a violated path or cycle core
  constraint and a nonnegative optimum proves there is none.

All arithmetic is integer after a common-denominator scaling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import PreconditionError
from .rationals import common_denominator

Pair = tuple[str, str]


def _min_weight_perfect_matching(nodes: Sequence, weighted_edges) -> set[frozenset] | None:
    """Minimum-weight perfect matching with integer weights, or None."""
    if not nodes:
        return set()
    if len(nodes) % 2:
        return None
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
    scale = common_denominator(costs.values())
    cost = {e: int(c * scale) for e, c in costs.items()}
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
        assert matching is not None, "odd-degree terminals must pair up per component"
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
    raise AssertionError("negative even subgraph without a negative cycle")


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
    assert not unused
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
    vertices; cycles consist of capacity-2 vertices. The empty packing is
    always admissible, so the optimum is at most 0.

    Gadget: a capacity-2 vertex gets two partner slots, a balancer edge
    (degree 0), and a half-price helper that buys out the second slot when
    the vertex is a path endpoint; a capacity-1 vertex gets one full-price
    slot. Helpers freed by endpoints pair up in a zero-cost pool (endpoint
    count is even). Each edge is a 4-vertex chain whose middle carries -w(e)
    and is matched exactly when the edge is selected.
    """
    for v in vertices:
        if capacity[v] not in (1, 2):
            raise PreconditionError(f"vertex {v} must have capacity 1 or 2")

    scale = 2 * common_denominator(list(weights.values()) + list(x.values()))
    wx = {v: int(x[v] * scale) for v in vertices}
    ww = {e: int(w * scale) for e, w in weights.items()}

    import networkx as nx

    graph = nx.Graph()
    slot_edges: dict[tuple, list] = {}
    pool = []
    for v in vertices:
        if capacity[v] == 2:
            graph.add_edge(("slot", v, 1), ("slot", v, 2), weight=0)
            graph.add_edge(("helper", v), ("slot", v, 1), weight=wx[v] // 2)
            graph.add_edge(("helper", v), ("slot", v, 2), weight=wx[v] // 2)
            graph.add_edge(("helper", v), ("rest", v), weight=0)
            pool.append(("rest", v))
            slot_edges[v] = [(("slot", v, 1), wx[v] // 2), (("slot", v, 2), wx[v] // 2)]
        else:
            graph.add_edge(("slot", v, 1), ("rest", v), weight=0)
            pool.append(("rest", v))
            slot_edges[v] = [(("slot", v, 1), wx[v])]
    for k, a in enumerate(pool):
        for b in pool[k + 1 :]:
            graph.add_edge(a, b, weight=0)
    for (u, v) in ww:
        au, bu = ("outer", (u, v), u), ("inner", (u, v), u)
        av, bv = ("outer", (u, v), v), ("inner", (u, v), v)
        graph.add_edge(au, bu, weight=0)
        graph.add_edge(av, bv, weight=0)
        graph.add_edge(bu, bv, weight=-ww[(u, v)])
        for (slot, price) in slot_edges[u]:
            graph.add_edge(slot, au, weight=price)
        for (slot, price) in slot_edges[v]:
            graph.add_edge(slot, av, weight=price)

    mate = _min_weight_perfect_matching(
        list(graph.nodes), [(a, b, d["weight"]) for a, b, d in graph.edges(data=True)]
    )
    assert mate is not None, "the all-unused state is always a perfect matching"

    selected = [
        e
        for e in ww
        if frozenset((("inner", e, e[0]), ("inner", e, e[1]))) in mate
    ]
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
        assert len(comp_edges) in (len(comp_nodes), len(comp_nodes) - 1)
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
        assert nxt_ratio > ratio
        best, ratio = nxt, nxt_ratio
    raise AssertionError("ratio search failed to converge")


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
