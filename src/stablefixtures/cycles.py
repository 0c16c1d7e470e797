"""Exact path/cycle systems and negative-cycle detection on undirected graphs.

* `min_path_cycle_system` minimises sum over components of x(V(C)) - w(C)
  over subgraphs whose components are simple paths (endpoints anywhere,
  inner vertices restricted to capacity-2 players) and simple cycles (on
  capacity-2 players only), by one maximum-weight matching on the 2-vertex
  edge gadget (Shiloach 1981; Gabow 1983), which only edges between
  capacity-2 players need, computed by the exact integer blossom engine of
  `blossom`. A negative optimum exhibits a violated path or cycle core
  constraint and a nonnegative optimum proves there is none; this backs the
  polynomial core-membership test.

* `negative_cycle` decides whether an undirected graph with rational edge
  costs contains a simple cycle of negative total cost. Closed walks are not
  good enough here (walking an edge back and forth is not a cycle), so it is
  one path/cycle system on the same gadget, priced so that a cycle costs its
  edge costs and every path costs more than zero.

All arithmetic is integer after a common-denominator scaling, refused past
`rationals.MAX_SCALE_DIGITS` digits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import InternalError, PreconditionError
from .rationals import scale_to_integers

Pair = tuple[str, str]


# ---------------------------------------------------------------------------
# Minimum path/cycle system
# ---------------------------------------------------------------------------


class SystemComponent(NamedTuple):
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
    An edge uv between capacity-2 vertices has two mandatory ends joined at
    0 (unused), each joined to the slots of its player at w(uv)/2 minus the
    slot's price x/2; uv is selected iff its ends are not matched together.
    An edge with a capacity-1 end (one slot, price x) joins the slots of
    its ends directly at w(uv) minus both slot prices, what the two end
    edges would pay together; the one slot takes at most one of them, and
    uv is selected iff a slot of u is matched to a slot of v (Gabow 1983).
    A bonus B = 1 + sum |profit| per mandatory endpoint makes every optimum
    cover the mandatory vertices, as the all-unused state does.
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
    # The gadget edges that select each edge when matched.
    selects: dict[Pair, list[tuple[tuple, tuple]]] = {}
    for (u, v), w in ww.items():
        if capacity[u] == 2 and capacity[v] == 2:
            ends = {u: ("end", (u, v), u), v: ("end", (u, v), v)}
            mandatory |= set(ends.values())
            profits.append((ends[u], ends[v], 0))
            for p, end in ends.items():
                profits += [(end, slot, w // 2 - price) for (slot, price) in slots[p]]
            selects[(u, v)] = [(ends[u], slot) for (slot, _) in slots[u]]
        else:
            profits += [(a, b, w - pa - pb) for (a, pa) in slots[u] for (b, pb) in slots[v]]
            selects[(u, v)] = [(a, b) for (a, _) in slots[u] for (b, _) in slots[v]]

    from .blossom import max_weight_matching

    bonus = 1 + sum(abs(c) for (_, _, c) in profits)
    index: dict[tuple, int] = {}  # gadget node -> vertex number, in order of appearance
    gadget = [
        (index.setdefault(a, len(index)), index.setdefault(b, len(index)),
         c + bonus * ((a in mandatory) + (b in mandatory)))
        for (a, b, c) in profits
    ]
    mate = max_weight_matching(len(index), gadget)
    if any(mate[index[v]] == -1 for v in mandatory):
        raise InternalError("path/cycle gadget matching leaves a mandatory vertex uncovered")

    selected = [
        e for e, pairs in selects.items() if any(mate[index[a]] == index[b] for (a, b) in pairs)
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
# Negative simple cycles
# ---------------------------------------------------------------------------


def negative_cycle(
    vertices: Sequence[str], costs: Mapping[Pair, Fraction]
) -> list[Pair] | None:
    """A simple cycle with negative total cost, or None if none exists.

    Costs are arbitrary rationals on undirected edges keyed by vertex pairs.
    One path/cycle system with capacity 2 everywhere, x = K and
    w = K - cost for K = 1 + sum |cost|: a cycle C then costs exactly
    cost(C) and a path P costs K + cost(P) > 0, so the optimum is negative
    iff a negative cycle exists, and its most negative component is one.
    """
    big = 1 + sum((abs(c) for c in costs.values()), Fraction(0))
    total, components = min_path_cycle_system(
        vertices,
        dict.fromkeys(vertices, 2),
        {e: big - c for e, c in costs.items()},
        dict.fromkeys(vertices, big),
    )
    if total >= 0:
        return None
    if components[0].kind != "cycle":
        raise InternalError("negative path/cycle system whose worst component is a path")
    return list(components[0].edges)
