"""Exact path/cycle systems and negative-cycle detection on undirected graphs.

* `min_path_cycle_system` minimises sum over components of x(V(C)) - w(C)
  over subgraphs whose components are simple paths (endpoints anywhere,
  inner vertices restricted to capacity-2 players) and simple cycles (on
  capacity-2 players only), by one maximum-weight matching on the 2-vertex
  edge gadget that `blossom.max_weight_degree_subgraph` builds, matches and
  reads back (Shiloach 1981; Gabow 1983). A negative optimum exhibits a
  violated path or cycle core constraint and a nonnegative optimum proves
  there is none; this backs the polynomial core-membership test.

* `negative_cycle` decides whether an undirected graph with rational edge
  costs contains a simple cycle of negative total cost. Closed walks are not
  good enough here (walking an edge back and forth is not a cycle), so it is
  one path/cycle system on the same gadget, priced so that a cycle costs its
  edge costs and every path costs more than zero.

All arithmetic is integer after a common-denominator scaling, refused past
`rationals.MAX_SCALE_DIGITS` digits. The selected edges are split into
components by `_spanning_forest`, the package's one union-find. The seller
side of a bipartite game (`resolve_sides`, for `--split-rule seller_side`
and the bipartite constructions of `transfers`) lives here too, since it
reads the game's components off that union-find; `verify-stable` never
compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InternalError, NotBipartiteError, PreconditionError
from .instance import Instance
from .rationals import scale_to_integers

Pair = tuple[str, str]


def _spanning_forest(edges: Iterable[Pair]) -> tuple[dict[str, str], list[Pair]]:
    """Union-find over `edges` in the order given (Kruskal): the component
    root of every vertex they touch, and the edges that close a cycle."""
    parent: dict[str, str] = {}

    def find(v: str) -> str:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    closing: list[Pair] = []
    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            closing.append((u, v))
        else:
            parent[ru] = rv
    return {v: find(v) for v in parent}, closing


# ---------------------------------------------------------------------------
# The seller side of a bipartite game
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
    scaled: tuple[dict, int] | None = None,
) -> tuple[Fraction, list[SystemComponent]]:
    """Minimise sum of x(V(C)) - w(C) over disjoint admissible path/cycle
    packings; returns the optimum and the components of a minimiser.
    `scaled`, when given, is `scale_to_integers({**weights, **x})`, which
    a caller that already scaled them passes on.

    Admissible: paths may end anywhere but pass only through capacity-2
    vertices; cycles consist of capacity-2 vertices. So a packing is an edge
    set F with deg_F <= capacity that pays x(v) at each vertex it touches.
    The empty packing is admissible, so the optimum is at most 0.

    Gadget: the 2-vertex edge gadget of `blossom.max_weight_degree_subgraph`
    (Shiloach 1981; Gabow 1983) under one maximum-weight matching. A
    capacity-2 vertex v has two mandatory slots at price x(v)/2, joined at
    profit 0 (degree 0), and an optional helper at -x(v)/2 to each, which
    pays the second half of x(v) when v ends a path; a capacity-1 vertex
    has one optional slot at price x(v). So only edges between capacity-2
    vertices get end nodes, and the gadget's profit is minus twice the
    scaled cost of the system it selects, which certifies the read-back in
    those integers before each component's cost becomes a `Fraction`.
    """
    for v in vertices:
        if capacity[v] not in (1, 2):
            raise PreconditionError(f"vertex {v} must have capacity 1 or 2")

    # Edge keys are pairs and vertex keys strings, so one mapping holds both.
    scaled, scale = scaled or scale_to_integers({**weights, **x})
    wx = {v: 2 * scaled[v] for v in vertices}

    slots: dict[str, list[tuple[tuple, int]]] = {}
    extra: list[tuple[tuple, tuple, int]] = []
    mandatory: set[tuple] = set()
    for v in vertices:
        if capacity[v] == 2:
            s1, s2, helper = ("slot", v, 1), ("slot", v, 2), ("helper", v)
            mandatory |= {s1, s2}
            extra += [(s1, s2, 0), (helper, s1, -(wx[v] // 2)), (helper, s2, -(wx[v] // 2))]
            slots[v] = [(s1, wx[v] // 2), (s2, wx[v] // 2)]
        else:
            slots[v] = [(("slot", v, 1), wx[v])]

    from .blossom import max_weight_degree_subgraph

    edges = [(u, v, 2 * scaled[(u, v)]) for (u, v) in weights]
    selected, profit = max_weight_degree_subgraph(slots, edges, extra, mandatory)
    components, total = _split_components(selected, scaled)
    if profit != -2 * total:
        raise InternalError("path/cycle gadget matching does not weigh minus its system's cost")
    return Fraction(total, scale), [c._replace(cost=Fraction(c.cost, scale)) for c in components]


def _split_components(selected, scaled) -> tuple[list[SystemComponent], int]:
    """The components of the edge set `selected`, each costing x(V) - w(E)
    in the scaled integers `scaled` (vertex and edge keys), sorted by cost
    and vertices, and their total cost on that scale."""
    root, _ = _spanning_forest(selected)
    nodes: dict[str, list[str]] = {}
    for v in sorted(root):
        nodes.setdefault(root[v], []).append(v)
    edges: dict[str, list[Pair]] = {r: [] for r in nodes}
    for e in sorted(selected):
        edges[root[e[0]]].append(e)
    out: list[SystemComponent] = []
    for r, comp_nodes in nodes.items():
        comp_edges = edges[r]
        kind = "cycle" if len(comp_edges) == len(comp_nodes) else "path"
        if len(comp_edges) not in (len(comp_nodes), len(comp_nodes) - 1):
            raise InternalError(f"component at {comp_nodes[0]} is neither a path nor a cycle")
        cost = sum(scaled[v] for v in comp_nodes) - sum(scaled[e] for e in comp_edges)
        out.append(SystemComponent(kind, tuple(comp_nodes), tuple(comp_edges), cost))
    out.sort(key=lambda c: (c.cost, c.vertices))
    return out, sum(c.cost for c in out)


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
