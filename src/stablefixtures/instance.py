"""Game instances: a finite graph with vertex capacities and edge weights.

An instance (G, b, w) describes a multiple partners matching game: players may
form pairwise partnerships along edges, player i takes part in at most b(i) of
them, and a partnership ij is worth w(ij) to be split between its two ends.

Construction validates: `Instance(...)` raises InvalidInstanceError listing
every model violation, so an Instance is valid for its whole life and no
engine checks it again. Instances are immutable (capacities are a read-only
mapping) and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    InputError,
    InvalidInstanceError,
    NotBipartiteError,
    PreconditionError,
    UnknownEdgeError,
    UnknownPlayerError,
)
from .rationals import format_rational, parse_rational

Edge = tuple[str, str]


class Instance:
    """A capacitated, weighted graph (players, capacity b, edge weights w).

    Players are string ids; their declared order fixes the internal index used
    for canonical edge keys, deterministic iteration, and tie-breaking.
    """

    __slots__ = ("players", "capacity", "_index", "_weights", "_adj")

    def __init__(
        self,
        players: Sequence[str],
        capacity: Mapping[str, int],
        edges: Iterable[tuple[str, str, object]],
    ):
        self.players: tuple[str, ...] = tuple(players)
        self.capacity: Mapping[str, int] = MappingProxyType(dict(capacity))
        parsed = [(u, v, parse_rational(w)) for (u, v, w) in edges]
        report = validate(self.players, self.capacity, parsed)
        if not report.ok:
            raise InvalidInstanceError(report.violations)
        self._index = {p: k for k, p in enumerate(self.players)}
        self._weights: dict[Edge, Fraction] = {}
        self._adj: dict[str, list[str]] = {p: [] for p in self.players}
        for u, v, w in parsed:
            key = self._key(u, v)
            self._weights[key] = w
            self._adj[key[0]].append(key[1])
            self._adj[key[1]].append(key[0])
        for p in self.players:
            self._adj[p].sort(key=self._index.__getitem__)

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return len(self._weights)

    def index(self, p: str) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPlayerError(f"unknown player {p!r}") from None

    def b(self, p: str) -> int:
        self.index(p)
        return self.capacity[p]

    def _key(self, u: str, v: str) -> Edge:
        return (u, v) if self._index[u] <= self._index[v] else (v, u)

    def edge_key(self, u: str, v: str) -> Edge:
        """Canonical (index-ordered) key of an existing edge."""
        self.index(u)
        self.index(v)
        if u == v:
            raise UnknownEdgeError(f"loop {u!r}-{v!r} is not an edge")
        key = self._key(u, v)
        if key not in self._weights:
            raise UnknownEdgeError(f"no edge {u!r}-{v!r}")
        return key

    def has_edge(self, u: str, v: str) -> bool:
        if u not in self._index or v not in self._index or u == v:
            return False
        return self._key(u, v) in self._weights

    def weight(self, u: str, v: str) -> Fraction:
        return self._weights[self.edge_key(u, v)]

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Canonical edges sorted by (index of u, index of v)."""
        return tuple(
            sorted(self._weights, key=lambda e: (self._index[e[0]], self._index[e[1]]))
        )

    def edge_weights(self) -> dict[Edge, Fraction]:
        return dict(self._weights)

    def neighbors(self, p: str) -> tuple[str, ...]:
        self.index(p)
        return tuple(self._adj[p])

    def total_weight(self) -> Fraction:
        return sum(self._weights.values(), Fraction(0))

    def canonical_edge_set(self, pairs: Iterable[tuple[str, str]]) -> frozenset[Edge]:
        """Canonicalise a collection of vertex pairs into an edge set."""
        return frozenset(self.edge_key(u, v) for (u, v) in pairs)

    # -- structure -------------------------------------------------------

    def two_coloring(self) -> dict[str, int] | None:
        """Proper 2-coloring by BFS, or None if an odd cycle exists.

        Colors are per connected component, with the smallest-index vertex of
        each component colored 0.
        """
        color: dict[str, int] = {}
        for start in self.players:
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                u = queue.pop()
                for v in self._adj[u]:
                    if v not in color:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return None
        return color

    def is_bipartite(self) -> bool:
        return self.two_coloring() is not None

    def connected_components(self) -> list[list[str]]:
        seen: set[str] = set()
        comps = []
        for start in self.players:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = [start]
            while queue:
                u = queue.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        queue.append(v)
            comps.append(sorted(comp, key=self._index.__getitem__))
        return comps

    # -- derived instances -------------------------------------------------

    def induced(self, coalition: Iterable[str]) -> "Instance":
        return induced(self, coalition)

    def __reduce__(self):
        # Pickle through the constructor: a mapping proxy cannot be pickled.
        edges = [(u, v, w) for (u, v), w in self._weights.items()]
        return Instance, (self.players, dict(self.capacity), edges)

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m})"


def _fresh_name(used: set, base: str) -> str:
    """Deterministically de-collide a generated player name."""
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(
    players: Sequence[str],
    capacity: Mapping[str, int],
    edges: Iterable[tuple[str, str, Fraction]],
) -> ValidationReport:
    """Report every model violation of the parts of an instance (weights
    already parsed); an empty report means a valid instance. Violations come
    in the order players, capacities, missing capacities, edges.
    """
    out: list[str] = []
    seen_players: set[str] = set()
    for p in players:
        if not isinstance(p, str) or not p:
            out.append(f"player id {p!r} is not a non-empty string")
        elif p in seen_players:
            out.append(f"duplicate player {p!r}")
        if isinstance(p, str):
            seen_players.add(p)
    for p, c in capacity.items():
        if p not in seen_players:
            out.append(f"capacity given for unknown player {p!r}")
        elif not isinstance(c, int) or isinstance(c, bool):
            out.append(f"capacity of {p!r} is not an integer")
        elif c < 0:
            out.append(f"negative capacity b({p}) = {c}")
    for p in players:
        if isinstance(p, str) and p not in capacity:
            out.append(f"missing capacity for player {p!r}")
    seen_edges: set[frozenset[str]] = set()
    for u, v, w in edges:
        if not isinstance(u, str) or not isinstance(v, str):
            out.append(f"edge {u!r}-{v!r} has a non-string endpoint")
            continue
        if u == v:
            out.append(f"loop at {u!r}")
            continue
        if u not in seen_players or v not in seen_players:
            out.append(f"edge {u!r}-{v!r} has an undeclared endpoint")
            continue
        pair = frozenset((u, v))
        if pair in seen_edges:
            out.append(f"multi-edge {u!r}-{v!r}")
        seen_edges.add(pair)
        if w < 0:
            out.append(f"negative weight w({u},{v}) = {format_rational(w)}")
    return ValidationReport(tuple(out))


def induced(inst: Instance, coalition: Iterable[str]) -> Instance:
    """The subgame on a coalition: G[S] with b and w restricted.

    An edge survives iff both endpoints are in S. Relative player order is
    preserved.
    """
    members = set()
    for p in coalition:
        inst.index(p)
        members.add(p)
    players = [p for p in inst.players if p in members]
    capacity = {p: inst.capacity[p] for p in players}
    edges = [
        (u, v, w)
        for (u, v), w in inst.edge_weights().items()
        if u in members and v in members
    ]
    edges.sort(key=lambda e: (inst.index(e[0]), inst.index(e[1])))
    return Instance(players, capacity, edges)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# {"players": ["u1", ...],
#  "capacity": {"u1": 2, ...},
#  "edges": [{"u": "u1", "v": "v1", "w": "4"}, ...]}
#
# Weights are decimal strings or "num/den" rationals. This is the contract
# for all CLI commands.


def instance_to_json(inst: Instance) -> dict:
    return {
        "players": list(inst.players),
        "capacity": dict(inst.capacity),
        "edges": [
            {"u": u, "v": v, "w": format_rational(w)}
            for (u, v), w in sorted(
                inst.edge_weights().items(),
                key=lambda kv: (inst.index(kv[0][0]), inst.index(kv[0][1])),
            )
        ],
    }


def instance_from_json(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance JSON must be an object")
    try:
        players = data["players"]
        capacity = data["capacity"]
        raw = data["edges"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"instance JSON missing field: {exc}") from None
    if not (isinstance(players, list) and isinstance(capacity, dict) and isinstance(raw, list)):
        raise InputError("instance JSON has wrong field types")
    edges = []
    for item in raw:
        try:
            edges.append((item["u"], item["v"], item["w"]))
        except (KeyError, TypeError):
            raise InputError(f"bad edge entry {item!r}") from None
    return Instance(players, capacity, edges)


def allocation_to_json(x: Mapping[str, Fraction]) -> dict:
    return {"allocation": {p: format_rational(q) for p, q in x.items()}}


def allocation_from_json(data: dict, inst: Instance | None = None) -> dict[str, Fraction]:
    if not isinstance(data, dict):
        raise InputError("allocation JSON must be an object")
    payload = data.get("allocation", data)
    if not isinstance(payload, dict):
        raise InputError("allocation JSON must map players to rationals")
    x = {p: parse_rational(v) for p, v in payload.items()}
    if inst is not None:
        for p in x:
            inst.index(p)
        missing = [p for p in inst.players if p not in x]
        if missing:
            raise InputError(f"allocation missing players: {missing}")
    return x


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


class Generated(NamedTuple):
    """A generated instance plus, for some families, a companion allocation."""

    instance: Instance
    allocation: dict[str, Fraction] | None = None


def generate(family: str, **params) -> Generated:
    """Construct a named instance family.

    Families: triangle, two_player(w), example1..example4(alpha), diamond,
    cubic_gadget(graph). example4 and cubic_gadget also return the symmetric
    companion allocation used in their core analyses.
    """
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise InputError(
            f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return builder(**params)


def _triangle(**params) -> Generated:
    _reject_params("triangle", params)
    players = ["a", "b", "c"]
    return Generated(
        Instance(players, {p: 1 for p in players}, [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
    )


def _two_player(w="7", **params) -> Generated:
    _reject_params("two_player", params)
    weight = parse_rational(w)
    return Generated(Instance(["i", "j"], {"i": 1, "j": 1}, [("i", "j", weight)]))


def _example1(**params) -> Generated:
    _reject_params("example1", params)
    players = ["u1", "v1", "u2", "v2"]
    edges = [("u1", "v1", 1), ("v1", "u2", 1), ("u2", "v2", 1), ("v2", "u1", 1)]
    return Generated(Instance(players, {p: 1 for p in players}, edges))


def _example2(**params) -> Generated:
    _reject_params("example2", params)
    players = ["u1", "u2", "u3", "v1", "v2", "v3"]
    capacity = {"u1": 2, "u2": 2, "v1": 2, "u3": 1, "v2": 1, "v3": 1}
    edges = [
        ("u1", "v1", 4),
        ("u1", "v2", 6),
        ("u1", "v3", 5),
        ("u2", "v1", 4),
        ("u2", "v2", 1),
        ("u3", "v1", 1),
        ("u3", "v2", 3),
        ("u3", "v3", 2),
    ]
    return Generated(Instance(players, capacity, edges))


def _example3(**params) -> Generated:
    _reject_params("example3", params)
    players = ["v1", "v2", "v3", "v4"]
    capacity = {"v1": 1, "v2": 1, "v3": 2, "v4": 2}
    edges = [("v1", "v2", 3), ("v2", "v3", 1), ("v3", "v4", 1), ("v4", "v1", 1)]
    return Generated(Instance(players, capacity, edges))


def _example4(alpha=2, **params) -> Generated:
    _reject_params("example4", params)
    alpha = int(alpha)
    if alpha < 2:
        raise PreconditionError(f"example4 needs alpha >= 2, got {alpha}")
    players = ["s1", "s2", "s3"]
    edges = [("s1", "s2", 1), ("s2", "s3", 1), ("s1", "s3", 1)]
    for i in (1, 2, 3):
        for j in range(1, alpha):
            t = f"t{i}_{j}"
            players.append(t)
            edges.append((f"s{i}", t, 1))
    capacity = {p: alpha for p in players}
    allocation = {p: Fraction(0) for p in players}
    for i in (1, 2, 3):
        allocation[f"s{i}"] = Fraction(alpha) - Fraction(2, 3)
    return Generated(Instance(players, capacity, edges), allocation)


def _diamond(**params) -> Generated:
    _reject_params("diamond", params)
    players = ["s1", "s2", "s3", "u"]
    capacity = {"s1": 2, "s2": 2, "s3": 2, "u": 1}
    edges = [
        ("s1", "s2", 1),
        ("s1", "s3", 1),
        ("s2", "s3", 1),
        ("s2", "u", 1),
        ("s3", "u", 1),
    ]
    return Generated(Instance(players, capacity, edges))


def _cubic_gadget(graph=None, **params) -> Generated:
    """Per input vertex u, glue a K_{3,3} block {a_u,b_u,c_u} x {u,x_u,y_u}.

    Capacities are 3 and weights 1 everywhere. The companion allocation gives
    each original vertex 3/2 - 1/n and each new block vertex 3/2 + 1/(5n);
    it is violated exactly by the vertex sets of 3-regular subgraphs of the
    input, which must be bipartite.
    """
    _reject_params("cubic_gadget", params)
    if graph is None:
        raise PreconditionError("cubic_gadget needs an input graph instance")
    if isinstance(graph, Generated):
        graph = graph.instance
    if not isinstance(graph, Instance):
        raise PreconditionError("cubic_gadget input must be an Instance")
    if not graph.is_bipartite():
        raise NotBipartiteError("cubic_gadget input graph must be bipartite")
    n = graph.n
    if n == 0:
        raise PreconditionError("cubic_gadget input graph must be non-empty")
    players = list(graph.players)
    edges: list[tuple[str, str, int]] = [(u, v, 1) for (u, v) in graph.edges]
    for u in graph.players:
        left = [f"a_{u}", f"b_{u}", f"c_{u}"]
        right = [u, f"x_{u}", f"y_{u}"]
        players.extend(left + [f"x_{u}", f"y_{u}"])
        for a in left:
            for r in right:
                edges.append((a, r, 1))
    if len(set(players)) != len(players):
        raise PreconditionError(
            "cubic_gadget input vertex names collide with generated block names"
        )
    capacity = {p: 3 for p in players}
    inst = Instance(players, capacity, edges)
    allocation: dict[str, Fraction] = {}
    for u in graph.players:
        allocation[u] = Fraction(3, 2) - Fraction(1, n)
        for p in (f"a_{u}", f"b_{u}", f"c_{u}", f"x_{u}", f"y_{u}"):
            allocation[p] = Fraction(3, 2) + Fraction(1, 5 * n)
    return Generated(inst, allocation)


def _reject_params(family: str, params: dict) -> None:
    if params:
        raise InputError(f"family {family!r} got unexpected parameters {sorted(params)}")


_FAMILIES = {
    "triangle": _triangle,
    "two_player": _two_player,
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
    "example4": _example4,
    "diamond": _diamond,
    "cubic_gadget": _cubic_gadget,
}
