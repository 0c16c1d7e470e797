"""Game instances: a finite graph with vertex capacities and edge weights.

An instance (G, b, w) describes a multiple partners matching game: players may
form pairwise partnerships along edges, player i takes part in at most b(i) of
them, and a partnership ij is worth w(ij) to be split between its two ends.

Construction validates: `Instance(...)` raises InvalidInstanceError listing
every model violation, so an Instance is valid for its whole life and no
engine checks it again. Instances derived from a valid one (subgames, the
double cover, a dual's residual, the unit-capacity expansion) are built by
`Instance._derived`, which skips that check. Instances are immutable
(capacities are a read-only mapping) and safe to share between threads.

Every request loads this module, so it holds only what every request
runs: construction, validation, subgames and the file readers. The solution
record and its check live in `solution`, the instance writer in `families`,
the allocation reader in `core` and the union-find in `cycles`, each with
its callers; `allocation_from_json` still resolves here (PEP 562), only
because perfbench looks it up here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import _moved_from
from .errors import InputError, InvalidInstanceError, UnknownEdgeError, UnknownPlayerError
from .rationals import format_rational, parse_rational

__getattr__ = _moved_from(__name__, core="allocation_from_json")

Edge = tuple[str, str]

# How `solve` and `duals.stable_from_dual` share a matched edge's slack d(ij).
# Kept here, in the module every request loads, so that the CLI's choices do
# not load `stability`.
SPLIT_RULES = ("half", "seller_side")


class Instance:
    """A capacitated, weighted graph (players, capacity b, edge weights w).

    Players are string ids; their declared order fixes the internal index used
    for canonical edge keys, deterministic iteration, and tie-breaking.
    """

    __slots__ = ("players", "capacity", "_index", "_weights", "_adj", "_edges", "_coloring")

    def __init__(
        self,
        players: Sequence[str],
        capacity: Mapping[str, int],
        edges: Iterable[tuple[str, str, object]],
    ):
        players = tuple(players)
        capacity = MappingProxyType(dict(capacity))
        parsed = [(u, v, parse_rational(w)) for (u, v, w) in edges]
        report = validate(players, capacity, parsed)
        if not report.ok:
            raise InvalidInstanceError(report.violations)
        self._build(players, capacity, parsed)

    @classmethod
    def _derived(
        cls,
        players: Sequence[str],
        capacity: Mapping[str, int],
        edges: Iterable[tuple[str, str, Fraction]],
    ) -> "Instance":
        """An instance from the parts of a valid one (Fraction weights), not
        parsed or validated again."""
        inst = cls.__new__(cls)
        inst._build(tuple(players), MappingProxyType(dict(capacity)), edges)
        return inst

    def _build(self, players, capacity, edges) -> None:
        self.players: tuple[str, ...] = players
        self.capacity: Mapping[str, int] = capacity
        self._index = {p: k for k, p in enumerate(players)}
        self._weights: dict[Edge, Fraction] = {}
        self._adj: dict[str, list[str]] = {p: [] for p in players}
        for u, v, w in edges:
            key = self._key(u, v)
            self._weights[key] = w
            self._adj[key[0]].append(key[1])
            self._adj[key[1]].append(key[0])
        for p in players:
            self._adj[p].sort(key=self._index.__getitem__)
        self._edges: tuple[Edge, ...] = tuple(
            sorted(self._weights, key=lambda e: (self._index[e[0]], self._index[e[1]]))
        )
        self._coloring: dict[str, int] | None | bool = False  # False: not computed yet

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
        return self._edges

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
        each component colored 0. The BFS runs once per instance; each call
        returns a copy of its result.
        """
        if self._coloring is False:
            self._coloring = self._bfs_coloring()
        return None if self._coloring is None else dict(self._coloring)

    def _bfs_coloring(self) -> dict[str, int] | None:
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
        (u, v, inst._weights[(u, v)]) for (u, v) in inst.edges if u in members and v in members
    ]
    return Instance._derived(players, capacity, edges)


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


def _load_json(path: str):
    """The JSON document in file `path`; an unreadable file or bad JSON is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's digit limit.
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_instance(path: str) -> Instance:
    return instance_from_json(_load_json(path))
