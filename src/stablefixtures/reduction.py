"""Unit-capacity expansion of an instance.

A player i with capacity b(i) becomes b(i) copy vertices; every edge ij
becomes a 4-vertex chain

    i-copies -- outer(i,j) -- inner(i,j) -- inner(j,i) -- outer(j,i) -- j-copies

with all chain edges carrying the original weight w(ij). The expanded
instance has unit capacities, is bipartite iff the original is, and its
maximum matchings encode maximum-weight b-matchings through the exact weight
identity  w'(M') = w(M) + 2 w(E).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InternalError
from .instance import Instance, _fresh_name


class ReducedInstance(NamedTuple):
    """The expanded unit-capacity instance plus provenance maps.

    copies[(i, s)] is the s-th copy of player i (1-based); inner[(i, j)] and
    outer[(i, j)] are the gadget vertices of edge ij on i's side. origin maps
    every expanded player back to a ("copy", i, s) / ("inner", i, j) /
    ("outer", i, j) tag.
    """

    instance: Instance
    copies: dict[tuple[str, int], str]
    inner: dict[tuple[str, str], str]
    outer: dict[tuple[str, str], str]
    origin: dict[str, tuple]


def reduce_instance(inst: Instance) -> ReducedInstance:
    """Build the expanded instance (G', 1, w').

    |N'| = sum_i b(i) + 4m and |E'| = sum_{ij} (b(i) + b(j) + 3).
    """
    used: set[str] = set()
    players: list[str] = []
    copies: dict[tuple[str, int], str] = {}
    inner: dict[tuple[str, str], str] = {}
    outer: dict[tuple[str, str], str] = {}
    origin: dict[str, tuple] = {}

    for i in inst.players:
        for s in range(1, inst.b(i) + 1):
            name = _fresh_name(used, f"{i}^{s}")
            copies[(i, s)] = name
            origin[name] = ("copy", i, s)
            players.append(name)
    edges: list[tuple[str, str, Fraction]] = []
    for (i, j) in inst.edges:
        w = inst.weight(i, j)
        out_i = _fresh_name(used, f"{i}~{j}")
        in_i = _fresh_name(used, f"{i}@{j}")
        in_j = _fresh_name(used, f"{j}@{i}")
        out_j = _fresh_name(used, f"{j}~{i}")
        for name, tag in (
            (out_i, ("outer", i, j)),
            (in_i, ("inner", i, j)),
            (in_j, ("inner", j, i)),
            (out_j, ("outer", j, i)),
        ):
            origin[name] = tag
            players.append(name)
        outer[(i, j)] = out_i
        outer[(j, i)] = out_j
        inner[(i, j)] = in_i
        inner[(j, i)] = in_j
        for s in range(1, inst.b(i) + 1):
            edges.append((copies[(i, s)], out_i, w))
        edges.append((out_i, in_i, w))
        edges.append((in_i, in_j, w))
        edges.append((in_j, out_j, w))
        for t in range(1, inst.b(j) + 1):
            edges.append((out_j, copies[(j, t)], w))

    reduced = Instance._derived(players, {p: 1 for p in players}, edges)
    n = sum(inst.b(p) for p in inst.players) + 4 * inst.m
    m = sum(inst.b(u) + inst.b(v) + 3 for (u, v) in inst.edges)
    if (reduced.n, reduced.m) != (n, m):
        raise InternalError(f"expanded instance has the wrong size {reduced.n}/{reduced.m}, not {n}/{m}")
    return ReducedInstance(reduced, copies, inner, outer, origin)


def provenance_to_json(reduced: ReducedInstance) -> dict:
    out = {}
    for name in reduced.instance.players:
        tag = reduced.origin[name]
        if tag[0] == "copy":
            out[name] = {"kind": "copy", "player": tag[1], "rank": tag[2]}
        else:
            out[name] = {"kind": tag[0], "player": tag[1], "partner": tag[2]}
    return out
