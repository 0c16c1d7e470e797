"""The bipartite double cover with half-weights, whose maximum-weight
b-matching is a general game's half-b-matching (LP) optimum. A bipartite
game's LP is integral, so only `matching._lp_optimum`'s branch for a game
that is not bipartite imports this module: `_cover_pass` gives the LP
optimum and the folded dual from one certified pass on the cover, with the
cover's state. The no-stable witness, read off that state alone, lives in
`witness`, which only a game without a stable solution loads.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import InternalError
from .instance import Edge, Instance, _fresh_name
from .matching import _certified_pass


class DuplicatedInstance(NamedTuple):
    """Bipartite double cover with half-weights.

    Each player i splits into left/right copies with capacity b(i); each edge
    ij becomes the two cross edges left(i)-right(j) and left(j)-right(i) of
    weight w(ij)/2. Its integral optimum equals the half-b-matching optimum
    of the original.
    """

    instance: Instance
    left: dict[str, str]
    right: dict[str, str]


def duplicated_instance(inst: Instance) -> DuplicatedInstance:
    used: set[str] = set()
    players: list[str] = []
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    for i in inst.players:
        li = _fresh_name(used, i + "'")
        ri = _fresh_name(used, i + "''")
        left[i], right[i] = li, ri
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
    dup = Instance._derived(players, capacity, edges)
    if not dup.is_bipartite():
        raise InternalError("double cover is not bipartite")
    return DuplicatedInstance(dup, left, right)


def _cover_pass(inst: Instance, base: Mapping[Edge, int], scale: int):
    """The half-b-matching optimum and an optimal dual (y, d), times
    2 * scale, of a game whose weights times `scale` are `base`, from one
    `_certified_pass` on its double cover, and the cover's state for
    `witness._half_witness`: the cover, its integer weights (both cross
    edges of ij weigh base(ij), that is w(ij)/2 on twice the scale), their
    optimum, the cover's own optimal dual on that scale and the keys of
    each game edge's two cross edges, in `inst.edges` order. Folding that
    dual (y(i) = y(i') + y(i''), d(ij) = the slacks of both cross edges)
    keeps it feasible and keeps its objective, the LP optimum.
    """
    dup = duplicated_instance(inst)
    cover, left, right = dup.instance, dup.left, dup.right
    key = cover.edge_key
    cross = [(key(left[i], right[j]), key(left[j], right[i])) for (i, j) in inst.edges]
    cover_base = {c: base[e] for e, pair in zip(inst.edges, cross) for c in pair}
    half, cy, cd = _certified_pass(cover, cover_base, 2 * scale, cover.two_coloring())
    y = {i: cy[left[i]] + cy[right[i]] for i in inst.players}
    d = {e: cd[ij] + cd[ji] for e, (ij, ji) in zip(inst.edges, cross)}
    return half, y, d, (dup, cover_base, half, cy, cd, cross)
