"""Half-b-matchings and the bipartite double cover, whose maximum-weight
b-matching is a general game's half-b-matching (LP) optimum. A bipartite
game's LP is integral, so only `matching._lp_optimum`'s branch for a game
that is not bipartite imports this module: `_cover_pass` gives the LP
optimum and the folded dual from one certified pass on the cover, with the
cover's state, and `_half_witness` reads the tie-broken witness off that
state alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import InternalError
from .instance import Edge, Instance, _fresh_name
from .matching import _certified_pass, _slack_matching
from .rationals import format_rational, parse_rational, scale_to_integers


class HalfBMatching(NamedTuple):
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


def max_half_b_matching_weight(inst: Instance) -> tuple[Fraction, HalfBMatching]:
    """Maximum weight over half-b-matchings, with the tie-broken witness.

    Computed as the maximum-weight b-matching of the duplicated instance,
    read off its optimal dual (`_cover_pass`, `_half_witness`):
    f(ij) = (x(i'j'') + x(i''j')) / 2 preserves the weight exactly, so the
    value is the cover's optimum. Callers that need only the value should
    use `matching.lp_optimum`, whose unperturbed pass gives it as `half`.
    """
    base, scale = scale_to_integers(inst.edge_weights())
    half, _, _, state = _cover_pass(inst, base, scale)
    return Fraction(half, 2 * scale), _half_witness(inst, state)


def _cover_pass(inst: Instance, base: Mapping[Edge, int], scale: int):
    """The half-b-matching optimum and an optimal dual (y, d), times
    2 * scale, of a game whose weights times `scale` are `base`, from one
    `_certified_pass` on its double cover, and the cover's state for
    `_half_witness`: the cover, its integer weights (both cross edges of ij
    weigh base(ij), that is w(ij)/2 on twice the scale), their optimum and
    the cover's own optimal dual on that scale. Folding that dual (y(i) =
    y(i') + y(i''), d(ij) = the slacks of both cross edges) keeps it
    feasible and keeps its objective, the LP optimum.
    """
    dup = duplicated_instance(inst)
    cover, left, right = dup.instance, dup.left, dup.right
    key = cover.edge_key
    cover_base = {}
    for (i, j) in inst.edges:
        cover_base[key(left[i], right[j])] = cover_base[key(left[j], right[i])] = base[(i, j)]
    half, cy, cd = _certified_pass(cover, cover_base, 2 * scale, cover.two_coloring())
    y = {i: cy[left[i]] + cy[right[i]] for i in inst.players}
    d = {
        (i, j): cd[key(left[i], right[j])] + cd[key(left[j], right[i])]
        for (i, j) in inst.edges
    }
    return half, y, d, (dup, cover_base, half, cy, cd)


def _half_witness(inst: Instance, state) -> HalfBMatching:
    """The tie-broken witness of `max_half_b_matching_weight`, from the
    cover's state that `_cover_pass` returns: the double cover, its integer
    weights, their optimum and an optimal dual (y, d) on that scale.

    The cover's tie-broken optimum is its forced edges plus the tie-broken
    optimum of its complementary-slack residual (`_slack_matching`), whose
    edges keep their relative order. It folds to f(ij) = hits(ij) / 2 over
    ij's two cross edges, which both weigh base(ij) on the cover's scale.
    The cover's LP is integral, so with an optimal dual the sum of
    hits(ij) * base(ij) is the optimum; InternalError if it falls short or
    the fold is no half-b-matching.
    """
    dup, cover_base, half, y, d = state
    matching, _ = _slack_matching(dup.instance, cover_base, y, d)
    key = dup.instance.edge_key
    total, values = 0, {}
    for (i, j) in inst.edges:
        cross = (key(dup.left[i], dup.right[j]), key(dup.left[j], dup.right[i]))
        hits = sum(e in matching for e in cross)
        total += hits * cover_base[cross[0]]
        values[(i, j)] = Fraction(hits, 2)
    if total != half or not is_half_b_matching(inst, values):
        raise InternalError("double cover's forced and residual edges fall short of its optimum")
    return HalfBMatching(values)


def half_matching_to_json(inst: Instance, half: HalfBMatching) -> list:
    return [
        {"u": u, "v": v, "value": format_rational(half.values[(u, v)])}
        for (u, v) in inst.edges
        if (u, v) in half.values
    ]


def half_matching_from_json(inst: Instance, data) -> HalfBMatching:
    values = {}
    for item in data:
        key = inst.edge_key(item["u"], item["v"])
        values[key] = parse_rational(item["value"])
    return HalfBMatching(values)
