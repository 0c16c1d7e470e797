"""The no-stable witness: half-b-matchings (values 0, 1/2 or 1 on every
edge within the capacities), the heaviest of which proves that a game has
no stable solution when it outweighs every b-matching.

The witness is read off the double cover's state that `cover._cover_pass`
returns, never from a pass over the whole cover. Only a `solve` without a
stable solution and the library load this module; a stable `solve`,
`core-check` and `value` never compile it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .cover import _cover_pass
from .errors import InternalError
from .instance import Edge, Instance
from .matching import _slack_matching
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


def _half_witness(inst: Instance, state) -> HalfBMatching:
    """The tie-broken witness of `max_half_b_matching_weight`, from the
    cover's state that `_cover_pass` returns: the double cover, its integer
    weights, their optimum, an optimal dual (y, d) on that scale and each
    game edge's two cross edges.

    The cover's tie-broken optimum is its forced edges plus the tie-broken
    optimum of its complementary-slack residual (`_slack_matching`), whose
    edges keep their relative order. It folds to f(ij) = hits(ij) / 2 over
    ij's two cross edges, which both weigh base(ij) on the cover's scale.
    The cover's LP is integral, so with an optimal dual the sum of
    hits(ij) * base(ij) is the optimum; InternalError if it falls short or
    the fold is no half-b-matching: more than 2 b(p) hits at a player p.
    """
    dup, cover_base, half, y, d, cross = state
    matching, _ = _slack_matching(dup.instance, cover_base, y, d)
    total, values, load = 0, {}, dict.fromkeys(inst.players, 0)
    for (i, j), (ij, ji) in zip(inst.edges, cross):
        hits = (ij in matching) + (ji in matching)
        total += hits * cover_base[ij]
        values[(i, j)] = Fraction(hits, 2)
        load[i] += hits
        load[j] += hits
    if total != half or any(load[p] > 2 * inst.b(p) for p in inst.players):
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
