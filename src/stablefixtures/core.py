"""Core allocations: coalition values and membership tests.

The coalition value v(S) is the maximum b-matching weight inside G[S]. An
allocation x (with x(N) = v(N)) is in the core when x(S) >= v(S) for every
coalition. For capacities at most 2 a maximum b-matching inside any
coalition splits into paths and cycles, so membership reduces to
nonnegativity of singletons plus the path/cycle constraints checked by the
exact detectors in `cycles`. Before that search, an O(m) dual screen tests
whether y = x/b is a feasible dual of the degree LP; if it is, weak duality
gives x(S) >= LP(S) >= v(S) for every coalition S (as for the core of the
assignment game, Shapley and Shubik 1971), so no search runs and `cycles`
is never imported. Every violation verdict is re-certified against the
matching engine before being returned. A value reads only the weight of
`matching._lp_optimum`; a witness is `lp_optimum`'s tie-broken matching.

The engine is imported inside the functions that run it, so a `core-check`
refused for a capacity above 2 compiles no `matching`. The `value` command
reads `matching.lp_optimum` of the subgame itself and never loads this
module. The allocation reader `allocation_from_json` lives here, with
`core-check`, its only reader besides the `oracle core-check` command.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import CapacityTooLargeError, InputError, InternalError, PreconditionError
from .instance import Edge, Instance, induced
from .rationals import format_rational, parse_rational, scale_to_integers


def game_value(inst: Instance, coalition: Iterable[str]) -> Fraction:
    """v(S): maximum-weight b-matching value of the induced subgame. Only
    the weight is read, so the tie-break that `lp_optimum` adds to a
    subgame without a stable solution is skipped (`matching._lp_optimum`)."""
    from .matching import _lp_optimum

    return _lp_optimum(induced(inst, coalition))[0].weight


def game_value_with_witness(
    inst: Instance, coalition: Iterable[str]
) -> tuple[Fraction, frozenset[Edge]]:
    from .matching import lp_optimum

    opt = lp_optimum(induced(inst, coalition))
    return opt.weight, opt.matching


def is_allocation(inst: Instance, x: Mapping[str, Fraction]) -> bool:
    """Exact test of x(N) = v(N)."""
    total = _coalition_total(inst, x, inst.players)
    return total == game_value(inst, inst.players)


def _coalition_total(inst: Instance, x: Mapping[str, Fraction], coalition) -> Fraction:
    missing = [p for p in coalition if p not in x]
    if missing:
        raise InputError(f"allocation missing players {missing}")
    return sum((x[p] for p in coalition), Fraction(0))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class CoreVerdict(NamedTuple):
    """InCore, a self-certified Violation, or NotAllocation.

    NotAllocation covers x(N) > v(N): the efficiency equality fails but no
    coalition certificate exists. x(N) < v(N) is a Violation by N itself.
    """

    kind: str  # "in_core" | "violation" | "not_allocation"
    coalition: tuple[str, ...] | None = None
    coalition_total: Fraction | None = None
    coalition_value: Fraction | None = None
    deficit: Fraction | None = None
    witness_matching: frozenset[Edge] | None = None
    grand_total: Fraction | None = None
    grand_value: Fraction | None = None

    @property
    def in_core(self) -> bool:
        return self.kind == "in_core"


def _violation(inst: Instance, x: Mapping[str, Fraction], coalition, optimum=None) -> CoreVerdict:
    """Build a Violation verdict, re-verifying x(S) < v(S) with the engine,
    or with `optimum`, the subgame's `lp_optimum` when already known."""
    wanted = set(coalition)
    members = tuple(p for p in inst.players if p in wanted)
    if optimum is None:
        value, witness = game_value_with_witness(inst, members)
    else:
        value, witness = optimum.weight, optimum.matching
    total = _coalition_total(inst, x, members)
    if not total < value:
        raise InternalError(f"claimed violation by {list(members)} fails certification")
    return CoreVerdict(
        kind="violation",
        coalition=members,
        coalition_total=total,
        coalition_value=value,
        deficit=value - total,
        witness_matching=witness,
    )


class CoreViolationError(PreconditionError):
    """Raised by the decomposition (`transfers`) when x turns out not to be in
    the core; carries the discovered verdict."""

    def __init__(self, verdict: CoreVerdict):
        self.verdict = verdict
        super().__init__(
            f"allocation violated by coalition {list(verdict.coalition)}"
            f" (deficit {format_rational(verdict.deficit)})"
        )


# ---------------------------------------------------------------------------
# Membership: capacities at most 2
# ---------------------------------------------------------------------------


def core_membership_b2(inst: Instance, x: Mapping[str, Fraction]) -> CoreVerdict:
    """Polynomial core membership for b <= 2 with violation certificates.

    Stages: singletons x(i) >= 0; efficiency x(N) = v(N); capacity-0
    players forced to zero and dropped; the dual screen (`_pays_every_edge`
    on the scaled weights and x), which proves that no coalition violates;
    only when it fails, the exact minimum path/cycle system on the same
    scaled values, which covers the cycles among capacity-2 players. Any
    violating component is returned as its coalition after engine
    re-certification.
    """
    heavy = [p for p in inst.players if inst.b(p) > 2]
    if heavy:
        raise CapacityTooLargeError(f"players with b > 2: {heavy}")
    from .matching import _lp_optimum, _tie_broken

    grand_total = _coalition_total(inst, x, inst.players)

    for p in inst.players:
        if x[p] < 0:
            return _violation(inst, x, [p])

    # v(N) reads only the weight; a violation by N reuses its pass for the witness.
    grand, scaled, _, tied = _lp_optimum(inst)
    grand_value = grand.weight
    if grand_total < grand_value:
        return _violation(inst, x, inst.players, _tie_broken(inst, grand, scaled, tied))
    efficient = grand_total == grand_value

    zero_cap = [p for p in inst.players if inst.b(p) == 0]
    if efficient:
        for p in zero_cap:
            if x[p] > 0:
                # v is unchanged without p, so the rest is shortchanged.
                return _violation(inst, x, [q for q in inst.players if q != p])
    work = induced(inst, [p for p in inst.players if inst.b(p) > 0])

    # Scaled as the path/cycle stage scales them: edge keys are pairs and
    # player keys strings, so one mapping holds both.
    values, scale = scale_to_integers({**work.edge_weights(), **{p: x[p] for p in work.players}})
    if not _pays_every_edge(work, values, values):
        verdict = _b2_constraint_search(work, x, (values, scale))
        if verdict is not None:
            return _violation(inst, x, verdict)

    if not efficient:
        return CoreVerdict(
            kind="not_allocation", grand_total=grand_total, grand_value=grand_value
        )
    return CoreVerdict(kind="in_core")


def _pays_every_edge(inst: Instance, x, w) -> bool:
    """Whether y = x/b is a feasible dual of the degree LP of `inst`, for
    x >= 0: b(v) x(u) + b(u) x(v) >= b(u) b(v) w(uv) on every edge, tested
    on ints or `Fraction`s and stopping at the first edge that fails. An
    edge with a capacity-0 end always passes (its y is unbounded). When it
    holds, weak duality gives x(S) >= LP(S) >= v(S) for every coalition S.
    """
    b = inst.capacity
    return all(b[v] * x[u] + b[u] * x[v] >= b[u] * b[v] * w[(u, v)] for u, v in inst.edges)


def _b2_constraint_search(inst: Instance, x, scaled=None) -> tuple[str, ...] | None:
    """First violated path/cycle coalition among b in {1, 2} players.

    The systems admit every cycle of capacity-2 players at its cost
    x(V(C)) - w(C), so a negative cycle makes the optimum negative too. The
    optimum sums its components' costs, so the first, cheapest, is then
    negative.
    `scaled` is the weights and x already put through `scale_to_integers`.
    """
    from .cycles import min_path_cycle_system

    total, components = min_path_cycle_system(
        inst.players,
        {p: inst.b(p) for p in inst.players},
        inst.edge_weights(),
        {p: x[p] for p in inst.players},
        scaled=scaled,
    )
    if total < 0:
        return tuple(sorted(components[0].vertices, key=inst.index))
    return None


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def allocation_from_json(data: dict, inst: Instance | None = None) -> dict[str, Fraction]:
    """The allocation x of `{"allocation": {player: rational}}` (or of the
    bare mapping); with `inst`, every player must have an entry and every
    entry must be a player."""
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


def verdict_to_json(inst: Instance, verdict: CoreVerdict) -> dict:
    from .matching import matching_to_json

    if verdict.kind == "in_core":
        return {"verdict": "in_core"}
    if verdict.kind == "not_allocation":
        return {
            "verdict": "not_allocation",
            "total": format_rational(verdict.grand_total),
            "grand_coalition_value": format_rational(verdict.grand_value),
        }
    return {
        "verdict": "violation",
        "coalition": list(verdict.coalition),
        "coalition_total": format_rational(verdict.coalition_total),
        "coalition_value": format_rational(verdict.coalition_value),
        "deficit": format_rational(verdict.deficit),
        "witness_matching": matching_to_json(inst, verdict.witness_matching),
    }
