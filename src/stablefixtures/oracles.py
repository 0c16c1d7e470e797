"""Exhaustive brute-force oracles, independent of the matching engines, the
cross-checks of `oracle selftest`, which pit the engines against them, and
the body of the `oracle` subcommand.

Only the `oracle` commands, `core-check --brute-force` and the tests import
this module, so `solve`, `core-check` and `value` never compile it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import BoundExceededError, InputError, PreconditionError
from .instance import Edge, Instance, _load_instance, _load_json, allocation_from_json, induced
from .rationals import format_rational

BRUTE_FORCE_EDGE_BOUND = 22
HALF_BRUTE_FORCE_EDGE_BOUND = 12
CORE_BRUTE_FORCE_PLAYER_BOUND = 16


def max_weight_b_matching_bruteforce(
    inst: Instance, max_edges: int = BRUTE_FORCE_EDGE_BOUND
) -> tuple[frozenset[Edge], Fraction]:
    """Exhaustive optimum by branching over every edge subset."""
    if inst.m > max_edges:
        raise BoundExceededError(f"{inst.m} edges exceed brute-force bound {max_edges}")
    edges = inst.edges
    weights = [inst.weight(u, v) for (u, v) in edges]
    order = sorted(range(len(edges)), key=lambda k: -weights[k])
    suffix = [Fraction(0)] * (len(edges) + 1)
    for pos in range(len(edges) - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + weights[order[pos]]
    caps = {p: inst.b(p) for p in inst.players}
    best_weight = Fraction(0)
    best_set: list[Edge] = []
    chosen: list[Edge] = []

    def recurse(pos: int, acc: Fraction) -> None:
        nonlocal best_weight, best_set
        if acc > best_weight:
            best_weight, best_set = acc, list(chosen)
        if pos == len(edges) or acc + suffix[pos] <= best_weight:
            return
        u, v = edges[order[pos]]
        if caps[u] > 0 and caps[v] > 0:
            caps[u] -= 1
            caps[v] -= 1
            chosen.append((u, v))
            recurse(pos + 1, acc + weights[order[pos]])
            chosen.pop()
            caps[u] += 1
            caps[v] += 1
        recurse(pos + 1, acc)

    recurse(0, Fraction(0))
    return frozenset(best_set), best_weight


def max_half_b_matching_bruteforce(
    inst: Instance, max_edges: int = HALF_BRUTE_FORCE_EDGE_BOUND
) -> Fraction:
    """Test oracle: enumerate all 3^m half-assignments."""
    if inst.m > max_edges:
        raise BoundExceededError(f"{inst.m} edges exceed half brute-force bound {max_edges}")
    edges = inst.edges
    load = {p: Fraction(0) for p in inst.players}
    best = Fraction(0)

    def recurse(pos: int, acc: Fraction) -> None:
        nonlocal best
        if pos == len(edges):
            best = max(best, acc)
            return
        u, v = edges[pos]
        w = inst.weight(u, v)
        for f in (Fraction(1), Fraction(1, 2), Fraction(0)):
            if load[u] + f <= inst.b(u) and load[v] + f <= inst.b(v):
                load[u] += f
                load[v] += f
                recurse(pos + 1, acc + w * f)
                load[u] -= f
                load[v] -= f

    recurse(0, Fraction(0))
    return best


def core_membership_bruteforce(
    inst: Instance,
    x: Mapping[str, Fraction],
    max_players: int = CORE_BRUTE_FORCE_PLAYER_BOUND,
):
    """Enumerate every nonempty coalition; exact but exponential.

    Coalition values come from the brute-force matching oracle, keeping this
    path fully independent of the main engines (violations are still
    re-certified against the engine before being returned). Returns a
    `core.CoreVerdict`.
    """
    from .core import CoreVerdict, _coalition_total, _violation

    if inst.n > max_players:
        raise BoundExceededError(
            f"{inst.n} players exceed the brute-force bound {max_players}"
        )
    _coalition_total(inst, x, inst.players)
    players = inst.players
    for mask in range(1, 1 << inst.n):
        coalition = [players[k] for k in range(inst.n) if mask >> k & 1]
        sub = induced(inst, coalition)
        _, value = max_weight_b_matching_bruteforce(sub)
        if _coalition_total(inst, x, coalition) < value:
            return _violation(inst, x, coalition)
    grand_total = _coalition_total(inst, x, players)
    _, grand_value = max_weight_b_matching_bruteforce(inst)
    if grand_total != grand_value:
        return CoreVerdict(
            kind="not_allocation", grand_total=grand_total, grand_value=grand_value
        )
    return CoreVerdict(kind="in_core")


def _oracle_selftest(count: int, seed: int) -> str | None:
    """Random cross-checks of the engines against the brute-force oracles:
    the first disagreement of `count` trials, or None."""
    import random

    from .core import core_membership_b2, game_value
    from .matching import lp_optimum
    from .randomgen import random_allocation, random_instance
    from .solver import solve
    from .stability import total_payoff

    rng = random.Random(seed)
    for k in range(count):
        # Every other game is bipartite, so both integer dual passes (on the
        # game itself and on its double cover) meet the oracles.
        inst = random_instance(
            rng, n_range=(3, 8), max_extra_edges=5, b_range=(1, 2), max_weight=7,
            bipartite=k % 2 == 1,
        )
        opt = lp_optimum(inst)
        value = opt.weight
        _, brute = max_weight_b_matching_bruteforce(inst)
        if value != brute:
            return f"selftest {k}: engine {value} != oracle {brute}"
        # v(N) reads only the weight: its whole-game blossom runs untied and warm.
        untied = game_value(inst, inst.players)
        if untied != brute:
            return f"selftest {k}: untied engine {untied} != oracle {brute}"
        half = max_half_b_matching_bruteforce(inst)
        if opt.half != half:
            return f"selftest {k}: LP optimum {opt.half} != oracle {half}"
        x = random_allocation(rng, inst, value)
        fast = core_membership_b2(inst, x)
        slow = core_membership_bruteforce(inst, x)
        if fast.kind != slow.kind:
            return f"selftest {k}: core verdicts differ"
        # The row sums of a stable solution are a core allocation. The dual
        # screen proves some of them in the core and leaves the others (a
        # capacity-2 player paid unevenly) to the path/cycle stage.
        outcome = solve(inst)
        if outcome.stable:
            paid = total_payoff(inst, outcome.solution.payoffs)
            kinds = {core_membership_b2(inst, paid).kind, core_membership_bruteforce(inst, paid).kind}
            if kinds != {"in_core"}:
                return f"selftest {k}: core verdicts on solve's payoff row sums: {sorted(kinds)}"
    return None


def oracle_command(args) -> tuple[bool, dict | None, str | None]:
    """Run `stablefixtures oracle` for the parsed command line `args`:
    whether it passed (exit 0, else 3), the JSON for standard output, and
    the selftest failure line for standard error; one of the last two is
    None."""
    if args.engine != "selftest" and not args.instance:
        raise InputError(f"oracle {args.engine} needs an instance file")
    if args.engine == "b-matching":
        from .matching import matching_to_json

        inst = _load_instance(args.instance)
        matching, value = max_weight_b_matching_bruteforce(inst)
        return True, {"weight": format_rational(value), "matching": matching_to_json(inst, matching)}, None
    if args.engine == "half":
        inst = _load_instance(args.instance)
        return True, {"weight": format_rational(max_half_b_matching_bruteforce(inst))}, None
    if args.engine == "core-check":
        if not args.allocation:
            raise InputError("oracle core-check needs an allocation file")
        from .core import verdict_to_json

        inst = _load_instance(args.instance)
        verdict = core_membership_bruteforce(inst, allocation_from_json(_load_json(args.allocation), inst))
        return verdict.in_core, verdict_to_json(inst, verdict), None
    if args.engine == "selftest":
        if args.count < 0:
            raise PreconditionError(f"oracle selftest needs --count >= 0, got {args.count}")
        failure = _oracle_selftest(args.count, args.seed)
        return failure is None, {"selftest": "ok", "trials": args.count} if failure is None else None, failure
    raise InputError(f"unknown oracle engine {args.engine!r}")
