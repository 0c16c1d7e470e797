"""Solutions (M, p), utilities and stability: the checks of a caller's
solution.

A solution pairs a b-matching M with a payoff matrix p that splits the weight
of every matched edge between its ends and is zero elsewhere. Player i's
utility is her worst payoff across matched edges when saturated, 0 otherwise;
a solution is stable when no unmatched edge pays more than the combined
utilities of its ends.

The solution record (`Solution`, `PayoffMatrix`) and the one
compatibility-and-stability check (`solution._solution_faults`) live in
`solution`, so that `solve`, which runs that check in its pass's integers,
never loads this module; the record is bound here too. The checks here
read it once each, in Fractions, for `verify-stable`, `transfers` and
`duals`. The seller side of a bipartite game (`cycles.resolve_sides`) and
the solution writer (`solver.solution_to_json`) live with the code that
runs them, so `verify-stable` compiles neither.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import IncompatibleSolutionError, InputError, UnknownEdgeError, UnstableSolutionError
from .instance import Edge, Instance
from .rationals import parse_rational
from .solution import PayoffMatrix, Solution, _solution_faults


def make_solution(inst: Instance, matching: Iterable[tuple[str, str]], payoffs: Mapping) -> Solution:
    """Canonicalise raw matching/payoff data into a Solution; an unknown
    player or edge raises, but compatibility is not checked."""
    m = inst.canonical_edge_set(matching)
    p: PayoffMatrix = {}
    for (i, j), q in payoffs.items():
        inst.edge_key(i, j)
        p[(i, j)] = parse_rational(q)
    return Solution(matching=m, payoffs=p)


def check_solution(inst: Instance, sol: Solution) -> list[str]:
    """All compatibility violations of (M, p); empty means compatible."""
    return _solution_faults(inst, sol, inst.edge_weights())[0]


def require_compatible(inst: Instance, sol: Solution) -> None:
    violations = check_solution(inst, sol)
    if violations:
        raise IncompatibleSolutionError(violations)


def utilities(inst: Instance, sol: Solution) -> dict[str, Fraction]:
    """u(i): worst matched payoff if i is saturated, else 0.

    A capacity-0 player is saturated with no matched edges; the min over the
    empty set is +infinity, meaning such players can never block. The vector
    stores 0 for them; blocking tests special-case b(i) = 0 instead.
    """
    return is_stable(inst, sol).utilities


class StabilityVerdict(NamedTuple):
    stable: bool
    blocking_pairs: tuple[Edge, ...]
    utilities: dict[str, Fraction]


def is_stable(inst: Instance, sol: Solution) -> StabilityVerdict:
    """Stability check with the complete list of blocking pairs.

    A pair ij outside M blocks when u(i) + u(j) < w(ij); pairs with a
    capacity-0 end cannot form a partnership and never block.
    """
    violations, u, blocking = _solution_faults(inst, sol, inst.edge_weights())
    if violations:
        raise IncompatibleSolutionError(violations)
    return StabilityVerdict(stable=not blocking, blocking_pairs=blocking, utilities=u)


def require_stable(inst: Instance, sol: Solution) -> StabilityVerdict:
    verdict = is_stable(inst, sol)
    if not verdict.stable:
        raise UnstableSolutionError(f"blocking pairs: {list(verdict.blocking_pairs)}")
    return verdict


def total_payoff(inst: Instance, payoffs: Mapping[tuple[str, str], Fraction]) -> dict[str, Fraction]:
    """Row sums p^t(i) = sum_j p(i, j), every player present."""
    out = {p: Fraction(0) for p in inst.players}
    for (i, j), q in payoffs.items():
        if not inst.has_edge(i, j):
            raise UnknownEdgeError(f"payoff entry on non-edge ({i},{j})")
        out[i] += q
    return out


# ---------------------------------------------------------------------------
# JSON wire format (`solver.solution_to_json` writes it)
# ---------------------------------------------------------------------------


def solution_from_json(inst: Instance, data: dict) -> Solution:
    if not isinstance(data, dict) or "matching" not in data:
        raise InputError("solution JSON must be an object with 'matching'")
    try:
        matching = [(item["u"], item["v"]) for item in data["matching"]]
        payoffs: PayoffMatrix = {}
        for item in data.get("payoffs", []):
            u, v = item["u"], item["v"]
            payoffs[(u, v)] = parse_rational(item["p_uv"])
            payoffs[(v, u)] = parse_rational(item["p_vu"])
        return make_solution(inst, matching, payoffs)
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad solution JSON: {exc!r}") from None
