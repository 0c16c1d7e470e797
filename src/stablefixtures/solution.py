"""The solution record and the package's one compatibility-and-stability check.

A solution (M, p) pairs a b-matching M with a payoff matrix p. The paper's
rule is written once here (`_solution_faults`), generic over the number
type, so that `solve` checks its answer in its pass's integers and
`stability` checks a caller's solution in Fractions. Only a stable `solve`,
`verify-stable` and the library `transfers` load this module; `core-check`,
`value` and a `solve` without a stable solution never compile it. `solve`
writes a solution with `solver.solution_to_json`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import IncompatibleSolutionError, InternalError
from .instance import Edge, Instance
from .rationals import format_rational

PayoffMatrix = dict[tuple[str, str], Fraction]

# The payoff of an omitted entry; a Fraction is immutable, so one is shared.
_ZERO = Fraction(0)


class Solution(NamedTuple):
    """A b-matching plus a compatible directional payoff matrix.

    `payoffs` maps ordered pairs (i, j) to p(i, j); omitted entries are zero.
    """

    matching: frozenset[Edge]
    payoffs: PayoffMatrix

    def payoff(self, i: str, j: str) -> Fraction:
        return self.payoffs.get((i, j), _ZERO)


def _solution_faults(inst: Instance, sol: Solution, w: Mapping[Edge, object]):
    """The paper's compatibility-and-stability rule, written once:
    (violations, utilities, blocking pairs) of `sol` for the weights `w` of
    every canonical edge, all ints (`solve`'s split, on its pass's scale) or
    all Fractions; zeros take the weights' type. The violations come in
    `stability.check_solution`'s words: stray matched pairs sorted, degrees
    in player order, payoff entries, then edges in `inst.edges` order. Only
    without any come the utilities (a saturated player's least matched
    payoff, else 0) and the unmatched edges ij between players with capacity
    that block, u(i) + u(j) < w(ij), in `inst.edges` order.
    """
    zero = 0 * next(iter(w.values()), _ZERO)
    capacity, matching, payoffs = inst.capacity, sol.matching, sol.payoffs
    paid: dict[str, list] = {p: [] for p in inst.players}
    strays = sorted(matching - w.keys())
    out = [f"matching contains non-edge or non-canonical pair {u}-{v}" for (u, v) in strays]
    for (u, v) in matching:
        if (u, v) in w:
            paid[u].append(payoffs.get((u, v), zero))
            paid[v].append(payoffs.get((v, u), zero))
    for p, got in paid.items():
        if len(got) > capacity[p]:
            out.append(f"degree {len(got)} exceeds b({p}) = {capacity[p]}")
    for (i, j), q in payoffs.items():
        if (i, j) not in w and (j, i) not in w:
            out.append(f"payoff entry on non-edge ({i},{j})")
        elif q < 0:
            out.append(f"negative payoff p({i},{j}) = {format_rational(q)}")
    utility = {p: min(got) if got and len(got) == capacity[p] else zero for p, got in paid.items()}
    blocking = []
    for e in inst.edges:
        u, v = e
        p_uv, p_vu = payoffs.get(e, zero), payoffs.get((v, u), zero)
        if e in matching:
            if p_uv + p_vu != w[e]:
                out.append(
                    f"p({u},{v}) + p({v},{u}) = {format_rational(p_uv + p_vu)}"
                    f" != w = {format_rational(w[e])}"
                )
        elif p_uv or p_vu:
            out.append(f"nonzero payoff on unmatched edge {u}-{v}")
        elif capacity[u] and capacity[v] and utility[u] + utility[v] < w[e]:
            blocking.append(e)
    if out:
        return out, None, ()
    return out, utility, tuple(blocking)


def _require_own_stable(inst: Instance, sol: Solution, source: str, w: Mapping[Edge, object]) -> dict:
    """`_solution_faults` on a solution that `source` built itself, and its
    utilities: a violation or a blocking pair is a bug, not bad input, so it
    raises InternalError, also under `python -O`."""
    violations, utility, blocking = _solution_faults(inst, sol, w)
    if violations or blocking:
        fault = IncompatibleSolutionError(violations) if violations else f"blocking pairs: {list(blocking)}"
        raise InternalError(f"{source} produced an incompatible or unstable solution: {fault}")
    return utility
