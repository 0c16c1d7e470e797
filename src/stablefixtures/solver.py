"""Existence test and construction of stable solutions via LP duality.

The degree-constrained LP relaxation of maximum-weight b-matching

    max sum w(ij) x(ij)   s.t.  sum_j x(ij) <= b(i),  0 <= x <= 1

has dual variables y (per player) and d (per edge) with constraints
y(i) + y(j) + d(ij) >= w(ij), y >= 0, d >= 0. A stable solution exists iff
the integral optimum equals the fractional (half-b-matching) optimum; in
that case an optimal dual (read off one flow pass on the game itself when it
is bipartite, on its bipartite double cover otherwise) turns a
maximum-weight b-matching into stable payoffs p(i,j) = y(i) + xi(i,j) with
xi splitting the slack d(ij) of each matched edge.

`solve` checks its arguments (`_split_arguments`) and reads one
`matching._lp_optimum`, which certifies its tie-broken b-matching and
integer dual by weak duality; `_stable_solution` splits that dual, and one
stability pass on the payoffs, whose failure is an InternalError, is the
last check. A game without a stable solution prints only its b-matching's
weight, which the warm whole-game engine finds, and its witness, tie-broken
on the double cover's complementary-slack residual alone and certified
there, in the pass's integers, to reach the half optimum
(`cover._half_witness`). Each answer imports only what it runs: the stable
one `stability`, the other `cover`. The `Fraction` dual path
(`stable_from_dual`, which certifies a caller's dual itself) lives in
`duals`; `solver` resolves four of its names only for perfbench (PEP 562),
and binds `DualSolution`, which perfbench also reads here.

Pure pipeline over immutable inputs; no global state.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import _moved_from
from .errors import InputError
from .instance import SPLIT_RULES, Instance
from .matching import DualSolution, _lp_optimum
from .rationals import format_rational

if TYPE_CHECKING:
    from .cover import HalfBMatching
    from .stability import Solution

__getattr__ = _moved_from(
    __name__, duals="dual_from_duplicated dual_objective is_dual_feasible stable_from_dual"
)


class SolveOutcome(NamedTuple):
    """Either a stable solution with its dual certificate, or the fractional
    witness proving none exists."""

    stable: bool
    matching_weight: Fraction
    half_weight: Fraction
    solution: Solution | None = None
    dual: DualSolution | None = None
    witness: HalfBMatching | None = None


def _split_arguments(inst: Instance, split_rule: str, sellers: Iterable[str] | None):
    """`sellers` as a tuple, or None, once `split_rule` is known
    (InputError otherwise) and every seller is a player
    (UnknownPlayerError otherwise): the entry check of `solve` and
    `duals.stable_from_dual`."""
    if split_rule not in SPLIT_RULES:
        raise InputError(f"split_rule must be one of {SPLIT_RULES}")
    if sellers is None:
        return None
    sellers = tuple(sellers)
    for p in sellers:
        inst.index(p)
    return sellers


def _stable_solution(inst, m, scaled, split_rule, sellers) -> Solution:
    """Split a certified optimal dual, given as `scaled` = (y, d, denom), the
    dual times denom, into payoffs on the maximum-weight b-matching m over
    2 * denom, for arguments that `_split_arguments` checked. The caller has
    certified both by weak duality (`matching._lp_optimum` for `solve`,
    `duals.stable_from_dual` for a caller's dual), so every matched edge is
    tight and the payoffs are stable; one final compatibility-and-stability
    check confirms it, and its failure is an InternalError.
    """
    from .stability import PayoffMatrix, Solution, _require_own_stable, resolve_sides

    y, d, denom = scaled
    side = resolve_sides(inst, sellers) if split_rule == "seller_side" else None
    payoffs: PayoffMatrix = {}
    for (u, v) in m:
        d_uv = 2 * d[(u, v)]
        if split_rule == "half":
            xi_u = d[(u, v)]
        else:
            xi_u = 0 if u in side else d_uv
        payoffs[(u, v)] = Fraction(2 * y[u] + xi_u, 2 * denom)
        payoffs[(v, u)] = Fraction(2 * y[v] + d_uv - xi_u, 2 * denom)
    sol = Solution(matching=m, payoffs=payoffs)
    _require_own_stable(inst, sol, "the dual split")
    return sol


def solve(
    inst: Instance,
    split_rule: str = "half",
    sellers: Iterable[str] | None = None,
) -> SolveOutcome:
    """Decide and construct: stable solution + dual certificate, or the
    heavier half-b-matching witness proving none exists.

    `lp_optimum` gives the half-b-matching optimum, an optimal dual and the
    tie-broken b-matching, matched on the dual's complementary-slack
    residual where that reaches the half optimum, both certified by weak
    duality; `_stable_solution` splits the same dual, in the scaled integers
    the pass produced. Otherwise only the b-matching's weight is
    printed, which the warm whole-game engine finds, and the witness is the
    double cover's forced edges plus the tie-broken optimum of its own
    complementary-slack residual, which `cover._half_witness` certifies to
    reach the half optimum. An unknown
    `split_rule` or a seller who is not a player is refused first, on
    either branch.
    """
    sellers = _split_arguments(inst, split_rule, sellers)
    opt, scaled, cover, _ = _lp_optimum(inst)
    if opt.weight != opt.half:
        # A bipartite game is always stable, so the pass ran on the cover.
        from .cover import _half_witness

        return SolveOutcome(
            stable=False,
            matching_weight=opt.weight,
            half_weight=opt.half,
            witness=_half_witness(inst, cover),
        )
    sol = _stable_solution(inst, opt.matching, scaled, split_rule, sellers)
    return SolveOutcome(
        stable=True,
        matching_weight=opt.half,
        half_weight=opt.half,
        solution=sol,
        dual=opt.dual,
    )


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def dual_to_json(inst: Instance, dual: DualSolution) -> dict:
    return {
        "y": {p: format_rational(dual.y[p]) for p in inst.players},
        "d": [
            {"u": u, "v": v, "value": format_rational(dual.d[(u, v)])}
            for (u, v) in inst.edges
        ],
    }


def outcome_to_json(inst: Instance, outcome: SolveOutcome) -> dict:
    data = {
        "status": "stable" if outcome.stable else "no_stable",
        "b_matching_weight": format_rational(outcome.matching_weight),
        "half_b_matching_weight": format_rational(outcome.half_weight),
    }
    if outcome.stable:
        from .stability import solution_to_json

        data["solution"] = solution_to_json(inst, outcome.solution)
        data["dual"] = dual_to_json(inst, outcome.dual)
    else:
        from .cover import half_matching_to_json

        data["witness"] = half_matching_to_json(inst, outcome.witness)
    return data
