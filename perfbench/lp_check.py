"""Inexact cross-checks of b-matching optima with scipy's HiGHS solvers.

The program computes in exact rationals; these floating-point optima are an
independent witness that its claimed values are right, not a second source
of truth, so they are compared with a relative tolerance.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

TOLERANCE = 1e-6


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def _optimum(players, caps, weights, integral: bool) -> float:
    edges = list(weights)
    if not edges:
        return 0.0
    index = {p: k for k, p in enumerate(players)}
    a = np.zeros((len(players), len(edges)))
    for k, (u, v) in enumerate(edges):
        a[index[u], k] = 1
        a[index[v], k] = 1
    cost = -np.array([float(weights[e]) for e in edges])
    res = milp(
        cost,
        constraints=LinearConstraint(a, -np.inf, np.array([caps[p] for p in players], float)),
        integrality=np.ones(len(edges)) if integral else np.zeros(len(edges)),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"scipy milp failed: {res.message}")
    return -res.fun


def optima(game) -> tuple[float, float]:
    """(maximum b-matching weight, LP optimum = maximum half-b-matching weight)."""
    return (
        _optimum(game.players, game.caps, game.weights, True),
        _optimum(game.players, game.caps, game.weights, False),
    )


def coalition_value(game, coalition) -> float:
    """v(S): maximum b-matching weight of the subgame induced by S."""
    members = set(coalition)
    players = [p for p in game.players if p in members]
    weights = {e: w for e, w in game.weights.items() if e[0] in members and e[1] in members}
    return _optimum(players, game.caps, weights, True)
