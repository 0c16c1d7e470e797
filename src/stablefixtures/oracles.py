"""Exhaustive brute-force oracles, independent of the matching engines.

Only the `oracle` commands, `core-check --brute-force` and the tests import
this module, so `solve`, `core-check` and `value` never compile it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BoundExceededError
from .instance import Edge, Instance

BRUTE_FORCE_EDGE_BOUND = 22
HALF_BRUTE_FORCE_EDGE_BOUND = 12


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
