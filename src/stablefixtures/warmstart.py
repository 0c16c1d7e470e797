"""Warm starts for the blossom engine, imported only by a run that starts
warm: the whole-game b-matching of a game whose integral optimum falls
short of its LP optimum (`matching._lp_optimum`). Every other blossom run,
the tie-broken ones and `core-check`'s path/cycle systems included, is
cold: the same stage loop from the default start, every vertex free at the
largest weight, which needs no check, so it does not compile this module.

`_gadget_start` maps an LP optimum onto the edge gadget of
`blossom.max_weight_degree_subgraph`, and `_check_start` refuses a start
that `blossom.max_weight_matching` cannot take, also under `python -O`.
"""

from __future__ import annotations

from .errors import InternalError


def _gadget_start(slots, edges, joins, gadget, index, bonus, y, used):
    """The (matched, dual) start of `blossom.max_weight_matching` on the edge
    gadget for prices y and b-matching `used`, as
    `blossom.max_weight_degree_subgraph` describes it, given the gadget's
    `joins`: for each edge, whether it is gadgeted and its node pairs."""
    dual, pairs = {}, []
    for p, own in slots.items():
        dual.update((slot, 2 * (y[p] - price)) for (slot, price) in own)
    free = {p: iter(own) for p, own in slots.items()}
    for (u, v, w), (gadgeted, join) in zip(edges, joins):
        if gadgeted:
            ends = join[0]
            surplus = 0 if (u, v) in used else y[u] + y[v] - w
            for end, p in zip(ends, (u, v)):
                dual[end] = w + 2 * bonus - 2 * y[p] + surplus
        if (u, v) not in used:
            if gadgeted:
                pairs.append(ends)
            continue
        (a, _), (b, _) = next(free[u]), next(free[v])
        if gadgeted:
            pairs += [(ends[0], a), (ends[1], b)]
        else:
            pairs.append((a, b))
            dual[a if len(slots[u]) == 1 else b] += 2 * max(w - y[u] - y[v], 0)
    where = {(a, b): k for k, (a, b, _) in enumerate(gadget)}
    matched = [-1] * len(index)
    for (a, b) in pairs:
        matched[index[a]] = matched[index[b]] = where[index[a], index[b]]
    return matched, [dual[a] for a in index]


def _check_start(n, edges, matched, dual) -> None:
    """Raise InternalError unless (matched, dual) is a start that
    `blossom.max_weight_matching` describes."""
    if len(matched) != n or len(dual) != n or any(type(u) is not int or u < 0 for u in dual):
        raise InternalError("blossom start duals are negative or missing")
    if any(k == -1 and u % 2 for k, u in zip(matched, dual)):
        raise InternalError("blossom start leaves a free vertex at an odd dual")
    for v, k in enumerate(matched):
        if k != -1 and not (0 <= k < len(edges) and v in edges[k][:2] and matched[sum(edges[k][:2]) - v] == k):
            raise InternalError(f"blossom start mate at vertex {v} is not a matching edge")
    for k, (i, j, w) in enumerate(edges):
        slack = dual[i] + dual[j] - 2 * w
        if slack < 0 or slack and matched[i] == k:
            raise InternalError(f"blossom start leaves edge {(i, j)} with slack {slack}/2")
