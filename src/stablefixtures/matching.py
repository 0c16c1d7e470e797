"""b-matchings and the exact maximum-weight engines.

Two engines, both exact over rationals:

* the general-graph engine gives each player min(b, deg) slots and hands
  them, with the integer-scaled weights, to the edge-gadget builder
  `blossom.max_weight_degree_subgraph` (imported only when this engine
  runs), which matches the gadget and reads the b-matching back;
* the bipartite engine runs successive shortest paths with vertex potentials
  on a small flow network with no super-source: each unit of a source-side
  player's capacity is routed from that player by one Dijkstra, which
  stops at the sink and stays short, since the player's own arc to the
  sink ("unit unused") bounds it. It additionally yields an optimal dual
  (y, d) of the degree-constrained LP, certified by weak duality.

Both run on the weights times their common denominator (`scale_to_integers`);
the LP pass and its certificate stay in those integers, and `Fraction`s are
built once, for the results.

The LP dual `DualSolution` and its pricing rule `_priced` live here too.
`lp_optimum` is the front end for every question about a game's optimum:
one unperturbed pass gives the LP optimum and an optimal dual (on the game
itself when it is bipartite, whose LP is integral, and otherwise on the
bipartite double cover of `cover`, which only that branch imports), and
the engine then runs only on the dual's complementary-slack residual
(`_slack_matching`), or on the whole game when that residual cannot reach
the LP optimum.

Names that left this module resolve here only for perfbench, on first use
(PEP 562): `max_weight_b_matching_bruteforce` from `oracles`,
`bipartite_max_weight_b_matching_with_duals` from `duals`, and
`duplicated_instance`, `max_half_b_matching_weight`, `is_half_b_matching`
and `half_matching_from_json` from `cover`.

Ties among optimal b-matchings are broken toward the lexicographically
smallest edge set under the instance's edge order, implemented by a weight
perturbation that is too small to disturb optimality. One rule decides
where it is paid: a cold engine run is tie-broken, and a warm one is not.
The only warm run is `_lp_optimum`'s whole-game engine, which runs only
when the game has no stable solution and whose weight is all that `solve`,
`core.game_value` and `core-check`'s v(N) read: its blossom starts from the
LP optimum's dual and its forced and residual edges, so only the slots
these edges leave free at a positive dual are left to match. `lp_optimum`,
whose matching `value` and the violation witnesses print, then finds that
game's tie-broken matching with one cold run (`_tie_broken`).

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from . import _moved_from
from .errors import InternalError
from .instance import Edge, Instance
from .rationals import format_rational, scale_to_integers

__getattr__ = _moved_from(
    __name__,
    oracles="max_weight_b_matching_bruteforce",
    duals="bipartite_max_weight_b_matching_with_duals",
    cover="duplicated_instance half_matching_from_json is_half_b_matching max_half_b_matching_weight",
)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def is_b_matching(inst: Instance, edges: Iterable[tuple[str, str]]) -> bool:
    """True iff every player meets at most b(i) of the given edges."""
    deg: dict[str, int] = {}
    for (u, v) in set(inst.edge_key(a, b) for (a, b) in edges):
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(d <= inst.b(p) for p, d in deg.items())


def weight(inst: Instance, edges: Iterable[tuple[str, str]]) -> Fraction:
    """Total weight of an edge set."""
    return sum(
        (inst.weight(u, v) for (u, v) in set(inst.edge_key(a, b) for (a, b) in edges)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# Integer scaling and lexicographic tie-breaking
# ---------------------------------------------------------------------------


def _perturbed(inst: Instance, base: Mapping[Edge, int]) -> dict[Edge, int]:
    """Integer weights `base` with a bonus of 2^(m-1-k) on the k-th edge.

    The bonuses sum to < 2^m while base gaps are multiples of 2^(m+1), so a
    perturbed optimum is an unperturbed optimum whose edge set is the
    greedy-lexicographically smallest one; in particular it is unique, and
    the same for every positive multiple of `base`.
    """
    edges = inst.edges
    m = len(edges)
    shift = 1 << (m + 1)
    return {e: base[e] * shift + (1 << (m - 1 - k)) for k, e in enumerate(edges)}


# ---------------------------------------------------------------------------
# General-graph engine: edge gadgets + blossom matching
# ---------------------------------------------------------------------------


def max_weight_b_matching(inst: Instance) -> tuple[frozenset[Edge], Fraction]:
    """A maximum-weight b-matching and its exact weight.

    Bipartite instances go through the flow engine; general instances through
    the edge-gadget graph and an exact integer blossom matching.
    """
    if inst.m == 0:
        return frozenset(), Fraction(0)
    matching = _engine(inst, scale_to_integers(inst.edge_weights())[0])
    return matching, weight(inst, matching)


def _engine(inst: Instance, base: Mapping[Edge, int], start=None) -> frozenset[Edge]:
    """A maximum-weight b-matching for the integer weights `base`, any
    positive multiple of the scaled weights: SSP when bipartite, else the
    edge gadgets. Cold it is the tie-broken optimum, found on the perturbed
    `base`; a `start`, given only on a game with an LP gap (never
    bipartite), warms the edge gadgets on `base` itself and returns
    whichever optimum they find (`_general_matching`)."""
    coloring = inst.two_coloring()
    if coloring is not None:
        matching, _ = _ssp_flow(inst, _perturbed(inst, base), coloring)
    else:
        matching = _general_matching(inst, base, start)
    if not is_b_matching(inst, matching):
        raise InternalError("matching engine overfilled a player")
    return matching


def _general_matching(inst: Instance, base: Mapping[Edge, int], start=None) -> frozenset[Edge]:
    """`_engine` on a general graph: through the edge gadget.

    Player i gets min(b(i), deg(i)) zero-price slots, and each edge its
    doubled perturbed weight, in `blossom.max_weight_degree_subgraph`: an
    edge is gadgeted when both its ends have two or more slots and joins
    them directly otherwise. The perturbed optimum is unique, so the
    gadget's shape cannot change the answer. The gadget's profit is twice
    the weight of the edges it selects, which certifies the read-back.

    `start` = (y, used), an optimal LP dual on the scale of 2 * `base` and
    a complementary-slack b-matching, instead starts the blossom warm on
    `base` itself (`blossom.max_weight_degree_subgraph`).
    """
    from .blossom import max_weight_degree_subgraph

    weights = _perturbed(inst, base) if start is None else base
    copies = {p: range(min(inst.b(p), len(inst.neighbors(p)))) for p in inst.players}
    slots = {p: [((p, c), 0) for c in copies[p]] for p in inst.players}
    edges = [(i, j, 2 * weights[(i, j)]) for (i, j) in inst.edges]
    selected, profit = max_weight_degree_subgraph(slots, edges, [], (), start)
    if profit != 2 * sum(weights[e] for e in selected):
        raise InternalError("edge gadget matching does not weigh twice its b-matching")
    return frozenset(selected)


# ---------------------------------------------------------------------------
# The LP dual
# ---------------------------------------------------------------------------


class DualSolution(NamedTuple):
    """Point (y, d) of the dual of the degree-constrained LP

        max sum w(ij) x(ij)   s.t.  sum_j x(ij) <= b(i),  0 <= x <= 1,

    whose constraints are y(i) + y(j) + d(ij) >= w(ij), y >= 0, d >= 0.
    """

    y: dict[str, Fraction]
    d: dict[Edge, Fraction]


def _priced(inst: Instance, w: Mapping[Edge, Fraction], y: Mapping[str, Fraction]):
    """Prices y, with capacity-0 players (zero objective coefficient) priced
    at their heaviest edge, and the pointwise smallest feasible d(ij) =
    max(w(ij) - y(i) - y(j), 0), for weights and prices that are all ints
    or all `Fraction`s."""
    y = dict(y)
    for p in inst.players:
        if inst.capacity[p] == 0:
            y[p] = max([0] + [w[inst.edge_key(p, q)] for q in inst.neighbors(p)])
    d = {}
    for (u, v) in inst.edges:
        gap = w[(u, v)] - y[u] - y[v]
        d[(u, v)] = gap if gap > 0 else 0
    return y, d


def _objective(inst: Instance, y: Mapping[str, Fraction], d: Mapping[Edge, Fraction]):
    """sum b(i) y(i) + sum d(ij) in the entries' own type (Fraction or int)."""
    capacity = inst.capacity
    return sum(capacity[p] * y[p] for p in inst.players) + sum(d[e] for e in inst.edges)


# ---------------------------------------------------------------------------
# Bipartite engine: successive shortest paths with potentials
# ---------------------------------------------------------------------------


def _certified_pass(inst: Instance, base: Mapping[Edge, int], scale: int, coloring):
    """The maximum base(M) of a bipartite instance whose weights times
    `scale` are `base`, and an optimal dual (y, d) on that scale, from one
    unperturbed SSP pass, priced by `_priced`, so d >= 0 and the edge
    constraints hold by construction. Weak duality certifies both, also
    under `python -O`: M is a b-matching, y >= 0 and base(M) = sum b y +
    sum d; InternalError otherwise.
    """
    matching, y = _ssp_flow(inst, base, coloring)
    y, d = _priced(inst, base, y)
    if not is_b_matching(inst, matching):
        raise InternalError("bipartite engine overfilled a player")
    if any(q < 0 for q in y.values()):
        raise InternalError("bipartite engine read off an infeasible dual")
    primal, objective = sum(base[e] for e in matching), _objective(inst, y, d)
    if primal != objective:
        raise InternalError(
            f"duality gap in bipartite engine: primal {format_rational(Fraction(primal, scale))}, "
            f"dual {format_rational(Fraction(objective, scale))}"
        )
    return primal, y, d


def _fraction_dual(y: Mapping[str, int], d: Mapping[Edge, int], scale: int) -> DualSolution:
    """The dual whose entries times `scale` are (y, d)."""
    frac = {p: Fraction(q, scale) for p, q in y.items()}
    return DualSolution(y=frac, d={e: Fraction(q, scale) for e, q in d.items()})


def _ssp_flow(
    inst: Instance, int_weights: dict[Edge, int], coloring: dict[str, int]
) -> tuple[frozenset[Edge], dict[str, int]]:
    """Max-weight flow via successive shortest paths; returns matching and
    integer dual prices.

    Arc costs are negated weights, and every active player has an arc of
    capacity b and cost 0 to the sink, which from a source-side player means
    "this unit stays unused". Each unit is routed from its own player (Ahuja,
    Magnanti & Orlin, Network Flows, sec. 9.7), source-side players in player
    order, by one Dijkstra that stops once the sink is settled. Every search
    reaches the sink: nothing enters a player before its turn, so its
    unused-unit arc is still free. Adding dist - dist[SNK] to the settled
    nodes' potentials is the full update shifted by a constant, so reduced
    costs stay >= 0 and the sink's potential never moves.

    A player stops at its first unused unit: every later one would take the
    same arc at reduced cost 0 and move no potential. At most deg units are
    matched, so a player costs at most min(b, deg + 1) searches, and that
    unused unit is what prices a player with b above its degree at 0.

    Prices are max(0, +-(pi(p) - pi(SNK))), + on the source side, so an
    edge's residual arc gives y(u) + y(v) >= w(uv) if it is unmatched and <=
    if matched. They are complementary slack: a player with room left keeps
    an arc to the sink (sink side) or from it (an unused unit), which caps
    its price at 0, and one with a matched edge keeps the other, so only
    unmatched players are clipped. The negative-reduced-cost guard covers
    only the arcs scanned before the sink is settled; the weak-duality
    certificate of `_certified_pass` remains the backstop for a wrong dual.
    """
    capacity = inst.capacity
    active = [p for p in inst.players if capacity[p] > 0]
    ids = {p: k + 1 for k, p in enumerate(active)}
    SNK = 0

    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(len(active) + 1)]

    def add_arc(a: int, b: int, c: int, w: int) -> None:
        adj[a].append(len(to))
        to.append(b)
        cap.append(c)
        cost.append(w)
        adj[b].append(len(to))
        to.append(a)
        cap.append(0)
        cost.append(-w)

    # A player's first arc is its arc to the sink.
    for p in active:
        add_arc(ids[p], SNK, capacity[p], 0)
    # Initial potentials from one relaxation pass over the source-to-sink
    # DAG: a sink-side player at its cheapest arc, the sink at their minimum.
    edge_arc: dict[Edge, int] = {}
    pi: list[int] = [0] * len(adj)
    for (u, v) in inst.edges:
        if capacity[u] == 0 or capacity[v] == 0:
            continue
        a, b = (u, v) if coloring[u] == 0 else (v, u)
        w = -int_weights[(u, v)]
        edge_arc[(u, v)] = len(to)
        add_arc(ids[a], ids[b], 1, w)
        if w < pi[ids[b]]:
            pi[ids[b]] = w
    pi[SNK] = min([0] + [pi[ids[p]] for p in active if coloring[p] == 1])

    heappush, heappop = heapq.heappush, heapq.heappop
    for source in [ids[p] for p in active if coloring[p] == 0]:
        unused = adj[source][0]
        for _ in range(cap[unused]):
            # `settled` maps each settled node to its dist, for the update below.
            dist, parent, settled = {source: 0}, {}, {}
            heap = [(0, source)]
            while True:
                d, node = heappop(heap)
                if node in settled:
                    continue
                settled[node] = d
                if node == SNK:
                    break
                offset = d + pi[node]
                for arc in adj[node]:
                    if cap[arc] <= 0:
                        continue
                    head = to[arc]
                    nd = offset + cost[arc] - pi[head]
                    if nd < d:
                        raise InternalError("negative reduced cost in the SSP engine")
                    known = dist.get(head)
                    if known is None or nd < known:
                        dist[head] = nd
                        parent[head] = arc
                        heappush(heap, (nd, head))
            node = SNK
            while node != source:
                arc = parent[node]
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                node = to[arc ^ 1]
            for node, dk in settled.items():
                pi[node] += dk - d
            if parent[SNK] == unused:
                break

    matched = frozenset(e for e, arc in edge_arc.items() if cap[arc] == 0)
    prices = dict.fromkeys(inst.players, 0)
    for p in active:
        gap = pi[ids[p]] - pi[SNK]
        prices[p] = max(0, gap if coloring[p] == 0 else -gap)
    return matched, prices


# ---------------------------------------------------------------------------
# The dual-first front end
# ---------------------------------------------------------------------------


def _slack_matching(inst: Instance, w: Mapping[Edge, int], y, d):
    """The forced edges (d > 0) of an optimal LP dual (y, d) of `inst` whose
    integer weights on the dual's scale are `w`, plus the tie-broken
    optimum of its complementary-slack residual, and that residual: the
    tight edges (d = 0, y(u) + y(v) = w(uv)) between players with capacity
    left after the forced edges, on that capacity.

    Every LP optimum takes every forced edge and otherwise only tight ones.
    So when an integral optimum reaches the LP optimum, the optimal
    b-matchings are exactly the forced edges plus a maximum-weight
    b-matching of the residual, whose edges keep their order in `inst`, and
    the tie-break picks the same set on the residual as on `inst`.
    """
    forced = frozenset(e for e in inst.edges if d[e] > 0)
    free = dict(inst.capacity)
    for (u, v) in forced:
        free[u] -= 1
        free[v] -= 1
    if any(c < 0 for c in free.values()):
        raise InternalError("forced edges of the optimal dual overfill a player")
    weights = inst.edge_weights()
    tight = [
        (u, v, weights[(u, v)])
        for (u, v) in inst.edges
        if d[(u, v)] == 0 and free[u] and free[v] and y[u] + y[v] == w[(u, v)]
    ]
    residual = Instance._derived(inst.players, free, tight)
    return forced | (_engine(residual, w) if residual.m else frozenset()), residual


class LPOptimum(NamedTuple):
    """The tie-broken maximum-weight b-matching of a game and its weight,
    the LP (half-b-matching) optimum `half` and an optimal LP dual. The game
    has a stable solution iff weight == half."""

    matching: frozenset[Edge]
    weight: Fraction
    half: Fraction
    dual: DualSolution


def lp_optimum(inst: Instance) -> LPOptimum:
    """The game's tie-broken maximum-weight b-matching, read off an optimal
    LP dual where the dual settles it.

    When the integral optimum reaches the LP optimum, it is the optimal
    dual's forced edges plus the tie-broken optimum of its complementary-
    slack residual (`_slack_matching`). Otherwise the engine runs on the
    whole game, unless the residual already is the whole game (every edge
    between players with capacity tight, none forced): warm for the weight
    (`_lp_optimum`), then cold for the tie-broken matching (`_tie_broken`).

    The LP optimum and dual come from one unperturbed pass: on G itself
    when G is bipartite, whose LP is integral, and on the double cover
    otherwise.
    """
    opt, _, _, tied = _lp_optimum(inst)
    return _tie_broken(inst, opt, tied)


def _tie_broken(inst: Instance, opt: LPOptimum, tied: bool) -> LPOptimum:
    """`lp_optimum(inst)` from `_lp_optimum(inst)`'s first and last
    entries: only a matching that is not yet the tie-broken one is found
    again, by the cold whole-game engine."""
    if tied:
        return opt
    return opt._replace(matching=_engine(inst, scale_to_integers(inst.edge_weights())[0]))


def _lp_optimum(inst: Instance):
    """`lp_optimum` up to the tie-break, its dual as integers (y, d, denom):
    the dual times `denom`, the weights' scale (twice it for the cover),
    the double cover's state for `cover._half_witness` (`cover._cover_pass`;
    None when the game is bipartite, which never imports `cover`), and
    whether `matching` is the tie-broken one: it is unless the whole-game
    engine ran, warm from the dual and the forced and residual edges, which
    are complementary-slack with it. All of it runs on those integers.
    """
    base, scale = scale_to_integers(inst.edge_weights())
    coloring, cover = inst.two_coloring(), None
    if coloring is not None:
        half, y, d = _certified_pass(inst, base, scale, coloring)
        denom, w = scale, base
    else:
        from .cover import _cover_pass

        half, y, d, cover = _cover_pass(inst, base, scale)
        denom, w = 2 * scale, {e: 2 * q for e, q in base.items()}
    matching, residual = _slack_matching(inst, w, y, d)
    if not is_b_matching(inst, matching):
        raise InternalError("forced and residual edges overfill a player")
    total = sum(w[e] for e in matching)
    # A forced edge joins two players with capacity and is never in the residual.
    tied = total == half or residual.m == sum(1 for (u, v) in inst.edges if inst.b(u) and inst.b(v))
    if not tied:
        matching = _engine(inst, base, (y, matching))
        total = sum(w[e] for e in matching)
        if total == half:
            raise InternalError(
                "a b-matching attains the half optimum, but none is "
                "complementary-slack with the optimal dual"
            )
    if half < total:
        raise InternalError(
            f"half-b-matching optimum {format_rational(Fraction(half, denom))} below "
            f"b-matching optimum {format_rational(Fraction(total, denom))}"
        )
    dual = _fraction_dual(y, d, denom)
    return LPOptimum(matching, Fraction(total, denom), Fraction(half, denom), dual), (y, d, denom), cover, tied


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def matching_to_json(inst: Instance, matching: frozenset[Edge]) -> list:
    return [{"u": u, "v": v} for (u, v) in inst.edges if (u, v) in matching]
