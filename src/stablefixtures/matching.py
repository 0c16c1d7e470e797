"""b-matchings, half-b-matchings, and the exact maximum-weight engines.

Two engines, both exact over rationals:

* the general-graph engine gives each player min(b, deg) slots and hands
  them, with the integer-scaled weights, to the edge-gadget builder
  `blossom.max_weight_degree_subgraph` (imported only when this engine
  runs), which matches the gadget and reads the b-matching back;
* the bipartite engine runs successive shortest paths with vertex potentials
  on a small flow network, which additionally yields an optimal dual (y, d)
  of the degree-constrained LP, certified by weak duality.

Both run on the weights times their common denominator (`scale_to_integers`);
the LP pass, its certificate and the cover fold stay in those integers, and
`Fraction`s are built once, for the results.

The LP dual `DualSolution` and its pricing rule `_priced` live here too;
its `Fraction` checks, which no CLI request runs, live in `duals`, and
`matching` resolves two of `duals`' and `oracles`' names only for
perfbench (PEP 562). `lp_optimum` is the front end for every
question about a game's optimum: one unperturbed pass gives the LP optimum
and an optimal dual (on the game itself when it is bipartite, whose LP is
integral, and on the bipartite double cover, `_cover_pass`, otherwise),
and the engine then runs only on the dual's complementary-slack residual,
or on the whole game when that residual cannot reach the LP optimum.

Ties among optimal b-matchings are broken toward the lexicographically
smallest edge set under the instance's edge order, implemented by a weight
perturbation that is too small to disturb optimality.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from . import _moved_from
from .errors import InternalError
from .instance import Edge, Instance, _fresh_name
from .rationals import format_rational, parse_rational, scale_to_integers

__getattr__ = _moved_from(
    __name__,
    oracles="max_weight_b_matching_bruteforce",
    duals="bipartite_max_weight_b_matching_with_duals",
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
    matching = _tie_broken(inst, scale_to_integers(inst.edge_weights())[0])
    return matching, weight(inst, matching)


def _tie_broken(inst: Instance, base: Mapping[Edge, int]) -> frozenset[Edge]:
    """The tie-broken optimum of the integer weights `base`, any positive
    multiple of the scaled weights: SSP on the perturbed `base` when
    bipartite, else the edge gadgets."""
    coloring = inst.two_coloring()
    if coloring is not None:
        matching, _ = _ssp_flow(inst, _perturbed(inst, base), coloring)
    else:
        matching = _general_matching(inst, base)
    if not is_b_matching(inst, matching):
        raise InternalError("matching engine overfilled a player")
    return matching


def _general_matching(inst: Instance, base: Mapping[Edge, int]) -> frozenset[Edge]:
    """The tie-broken optimum of `base` through the edge gadget.

    Player i gets min(b(i), deg(i)) zero-price slots, and each edge its
    doubled perturbed weight, in `blossom.max_weight_degree_subgraph`: an
    edge is gadgeted when both its ends have two or more slots and joins
    them directly otherwise. The perturbed optimum is unique, so the
    gadget's shape cannot change the answer. The gadget's profit is twice
    the perturbed weight of the edges it selects, which certifies the
    read-back.
    """
    from .blossom import max_weight_degree_subgraph

    perturbed = _perturbed(inst, base)
    copies = {p: range(min(inst.b(p), len(inst.neighbors(p)))) for p in inst.players}
    slots = {p: [((p, c), 0) for c in copies[p]] for p in inst.players}
    edges = [(i, j, 2 * w) for (i, j), w in perturbed.items()]
    selected, profit = max_weight_degree_subgraph(slots, edges, [], ())
    if profit != 2 * sum(perturbed[e] for e in selected):
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
# Half-b-matchings and the duplicated instance
# ---------------------------------------------------------------------------


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


class DuplicatedInstance(NamedTuple):
    """Bipartite double cover with half-weights.

    Each player i splits into left/right copies with capacity b(i); each edge
    ij becomes the two cross edges left(i)-right(j) and left(j)-right(i) of
    weight w(ij)/2. Its integral optimum equals the half-b-matching optimum
    of the original.
    """

    instance: Instance
    left: dict[str, str]
    right: dict[str, str]


def duplicated_instance(inst: Instance) -> DuplicatedInstance:
    used: set[str] = set()
    players: list[str] = []
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    for i in inst.players:
        li = _fresh_name(used, i + "'")
        ri = _fresh_name(used, i + "''")
        left[i], right[i] = li, ri
        players.extend((li, ri))
    capacity = {}
    for i in inst.players:
        capacity[left[i]] = inst.b(i)
        capacity[right[i]] = inst.b(i)
    edges = []
    for (i, j) in inst.edges:
        half = inst.weight(i, j) / 2
        edges.append((left[i], right[j], half))
        edges.append((left[j], right[i], half))
    dup = Instance._derived(players, capacity, edges)
    if not dup.is_bipartite():
        raise InternalError("double cover is not bipartite")
    return DuplicatedInstance(dup, left, right)


def max_half_b_matching_weight(inst: Instance) -> tuple[Fraction, HalfBMatching]:
    """Maximum weight over half-b-matchings, with the tie-broken witness.

    Computed as the maximum-weight b-matching of the duplicated instance
    (one perturbed pass on the double cover): f(ij) = (x(i'j'') + x(i''j')) / 2
    preserves the weight exactly. Callers that need only the value should use
    `lp_optimum`, whose unperturbed pass gives it as `half`.
    """
    return _half_witness(inst, *_cover_weights(inst, scale_to_integers(inst.edge_weights())[0]))


def _cover_weights(inst: Instance, base: Mapping[Edge, int]):
    """The double cover and its integer weights: both cross edges of ij
    weigh base(ij), that is w(ij)/2 on twice the scale of `base`."""
    dup = duplicated_instance(inst)
    key, left, right = dup.instance.edge_key, dup.left, dup.right
    cover_base = {}
    for (i, j) in inst.edges:
        cover_base[key(left[i], right[j])] = cover_base[key(left[j], right[i])] = base[(i, j)]
    return dup, cover_base


def _half_witness(inst: Instance, dup: DuplicatedInstance, cover_base) -> tuple[Fraction, HalfBMatching]:
    """`max_half_b_matching_weight` from the double cover `dup` and its
    integer weights `cover_base` (`_cover_weights`)."""
    matching = _tie_broken(dup.instance, cover_base)
    dup_weight = weight(dup.instance, matching)
    values: dict[Edge, Fraction] = {}
    for (i, j) in inst.edges:
        hits = 0
        for (a, b) in ((dup.left[i], dup.right[j]), (dup.left[j], dup.right[i])):
            if dup.instance.edge_key(a, b) in matching:
                hits += 1
        values[(i, j)] = Fraction(hits, 2)
    witness = HalfBMatching(values)
    if not is_half_b_matching(inst, values) or witness.weight(inst) != dup_weight:
        raise InternalError(
            "double-cover matching does not fold to a half-b-matching of its weight"
        )
    return dup_weight, witness


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

    Arc costs are negated weights; augmentation stops when no residual
    source-sink path has negative true cost. Final potentials are capped so
    that the zero-gap dual can be read off them directly.

    Each Dijkstra stops once the sink is settled (Ahuja, Magnanti & Orlin,
    Network Flows, ch. 9). That leaves the path and the potentials as a full
    run would: every unsettled node has tentative distance >= dist[SNK], so
    an augmenting round raises it by the cut dist[SNK] either way, and the
    last round by its threshold <= dist[SNK]. A round that never reaches
    the sink settles every reachable node, as before. Every path crosses an
    edge arc of capacity 1, so each augmentation carries one unit. The
    negative-reduced-cost guard covers only the arcs scanned before the sink
    is settled; the weak-duality certificate of `_certified_pass` remains
    the backstop for a wrong dual.
    """
    capacity = inst.capacity
    active = [p for p in inst.players if capacity[p] > 0]
    ids = {p: k + 2 for k, p in enumerate(active)}
    SRC, SNK = 0, 1
    nnodes = len(active) + 2

    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(nnodes)]

    def add_arc(a: int, b: int, c: int, w: int) -> None:
        adj[a].append(len(to))
        to.append(b)
        cap.append(c)
        cost.append(w)
        adj[b].append(len(to))
        to.append(a)
        cap.append(0)
        cost.append(-w)

    edge_arc: dict[Edge, int] = {}
    for p in active:
        if coloring[p] == 0:
            add_arc(SRC, ids[p], capacity[p], 0)
        else:
            add_arc(ids[p], SNK, capacity[p], 0)
    # Initial potentials from one relaxation pass over the source-to-sink
    # DAG: a sink-side player at its cheapest arc, the sink at their minimum.
    pi: list[int] = [0] * nnodes
    for (u, v) in inst.edges:
        if capacity[u] == 0 or capacity[v] == 0:
            continue
        a, b = (u, v) if coloring[u] == 0 else (v, u)
        w = -int_weights[(u, v)]
        edge_arc[(u, v)] = len(to)
        add_arc(ids[a], ids[b], 1, w)
        for p in (u, v):
            if coloring[p] == 1 and w < pi[ids[p]]:
                pi[ids[p]] = w
    pi[SNK] = min([0] + [pi[ids[p]] for p in active if coloring[p] == 1])

    heappush, heappop = heapq.heappush, heapq.heappop
    while True:
        # None marks a node not reached; ints of any size compare exactly.
        dist: list[int | None] = [None] * nnodes
        settled = [False] * nnodes
        parent = [-1] * nnodes
        dist[SRC] = 0
        heap = [(0, SRC)]
        while heap:
            d, node = heappop(heap)
            if settled[node]:
                continue
            settled[node] = True
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
                known = dist[head]
                if known is None or nd < known:
                    dist[head] = nd
                    parent[head] = arc
                    heappush(heap, (nd, head))
        cut = dist[SNK]
        augment = cut is not None and cut + pi[SNK] < 0
        if augment:
            node = SNK
            while node != SRC:
                arc = parent[node]
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                node = to[arc ^ 1]
        else:
            cut = max(0, -pi[SNK])
        for k in range(nnodes):
            dk = dist[k]
            pi[k] += cut if dk is None or dk > cut else dk
        if not augment:
            break

    matched = frozenset(e for e, arc in edge_arc.items() if cap[arc] == 0)
    prices: dict[str, int] = {}
    for p in active:
        if coloring[p] == 0:
            prices[p] = max(0, pi[ids[p]])
        else:
            prices[p] = max(0, -pi[ids[p]])
    for p in inst.players:
        prices.setdefault(p, 0)
    return matched, prices


# ---------------------------------------------------------------------------
# The dual-first front end
# ---------------------------------------------------------------------------


def _cover_pass(inst: Instance, dup: DuplicatedInstance, cover_base: Mapping[Edge, int], scale: int):
    """The half-b-matching optimum and an optimal dual, times 2 * scale, from
    one `_certified_pass` on the double cover `dup`, whose cross edges of ij
    weigh w(ij)/2 = base(ij) / (2 * scale) (`_cover_weights`). Folding its
    dual (y(i) = y(i') + y(i''), d(ij) = the slacks of both cross edges)
    keeps it feasible and keeps its objective, the LP optimum.
    """
    cover, left, right = dup.instance, dup.left, dup.right
    key = cover.edge_key
    half, cy, cd = _certified_pass(cover, cover_base, 2 * scale, cover.two_coloring())
    y = {i: cy[left[i]] + cy[right[i]] for i in inst.players}
    d = {
        (i, j): cd[key(left[i], right[j])] + cd[key(left[j], right[i])]
        for (i, j) in inst.edges
    }
    return half, y, d


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

    Every LP optimum takes the edges with d > 0 (forced) and otherwise only
    tight edges (d = 0, y(u) + y(v) = w(uv)). So when the integral optimum
    reaches the LP optimum, the optimal b-matchings are exactly the forced
    edges plus a maximum-weight b-matching of the tight residual within the
    capacity they leave free, and the tie-break on the residual (same edge
    order) picks the same set as on the whole game. Otherwise the engine
    runs on the whole game, unless the residual already is the whole game
    (no forced edge, every edge between players with capacity tight).

    The LP optimum and dual come from one unperturbed pass: on G itself
    when G is bipartite, whose LP is integral, and on the double cover
    otherwise.
    """
    return _lp_optimum(inst)[0]


def _lp_optimum(inst: Instance):
    """`lp_optimum`, its dual as integers (y, d, denom): the dual times
    `denom`, the weights' scale (twice it for the cover), and the double
    cover with its integer weights (`_cover_weights`; None when the game is
    bipartite). All of it, down to the residual's perturbed weights, runs
    on those integers.
    """
    weights = inst.edge_weights()
    base, scale = scale_to_integers(weights)
    coloring, cover = inst.two_coloring(), None
    if coloring is not None:
        half, y, d = _certified_pass(inst, base, scale, coloring)
        denom = scale
    else:
        cover = _cover_weights(inst, base)
        half, y, d = _cover_pass(inst, *cover, scale)
        denom = 2 * scale
    unit = denom // scale
    forced = frozenset(e for e in inst.edges if d[e] > 0)
    free = dict(inst.capacity)
    for (u, v) in forced:
        free[u] -= 1
        free[v] -= 1
    if any(c < 0 for c in free.values()):
        raise InternalError("forced edges of the optimal dual overfill a player")
    tight = [
        (u, v, weights[(u, v)])
        for (u, v) in inst.edges
        if d[(u, v)] == 0 and free[u] and free[v] and y[u] + y[v] == unit * base[(u, v)]
    ]
    residual = Instance._derived(inst.players, free, tight)
    matching = forced | (_tie_broken(residual, base) if tight else frozenset())
    if not is_b_matching(inst, matching):
        raise InternalError("forced and residual edges overfill a player")
    total = unit * sum(base[e] for e in matching)
    whole = not forced and len(tight) == sum(1 for (u, v) in inst.edges if inst.b(u) and inst.b(v))
    if total != half and not whole:
        matching = _tie_broken(inst, base)
        total = unit * sum(base[e] for e in matching)
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
    return LPOptimum(matching, Fraction(total, denom), Fraction(half, denom), dual), (y, d, denom), cover


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def matching_to_json(inst: Instance, matching: frozenset[Edge]) -> list:
    return [{"u": u, "v": v} for (u, v) in inst.edges if (u, v) in matching]


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
