import heapq
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablefixtures import generate, matching
from stablefixtures.cover import duplicated_instance, is_half_b_matching, max_half_b_matching_weight
from stablefixtures.errors import BoundExceededError, NotBipartiteError, UnknownEdgeError
from stablefixtures.duals import (
    bipartite_max_weight_b_matching_with_duals,
    dual_objective,
    is_dual_feasible,
    verify_complementary_slackness,
)
from stablefixtures.instance import Instance, _spanning_forest
from stablefixtures.matching import (
    _perturbed,
    is_b_matching,
    max_weight_b_matching,
    weight,
)
from stablefixtures.oracles import max_half_b_matching_bruteforce, max_weight_b_matching_bruteforce
from stablefixtures.randomgen import random_instance
from stablefixtures.rationals import scale_to_integers


def test_is_b_matching_example3(example3):
    inst, _ = example3
    assert is_b_matching(inst, [("v1", "v2"), ("v3", "v4")])
    assert not is_b_matching(inst, [("v1", "v2"), ("v4", "v1")])  # b(v1) = 1
    assert is_b_matching(inst, [])


def test_is_b_matching_unknown_edge(example3):
    inst, _ = example3
    with pytest.raises(UnknownEdgeError):
        is_b_matching(inst, [("v1", "v3")])


def test_weight_example2(example2):
    inst, sol, _ = example2
    assert weight(inst, sol.matching) == 16
    assert weight(inst, []) == 0


def test_weight_diamond(diamond):
    assert weight(diamond, [("s1", "s2"), ("s1", "s3"), ("s2", "s3")]) == 3


def test_engine_example2_weight(example2):
    inst, _, _ = example2
    matching, value = max_weight_b_matching(inst)
    assert value == 16
    assert is_b_matching(inst, matching)


def test_engine_edgeless():
    inst = Instance(["a", "b"], {"a": 1, "b": 2}, [])
    assert max_weight_b_matching(inst) == (frozenset(), 0)


def test_engine_example4():
    inst = generate("example4", alpha=2).instance
    _, value = max_weight_b_matching(inst)
    assert value == 4


def test_bruteforce_values(example2, diamond):
    tri = generate("triangle").instance
    assert max_weight_b_matching_bruteforce(tri)[1] == 1
    inst, _, _ = example2
    assert max_weight_b_matching_bruteforce(inst)[1] == 16
    assert max_weight_b_matching_bruteforce(diamond)[1] == 3


def test_bruteforce_bound():
    rng = random.Random(0)
    inst = random_instance(rng, n_range=(9, 9), max_extra_edges=30)
    with pytest.raises(BoundExceededError):
        max_weight_b_matching_bruteforce(inst, max_edges=3)


def test_engine_agrees_with_bruteforce_500():
    # Randomized dual-route check, |E| <= 14 instances.
    rng = random.Random(987)
    for _ in range(500):
        inst = random_instance(
            rng,
            n_range=(3, 9),
            max_extra_edges=7,
            b_range=(0, 3),
            max_weight=9,
            bipartite=rng.random() < 0.3,
            allow_zero_capacity=True,
        )
        assert inst.m <= 14
        _, fast = max_weight_b_matching(inst)
        _, slow = max_weight_b_matching_bruteforce(inst)
        assert fast == slow


def test_engine_deterministic(example2):
    inst, _, _ = example2
    assert max_weight_b_matching(inst) == max_weight_b_matching(inst)
    # Lexicographic tie-break picks the matching containing u1-v2 (edge 2).
    matching, _ = max_weight_b_matching(inst)
    assert ("u1", "v2") in matching


def test_duplicated_triangle():
    tri = generate("triangle").instance
    dup = duplicated_instance(tri)
    assert dup.instance.n == 6
    assert dup.instance.m == 6
    assert all(w == F(1, 2) for w in dup.instance.edge_weights().values())
    assert dup.instance.is_bipartite()


def test_duplicated_single_edge():
    inst = generate("two_player", w=7).instance
    dup = duplicated_instance(inst)
    assert dup.instance.n == 4
    assert dup.instance.m == 2
    assert all(w == F(7, 2) for w in dup.instance.edge_weights().values())


def test_duplicated_diamond(diamond):
    dup = duplicated_instance(diamond)
    assert dup.instance.n == 8
    assert dup.instance.m == 10


def test_half_weight_diamond(diamond):
    value, witness = max_half_b_matching_weight(diamond)
    assert value == F(7, 2)
    assert witness.weight(diamond) == F(7, 2)


def test_is_half_b_matching_rejects_values_outside_zero_half_one():
    tri = generate("triangle").instance
    assert is_half_b_matching(tri, dict.fromkeys(tri.edges, F(1, 2)))
    assert not is_half_b_matching(tri, {("a", "b"): F(1, 3)})
    assert not is_half_b_matching(tri, {("a", "b"): F(2)})


def test_half_weight_triangle_vs_enumeration():
    tri = generate("triangle").instance
    value, _ = max_half_b_matching_weight(tri)
    assert value == F(3, 2)
    assert max_half_b_matching_bruteforce(tri) == F(3, 2)


def test_half_weight_single_edge():
    inst = generate("two_player", w=7).instance
    value, witness = max_half_b_matching_weight(inst)
    assert value == 7
    assert witness.values[("i", "j")] == 1


def test_half_weight_matches_enumeration_random():
    rng = random.Random(321)
    for _ in range(40):
        inst = random_instance(rng, n_range=(3, 5), max_extra_edges=3, b_range=(1, 2))
        value, witness = max_half_b_matching_weight(inst)
        assert value == max_half_b_matching_bruteforce(inst)
        assert witness.weight(inst) == value


def test_half_at_least_integral_random():
    rng = random.Random(13)
    for _ in range(60):
        inst = random_instance(rng, n_range=(3, 8), b_range=(0, 3), allow_zero_capacity=True)
        _, integral = max_weight_b_matching(inst)
        half, _ = max_half_b_matching_weight(inst)
        assert half >= integral


def test_bipartite_duals_single_edge():
    inst = generate("two_player", w=7).instance
    matching, dual = bipartite_max_weight_b_matching_with_duals(inst)
    assert matching == frozenset({("i", "j")})
    total = dual.y["i"] + dual.y["j"] + dual.d[("i", "j")]
    assert total == 7


def test_bipartite_duals_example2(example2):
    inst, _, _ = example2
    matching, dual = bipartite_max_weight_b_matching_with_duals(inst)
    assert weight(inst, matching) == dual_objective(inst, dual) == 16


def test_bipartite_duals_edgeless():
    inst = Instance(["a", "b"], {"a": 1, "b": 1}, [])
    matching, dual = bipartite_max_weight_b_matching_with_duals(inst)
    assert matching == frozenset()
    assert all(v == 0 for v in dual.y.values())
    assert not dual.d


def test_bipartite_duals_reject_odd_cycle():
    tri = generate("triangle").instance
    with pytest.raises(NotBipartiteError):
        bipartite_max_weight_b_matching_with_duals(tri)


def test_bipartite_duality_random():
    rng = random.Random(55)
    for _ in range(80):
        inst = random_instance(
            rng, n_range=(2, 8), b_range=(0, 3), bipartite=True, allow_zero_capacity=True
        )
        matching, dual = bipartite_max_weight_b_matching_with_duals(inst)
        primal = weight(inst, matching)
        assert is_dual_feasible(inst, dual).feasible
        assert primal == dual_objective(inst, dual)
        _, brute = max_weight_b_matching_bruteforce(inst)
        assert primal == brute
        # The tie-broken matching and the returned dual are complementary slack.
        x = {e: F(e in matching) for e in inst.edges}
        assert verify_complementary_slackness(inst, x, dual).clean


# ---------------------------------------------------------------------------
# The SSP engine's early exit against the full-Dijkstra engine
# ---------------------------------------------------------------------------


def _full_dijkstra_ssp_flow(inst, int_weights, coloring):
    """The SSP engine as it was before Dijkstra stopped at the sink, kept as
    an oracle: every round settles every reachable node."""
    active = [p for p in inst.players if inst.b(p) > 0]
    ids = {p: k + 2 for k, p in enumerate(active)}
    SRC, SNK = 0, 1
    nnodes = len(active) + 2
    to, cap, cost = [], [], []
    adj = [[] for _ in range(nnodes)]

    def add_arc(a, b, c, w):
        adj[a].append(len(to))
        to.append(b)
        cap.append(c)
        cost.append(w)
        adj[b].append(len(to))
        to.append(a)
        cap.append(0)
        cost.append(-w)

    edge_arc = {}
    for p in active:
        if coloring[p] == 0:
            add_arc(SRC, ids[p], inst.b(p), 0)
        else:
            add_arc(ids[p], SNK, inst.b(p), 0)
    for (u, v) in inst.edges:
        if inst.b(u) == 0 or inst.b(v) == 0:
            continue
        a, b = (u, v) if coloring[u] == 0 else (v, u)
        edge_arc[(u, v)] = len(to)
        add_arc(ids[a], ids[b], 1, -int_weights[(u, v)])

    INF = float("inf")
    pi = [0] * nnodes
    for p in active:
        if coloring[p] == 1:
            incident = [
                -int_weights[inst.edge_key(p, q)] for q in inst.neighbors(p) if inst.b(q) > 0
            ]
            pi[ids[p]] = min(incident) if incident else 0
    sink_in = [pi[ids[p]] for p in active if coloring[p] == 1]
    pi[SNK] = min(sink_in) if sink_in else 0

    while True:
        dist = [INF] * nnodes
        parent = [-1] * nnodes
        dist[SRC] = 0
        heap = [(0, SRC)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for arc in adj[node]:
                if cap[arc] <= 0:
                    continue
                reduced = cost[arc] + pi[node] - pi[to[arc]]
                assert reduced >= 0
                nd = d + reduced
                if nd < dist[to[arc]]:
                    dist[to[arc]] = nd
                    parent[to[arc]] = arc
                    heapq.heappush(heap, (nd, to[arc]))
        if dist[SNK] is not INF and dist[SNK] + pi[SNK] < 0:
            bottleneck = None
            node = SNK
            while node != SRC:
                arc = parent[node]
                bottleneck = cap[arc] if bottleneck is None else min(bottleneck, cap[arc])
                node = to[arc ^ 1]
            node = SNK
            while node != SRC:
                arc = parent[node]
                cap[arc] -= bottleneck
                cap[arc ^ 1] += bottleneck
                node = to[arc ^ 1]
            cut = dist[SNK]
            for k in range(nnodes):
                pi[k] += min(dist[k], cut) if dist[k] is not INF else cut
        else:
            threshold = max(0, -pi[SNK])
            for k in range(nnodes):
                d = dist[k] if dist[k] is not INF else threshold
                pi[k] += min(d, threshold)
            break

    matched = frozenset(e for e, arc in edge_arc.items() if cap[arc] == 0)
    prices = {}
    for p in active:
        prices[p] = max(0, pi[ids[p]]) if coloring[p] == 0 else max(0, -pi[ids[p]])
    for p in inst.players:
        prices.setdefault(p, 0)
    return matched, prices


def _bipartite_network(rng):
    """One to three bipartite components plus isolated players, with zero
    capacities, capacities above the degree and weights 0 and 10^12."""
    players, capacity, edges = [], {}, []
    for c in range(rng.randint(1, 3)):
        part = random_instance(
            rng, n_range=(1, 8), max_extra_edges=8, b_range=(0, 3),
            bipartite=True, allow_zero_capacity=True,
        )
        name = {p: f"c{c}{p}" for p in part.players}
        players += name.values()
        for p in part.players:
            capacity[name[p]] = rng.choice(
                (0, part.b(p), part.b(p), len(part.neighbors(p)) + rng.randint(1, 3))
            )
        for (u, v) in part.edges:
            w = rng.choice((part.weight(u, v), part.weight(u, v), F(0), F(10**12)))
            edges.append((name[u], name[v], w))
    for k in range(rng.randint(0, 2)):
        players.append(f"iso{k}")
        capacity[f"iso{k}"] = rng.randint(0, 2)
    return Instance(players, capacity, edges)


def test_early_exit_ssp_matches_full_dijkstra():
    """Stopping Dijkstra at the sink changes neither the matched weight nor
    the integer prices, with plain and with perturbed weights, nor, on the
    perturbed weights, whose optimum is unique, the matched set. Plain
    optima tie, so there either matched set is correct."""
    rng = random.Random(20261018)
    shapes = {"components": 0, "isolated": 0, "zero_b": 0, "above_degree": 0, "huge": 0}
    for _ in range(320):
        inst = _bipartite_network(rng)
        coloring = inst.two_coloring()
        assert coloring is not None
        base = scale_to_integers(inst.edge_weights())[0]
        for int_weights in (base, _perturbed(inst, base)):
            got, prices = matching._ssp_flow(inst, int_weights, coloring)
            want, want_prices = _full_dijkstra_ssp_flow(inst, int_weights, coloring)
            assert sum(int_weights[e] for e in got) == sum(int_weights[e] for e in want), inst
            assert prices == want_prices, inst
        assert got == want, inst
        # Each isolated player is a component of its own.
        roots, _ = _spanning_forest(inst.edges)
        shapes["components"] += len({roots.get(p, p) for p in inst.players}) > 1
        shapes["isolated"] += any(not inst.neighbors(p) for p in inst.players)
        shapes["zero_b"] += any(inst.b(p) == 0 for p in inst.players)
        shapes["above_degree"] += any(inst.b(p) > len(inst.neighbors(p)) for p in inst.players)
        shapes["huge"] += F(10**12) in inst.edge_weights().values()
    assert min(shapes.values()) >= 40, shapes


# ---------------------------------------------------------------------------
# The per-player SSP engine against the super-source engine it replaced
# ---------------------------------------------------------------------------


def _super_source_ssp_flow(inst, int_weights, coloring):
    """The SSP engine as it was before each unit was routed from its own
    player, kept as an oracle: a super-source feeds every source-side
    player, each Dijkstra stops once the sink is settled, and augmenting
    goes on while the cheapest path costs less than 0."""
    active = [p for p in inst.players if inst.b(p) > 0]
    ids = {p: k + 2 for k, p in enumerate(active)}
    SRC, SNK = 0, 1
    nnodes = len(active) + 2
    to, cap, cost = [], [], []
    adj = [[] for _ in range(nnodes)]

    def add_arc(a, b, c, w):
        adj[a].append(len(to))
        to.append(b)
        cap.append(c)
        cost.append(w)
        adj[b].append(len(to))
        to.append(a)
        cap.append(0)
        cost.append(-w)

    edge_arc = {}
    for p in active:
        if coloring[p] == 0:
            add_arc(SRC, ids[p], inst.b(p), 0)
        else:
            add_arc(ids[p], SNK, inst.b(p), 0)
    pi = [0] * nnodes
    for (u, v) in inst.edges:
        if inst.b(u) == 0 or inst.b(v) == 0:
            continue
        a, b = (u, v) if coloring[u] == 0 else (v, u)
        w = -int_weights[(u, v)]
        edge_arc[(u, v)] = len(to)
        add_arc(ids[a], ids[b], 1, w)
        pi[ids[b]] = min(pi[ids[b]], w)
    pi[SNK] = min([0] + [pi[ids[p]] for p in active if coloring[p] == 1])

    while True:
        dist = [None] * nnodes
        settled = [False] * nnodes
        parent = [-1] * nnodes
        dist[SRC] = 0
        heap = [(0, SRC)]
        while heap:
            d, node = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = True
            if node == SNK:
                break
            for arc in adj[node]:
                if cap[arc] <= 0:
                    continue
                head = to[arc]
                nd = d + pi[node] + cost[arc] - pi[head]
                assert nd >= d
                if dist[head] is None or nd < dist[head]:
                    dist[head] = nd
                    parent[head] = arc
                    heapq.heappush(heap, (nd, head))
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
            pi[k] += cut if dist[k] is None or dist[k] > cut else dist[k]
        if not augment:
            break

    matched = frozenset(e for e, arc in edge_arc.items() if cap[arc] == 0)
    prices = dict.fromkeys(inst.players, 0)
    for p in active:
        prices[p] = max(0, pi[ids[p]] if coloring[p] == 0 else -pi[ids[p]])
    return matched, prices


# Few distinct values, so that ties are common.
SSP_WEIGHTS = st.sampled_from((F(0), F(0), F(10**12), F(1), F(2), F(3), F(1, 2), F(5, 3), F(7, 6)))


@st.composite
def ssp_networks(draw):
    """A bipartite game or the double cover of a general one, with
    capacity-0 players, capacities 10^6 and more above the degree, isolated
    players, and weights 0, 10^12 and small rationals."""
    n = draw(st.integers(1, 10))
    cover = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if cover or (j - i) % 2]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16))) if pairs else []
    degree = Counter(k for pair in chosen for k in pair)
    players = [f"p{k}" for k in range(n)]
    capacity = {
        players[k]: draw(st.sampled_from((0, 1, 1, 2, 3, degree[k] + 10**6 + draw(st.integers(0, 9)))))
        for k in range(n)
    }
    inst = Instance(players, capacity, [(players[i], players[j], draw(SSP_WEIGHTS)) for (i, j) in chosen])
    return duplicated_instance(inst).instance if cover else inst


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(ssp_networks())
def test_per_player_ssp_matches_super_source(inst):
    """Routing each unit from its own player finds an optimum of the same
    weight, the same integer prices and, on the perturbed weights, whose
    optimum is unique, the same matched set."""
    coloring = inst.two_coloring()
    base = scale_to_integers(inst.edge_weights())[0]
    for int_weights in (base, _perturbed(inst, base)):
        got, prices = matching._ssp_flow(inst, int_weights, coloring)
        want, want_prices = _super_source_ssp_flow(inst, int_weights, coloring)
        assert sum(int_weights[e] for e in got) == sum(int_weights[e] for e in want)
        assert prices == want_prices
    assert got == want


class _CountingHeapq:
    """`heapq` for `matching` that counts Dijkstra searches: each search
    pops from a heap of its own."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.heaps = []

    def heappop(self, heap):
        if not self.heaps or self.heaps[-1] is not heap:
            self.heaps.append(heap)
        return heapq.heappop(heap)


def _prices_are_optimal(inst, int_weights, matched, prices):
    """Weak duality: the prices, with the pointwise smallest d, cost what
    the matching weighs."""
    y, d = matching._priced(inst, int_weights, prices)
    return min(y.values()) >= 0 and matching._objective(inst, y, d) == sum(int_weights[e] for e in matched)


def test_a_huge_capacity_costs_at_most_deg_plus_one_searches(monkeypatch):
    leaves = [f"l{k}" for k in range(300)]
    inst = Instance(
        ["hub", *leaves],
        {"hub": 10**12, **dict.fromkeys(leaves, 1)},
        [("hub", leaf, 1 + k % 7) for k, leaf in enumerate(leaves)],
    )
    int_weights = scale_to_integers(inst.edge_weights())[0]
    counter = _CountingHeapq()
    monkeypatch.setattr(matching, "heapq", counter)
    matched, prices = matching._ssp_flow(inst, int_weights, {"hub": 0, **dict.fromkeys(leaves, 1)})
    assert 0 < len(counter.heaps) <= len(leaves) + 1
    assert matched == frozenset(inst.edges)
    assert prices["hub"] == 0 and _prices_are_optimal(inst, int_weights, matched, prices)


@pytest.mark.parametrize("side", [0, 1])
def test_a_full_player_with_b_above_its_degree_is_priced_zero(side):
    """u meets both its edges with one unit of b left, so complementary
    slackness prices it at 0, on either side of the network."""
    inst = Instance(["u", "v", "x"], {"u": 3, "v": 1, "x": 1}, [("u", "v", 4), ("u", "x", 6)])
    int_weights = {("u", "v"): 4, ("u", "x"): 6}
    coloring = {"u": side, "v": 1 - side, "x": 1 - side}
    matched, prices = matching._ssp_flow(inst, int_weights, coloring)
    assert matched == frozenset(inst.edges)
    assert prices["u"] == 0 and _prices_are_optimal(inst, int_weights, matched, prices)
