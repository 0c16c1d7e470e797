import random
from fractions import Fraction as F

import pytest

from stablefixtures import blossom, cycles
from stablefixtures.errors import InternalError
from stablefixtures.cycles import min_path_cycle_system, negative_cycle


def brute_negative_cycle(vertices, costs):
    """Enumerate all vertex subsets and Hamiltonian cycles on them."""
    import itertools

    edge = {frozenset(e): c for e, c in costs.items()}
    n = len(vertices)
    for size in range(3, n + 1):
        for subset in itertools.combinations(vertices, size):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                order = (first,) + perm
                keys = [frozenset((order[k], order[(k + 1) % size])) for k in range(size)]
                if all(k in edge for k in keys) and sum(edge[k] for k in keys) < 0:
                    return True
    return False


def test_negative_cycle_triangle():
    costs = {("a", "b"): F(-1), ("b", "c"): F(-1), ("a", "c"): F(1)}
    cycle = negative_cycle(["a", "b", "c"], costs)
    assert cycle is not None
    assert sum(costs[e] for e in cycle) < 0


def test_negative_edge_alone_is_not_a_cycle():
    costs = {("a", "b"): F(-5)}
    assert negative_cycle(["a", "b"], costs) is None


def test_negative_cycle_needs_join():
    # The negative edges alone form no cycle; only together with the
    # positive edges do they close into a (negative) cycle.
    costs = {
        ("a", "b"): F(-4),
        ("b", "c"): F(1),
        ("c", "d"): F(-4),
        ("d", "a"): F(1),
    }
    cycle = negative_cycle(["a", "b", "c", "d"], costs)
    assert cycle is not None
    assert sum(costs[e] for e in cycle) == -6


def test_negative_cycle_absent_despite_negative_edges():
    costs = {
        ("a", "b"): F(-1),
        ("b", "c"): F(2),
        ("c", "d"): F(-1),
        ("d", "a"): F(2),
    }
    assert negative_cycle(["a", "b", "c", "d"], costs) is None


# Zero, huge and coprime-fraction costs of both signs.
CYCLE_COSTS = [F(0), F(10**400), F(-(10**400))] + [
    F(k, d) for k in (-9, -4, -1, 1, 3, 8) for d in (1, 2, 3, 7, 11)
]


def test_negative_cycle_agrees_with_enumeration():
    rng = random.Random(4242)
    shapes = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        vertices = [f"n{k}" for k in range(n)]
        costs = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.6:
                    costs[(vertices[a], vertices[b])] = rng.choice(CYCLE_COSTS)
        found = negative_cycle(vertices, costs)
        expected = brute_negative_cycle(vertices, costs)
        shapes.add((n, expected))
        assert (found is not None) == expected, costs
        if found is not None:
            assert sum(costs[e] for e in found) < 0
            # One simple cycle: every vertex has degree 2, |V| = |E| >= 3, and
            # walking from one edge along the cycle uses every edge.
            degree = {}
            for (u, v) in found:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            assert set(degree.values()) == {2}
            assert len(degree) == len(found) >= 3
            walk, node = [found[0]], found[0][1]
            while len(walk) < len(found):
                walk.append(next(e for e in found if node in e and e not in walk))
                node = walk[-1][0] if walk[-1][1] == node else walk[-1][1]
            assert node == found[0][0]
    assert {n for (n, _) in shapes} == set(range(1, 7))
    assert {expected for (_, expected) in shapes} == {True, False}


def test_min_system_empty_graph():
    total, comps = min_path_cycle_system([], {}, {}, {})
    assert total == 0 and comps == []


def test_min_system_single_bad_edge():
    total, comps = min_path_cycle_system(
        ["a", "b"],
        {"a": 1, "b": 1},
        {("a", "b"): F(5)},
        {"a": F(1), "b": F(1)},
    )
    assert total == -3
    assert comps[0].kind == "path"
    assert comps[0].vertices == ("a", "b")


def test_min_system_inner_vertices_must_have_capacity_two():
    # A path through a capacity-1 middle vertex is inadmissible, so the
    # heavy middle edge cannot be reached and nothing is violated.
    total, comps = min_path_cycle_system(
        ["a", "m", "b"],
        {"a": 1, "m": 1, "b": 1},
        {("a", "m"): F(0), ("m", "b"): F(0)},
        {"a": F(0), "m": F(0), "b": F(0)},
    )
    assert total == 0


def test_min_system_finds_cycle():
    total, comps = min_path_cycle_system(
        ["a", "b", "c"],
        {"a": 2, "b": 2, "c": 2},
        {("a", "b"): F(2), ("b", "c"): F(2), ("a", "c"): F(2)},
        {"a": F(1), "b": F(1), "c": F(1)},
    )
    assert total == 3 - 6
    assert comps[0].kind == "cycle"
    assert comps[0].vertices == ("a", "b", "c")


def test_min_system_ignores_edge_doubling():
    total, _ = min_path_cycle_system(
        ["s", "u", "v", "t"],
        {"s": 2, "u": 2, "v": 2, "t": 2},
        {("s", "u"): F(0), ("u", "v"): F(2), ("u", "t"): F(0)},
        {"s": F(0), "u": F(3, 2), "v": F(1, 2), "t": F(0)},
    )
    assert total == 0  # the u-v edge alone costs +0 only via x(u)+x(v)-w = 0


def brute_min_system(vertices, capacity, weights, x):
    """Enumerate every edge subset whose components are admissible paths and
    cycles: with all degrees at most 2 each component is a path or a cycle,
    and its degree-2 vertices (inner path vertices, cycle vertices) must
    have capacity 2, so admissible means deg(v) <= capacity(v)."""
    edges = list(weights)
    best = F(0)
    for mask in range(1 << len(edges)):
        chosen = [e for k, e in enumerate(edges) if mask >> k & 1]
        deg = dict.fromkeys(vertices, 0)
        for (u, v) in chosen:
            deg[u] += 1
            deg[v] += 1
        if all(deg[v] <= capacity[v] for v in vertices):
            touched = sum((x[v] for v in vertices if deg[v]), F(0))
            best = min(best, touched - sum((weights[e] for e in chosen), F(0)))
    return best


def _random_system(rng):
    n = rng.randint(0, 7)
    vertices = [f"v{k}" for k in range(n)]
    pairs = [(vertices[a], vertices[b]) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    edges = sorted(pairs[: rng.randint(0, min(11, len(pairs)))], key=sorted)
    capacity = {v: rng.choice((1, 2)) for v in vertices}
    weights = {e: F(rng.randint(0, 3)) for e in edges}
    x = {v: F(rng.randint(0, 6), 2) for v in vertices}
    return vertices, capacity, weights, x


def _check_system(capacity, weights, x, total, comps):
    used = [v for c in comps for v in c.vertices]
    assert len(used) == len(set(used))
    for c in comps:
        assert all(e in weights for e in c.edges)
        deg = {v: sum(v in e for e in c.edges) for v in c.vertices}
        assert all(deg[v] <= capacity[v] for v in c.vertices)
        assert len(c.edges) == len(c.vertices) - (c.kind == "path")
        assert c.cost == sum(x[v] for v in c.vertices) - sum(weights[e] for e in c.edges)
    assert total == sum((c.cost for c in comps), F(0))


def test_min_system_agrees_with_enumeration():
    rng = random.Random(7)
    shapes, ends = set(), set()
    for _ in range(600):
        vertices, capacity, weights, x = _random_system(rng)
        shapes.add((len(vertices) == 0, len(weights) == 0))
        total, comps = min_path_cycle_system(vertices, capacity, weights, x)
        assert total == brute_min_system(vertices, capacity, weights, x), (capacity, weights, x)
        _check_system(capacity, weights, x, total, comps)
        # The capacity-1 ends of each edge: none (the 2-vertex gadget), one
        # or both (direct slot-slot edges).
        ends |= {(capacity[u] == 1) + (capacity[v] == 1) for (u, v) in weights}
    assert shapes == {(True, True), (False, True), (False, False)}
    assert ends == {0, 1, 2}


def _system_gadget_size(vertices, capacity, weights):
    """Three nodes per capacity-2 vertex (two slots and a helper), one slot
    per capacity-1 vertex with an edge, and two end vertices per edge
    between capacity-2 vertices; other edges join slots directly."""
    touched = {v for e in weights for v in e}
    return (
        3 * sum(1 for v in vertices if capacity[v] == 2)
        + sum(1 for v in vertices if capacity[v] == 1 and v in touched)
        + 2 * sum(1 for (u, v) in weights if capacity[u] == capacity[v] == 2)
    )


def test_min_system_gadget_is_linear(monkeypatch):
    calls = []
    real = blossom.max_weight_matching

    def spy(n, edges, **kwargs):
        calls.append((n, kwargs, {type(w) for (_, _, w) in edges}))
        return real(n, edges, **kwargs)

    monkeypatch.setattr(blossom, "max_weight_matching", spy)
    rng = random.Random(20)
    vertices = [f"p{k}" for k in range(20)]
    pairs = [(a, b) for k, a in enumerate(vertices) for b in vertices[k + 1 :]]
    weights = {e: F(rng.randint(0, 9), 2) for e in rng.sample(pairs, 50)}
    capacity = {v: rng.choice((1, 2)) for v in vertices}
    x = {v: F(rng.randint(0, 9), 3) for v in vertices}
    costs = {e: w - 3 for e, w in weights.items()}
    # Both entry points run one plain maximum-weight matching on integer
    # weights, on a gadget of exactly `_system_gadget_size` nodes: no
    # perfect-matching detour and no maxcardinality option. negative_cycle
    # gives every vertex capacity 2.
    for run, caps in (
        (lambda: min_path_cycle_system(vertices, capacity, weights, x), capacity),
        (lambda: negative_cycle(vertices, costs), dict.fromkeys(vertices, 2)),
    ):
        calls.clear()
        run()
        [(nodes, kwargs, kinds)] = calls
        assert nodes == _system_gadget_size(vertices, caps, weights)
        assert kwargs == {}
        assert kinds == {int}


def _old_system_gadget(vertices, capacity, weights, x):
    """The path/cycle gadget as `min_path_cycle_system` built it by hand
    before the shared builder: the (n, edges) it handed to the blossom."""
    scaled, _ = cycles.scale_to_integers({**weights, **x})
    wx = {v: 2 * scaled[v] for v in vertices}
    ww = {e: 2 * scaled[e] for e in weights}
    slots, profits, mandatory = {}, [], set()
    for v in vertices:
        if capacity[v] == 2:
            s1, s2, helper = ("slot", v, 1), ("slot", v, 2), ("helper", v)
            mandatory |= {s1, s2}
            profits += [(s1, s2, 0), (helper, s1, -(wx[v] // 2)), (helper, s2, -(wx[v] // 2))]
            slots[v] = [(s1, wx[v] // 2), (s2, wx[v] // 2)]
        else:
            slots[v] = [(("slot", v, 1), wx[v])]
    for (u, v), w in ww.items():
        if capacity[u] == 2 and capacity[v] == 2:
            ends = {u: ("end", (u, v), u), v: ("end", (u, v), v)}
            mandatory |= set(ends.values())
            profits.append((ends[u], ends[v], 0))
            for p, end in ends.items():
                profits += [(end, slot, w // 2 - price) for (slot, price) in slots[p]]
        else:
            profits += [(a, b, w - pa - pb) for (a, pa) in slots[u] for (b, pb) in slots[v]]
    bonus = 1 + sum(abs(c) for (_, _, c) in profits)
    index = {}
    gadget = [
        (index.setdefault(a, len(index)), index.setdefault(b, len(index)),
         c + bonus * ((a in mandatory) + (b in mandatory)))
        for (a, b, c) in profits
    ]
    return len(index), gadget


def test_system_gadget_is_the_hand_built_one(monkeypatch):
    # The gadget is not perturbed, so ties among optimal systems (and so the
    # coalitions core-check reports) depend on the exact graph and its
    # vertex order: the builder must hand the blossom the same (n, edges).
    graphs = []
    real = blossom.max_weight_matching

    def spy(n, edges):
        graphs.append((n, edges))
        return real(n, edges)

    monkeypatch.setattr(blossom, "max_weight_matching", spy)
    rng = random.Random(19)
    ends = set()
    for _ in range(300):
        vertices, capacity, weights, x = _random_system(rng)
        graphs.clear()
        min_path_cycle_system(vertices, capacity, weights, x)
        assert graphs == [_old_system_gadget(vertices, capacity, weights, x)], (capacity, weights, x)
        ends |= {(capacity[u] == 1) + (capacity[v] == 1) for (u, v) in weights}
    assert ends == {0, 1, 2}


def test_system_read_back_is_certified_by_the_gadget_profit(monkeypatch):
    """A mate that covers every mandatory node but pairs the slots of a and
    b and the ends of ab (so ab is unused) while the helpers keep their old
    mates: the read-back is the empty system, of cost 0, but the mate
    weighs the helpers' prices, so the profit check refuses it."""
    real = blossom.max_weight_matching

    def re_paired(n, edges):
        # Nodes in order of first appearance: a's slots and helper (0-2),
        # b's (3-5), then the two ends of ab (6, 7).
        assert n == 8 and {(0, 1), (3, 4), (6, 7)} <= {(a, b) for (a, b, _) in edges}
        mate = real(n, edges)
        assert mate[6] != 7  # the optimum selects ab
        for (a, b) in ((0, 1), (3, 4), (6, 7)):
            mate[a], mate[b] = b, a
        return mate

    monkeypatch.setattr(blossom, "max_weight_matching", re_paired)
    with pytest.raises(InternalError, match="does not weigh"):
        min_path_cycle_system(["a", "b"], {"a": 2, "b": 2}, {("a", "b"): F(5)}, {"a": F(1), "b": F(1)})


def test_failed_gadget_matching_raises_internal_error(monkeypatch):
    # An empty matching leaves the mandatory edge ends and slots uncovered.
    monkeypatch.setattr(blossom, "max_weight_matching", lambda n, edges: [-1] * n)
    with pytest.raises(InternalError, match="uncovered"):
        min_path_cycle_system(["a", "b"], {"a": 2, "b": 1}, {("a", "b"): F(5)}, {"a": F(1), "b": F(1)})
    # Under negative_cycle's prices every path costs more than zero.
    path = cycles.SystemComponent("path", ("a", "b"), (("a", "b"),), F(-1))
    monkeypatch.setattr(cycles, "min_path_cycle_system", lambda *args: (F(-1), [path]))
    with pytest.raises(InternalError, match="worst component is a path"):
        negative_cycle(["a", "b"], {("a", "b"): F(-1)})


def test_component_that_is_no_path_or_cycle_raises_internal_error():
    k4 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    with pytest.raises(InternalError, match="neither a path nor a cycle"):
        cycles._split_components(k4, {**dict.fromkeys("abcd", 0), **dict.fromkeys(k4, 1)})
