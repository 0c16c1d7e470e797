"""The exact integer blossom engine against networkx and brute force.

networkx is a test-only oracle here: a derandomized hypothesis differential
compares the matching weight on graphs with weights 0, 1 and 10^400, many
ties, isolated vertices and nested odd cycles that force blossoms inside
blossoms. On the perturbed edge gadgets of `matching._general_matching`
the b-matching read off the mate must be the one networkx's mate gives (the
gadget itself has ties inside each edge gadget, the b-matching has none).
Small graphs are checked against an exhaustive search, and corrupting the
engine's answer or its duals must raise `InternalError`. With no positive
weight the matching is empty.

A warm start (a matching and vertex duals, every edge feasible and every
matched edge tight) must reach the cold optimum in at most as many stages
as it has free vertices with positive dual, also from the LP optimum on
b-matching games shaped like the nested cycles; a start that breaks a
condition must raise `InternalError`.
"""

import random

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablefixtures import blossom, matching
from stablefixtures.blossom import max_weight_matching
from stablefixtures.errors import InternalError, PreconditionError
from stablefixtures.instance import Instance
from stablefixtures.matching import lp_optimum
from stablefixtures.randomgen import random_instance
from stablefixtures.rationals import scale_to_integers

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
WEIGHTS = st.one_of(st.sampled_from((0, 1, 10**400)), st.integers(0, 3), st.integers(0, 10**6))


def networkx_mate(n, edges):
    graph = networkx.Graph()
    graph.add_nodes_from(range(n))
    for (i, j, w) in edges:
        graph.add_edge(i, j, weight=w)
    mate = [-1] * n
    for (a, b) in networkx.max_weight_matching(graph):
        mate[a], mate[b] = b, a
    return mate


def mate_weight(edges, mate):
    """Weight of `mate`, which must be a matching on the given edges."""
    assert all(u == -1 or mate[u] == v for v, u in enumerate(mate))
    weights = {frozenset((i, j)): w for (i, j, w) in edges}
    return sum(weights[frozenset((v, u))] for v, u in enumerate(mate) if u > v)


def brute_weight(n, edges):
    """The largest matching weight, by branching on the lowest free vertex."""

    def best(free):
        if not free:
            return 0
        v, rest = min(free), free - {min(free)}
        return max([best(rest)] + [w + best(rest - {u}) for (u, w) in adj[v] if u in rest])

    adj = {v: [] for v in range(n)}
    for (i, j, w) in edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    return best(frozenset(range(n)))


def nested_cycles(pick, depth):
    """An odd cycle of odd cycles of ... of vertices, inner edges heaviest,
    plus pendant edges; `pick` chooses one item of a sequence. Returns
    (n, edges)."""
    edges, count = [], [0]

    def build(level):
        if level == 0:
            count[0] += 1
            return [count[0] - 1]
        parts = [build(level - 1) for _ in range(pick((3, 3, 5)))]
        for k, part in enumerate(parts):
            u, v = pick(part), pick(parts[(k + 1) % len(parts)])
            edges.append((u, v, 10 * (depth - level + 1) + pick((0, 0, 1))))
        return [v for part in parts for v in part]

    vertices = build(depth)
    n = count[0]
    for v in sorted({pick(vertices) for _ in range(pick((0, 1, 2, 3)))}):
        edges.append((v, n, pick(range(1, 41))))
        n += 1
    return n, edges


@st.composite
def graphs(draw):
    if draw(st.booleans()):
        n, edges = nested_cycles(lambda items: draw(st.sampled_from(items)), draw(st.sampled_from((2, 3))))
        return n, [(i, j, w * draw(st.sampled_from((1, 1, 10**400)))) for (i, j, w) in edges]
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = []
    for (i, j) in chosen:
        if draw(st.booleans()):
            i, j = j, i
        edges.append((i, j, draw(WEIGHTS)))
    # Vertices past the last edge stay isolated.
    return n + draw(st.integers(0, 2)), edges


@PROPERTY
@given(graphs())
def test_weight_agrees_with_networkx(graph):
    n, edges = graph
    mate = max_weight_matching(n, edges)
    assert len(mate) == n
    assert mate_weight(edges, mate) == mate_weight(edges, networkx_mate(n, edges))


def test_nested_cycles_leave_nested_blossoms():
    """The nested shapes do make blossoms inside blossoms (with positive
    duals at the optimum), and the engine's answer stays right on them."""
    rng = random.Random(11)
    nested = 0
    for _ in range(120):
        n, edges = nested_cycles(rng.choice, 3)
        blossoms = blossom._primal_dual(n, edges)[2]
        sets = [frozenset(members) for (z, members) in blossoms if z > 0]
        nested += any(a < b for a in sets for b in sets)
        assert mate_weight(edges, max_weight_matching(n, edges)) == mate_weight(edges, networkx_mate(n, edges))
    assert nested >= 40


def test_brute_force_up_to_ten_vertices():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(0, 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [(i, j, rng.choice((0, 1, 2, 3, rng.randint(0, 50), 10**400))) for (i, j) in pairs if rng.random() < 0.4]
        assert mate_weight(edges, max_weight_matching(n, edges)) == brute_weight(n, edges), (n, edges)


# Each expands a T-blossom whose sub-blossom off the even path to the base is
# already reached by an S-vertex, so it must become T on expansion (about 1 in
# 1000 random graphs of this size does this).
OFF_PATH_EXPANSIONS = [
    (10, [(0, 1, 4), (0, 2, 8), (0, 4, 8), (0, 7, 18), (0, 8, 18), (0, 9, 6), (1, 2, 9), (1, 3, 16),
          (1, 7, 5), (1, 8, 7), (1, 9, 18), (2, 4, 18), (4, 6, 5), (5, 7, 15), (5, 9, 12), (7, 8, 20),
          (7, 9, 19), (8, 9, 19)]),
    (11, [(0, 4, 12), (1, 4, 2), (1, 7, 15), (1, 10, 9), (2, 3, 6), (2, 4, 11), (3, 5, 16), (3, 10, 4),
          (4, 7, 16), (4, 9, 16), (4, 10, 20), (5, 7, 2), (5, 9, 15), (5, 10, 20), (6, 8, 3), (6, 9, 6),
          (7, 8, 7), (9, 10, 15)]),
]


@pytest.mark.parametrize("graph", OFF_PATH_EXPANSIONS)
def test_expansion_relabels_reached_sub_blossoms(graph):
    n, edges = graph
    assert mate_weight(edges, max_weight_matching(n, edges)) == brute_weight(n, edges)


def test_general_matching_gadgets_read_the_same_b_matching(monkeypatch):
    rng = random.Random(3)
    checked = 0
    while checked < 150:
        inst = random_instance(rng, n_range=(3, 9), max_extra_edges=6, b_range=(1, 3), max_weight=5)
        if inst.m == 0:
            continue
        base = scale_to_integers(inst.edge_weights())[0]
        ours = matching._general_matching(inst, base)
        with monkeypatch.context() as patch:
            patch.setattr(blossom, "max_weight_matching", networkx_mate)
            theirs = matching._general_matching(inst, base)
        assert ours == theirs
        checked += 1


def test_ties_resolve_the_same_way_every_run():
    edges = [(i, j, 1) for i in range(6) for j in range(i + 1, 6)] + [(6, 0, 1)]
    first = max_weight_matching(8, edges)
    assert all(max_weight_matching(8, edges) == first for _ in range(5))
    assert first[7] == -1
    # A weight-0 edge ties with leaving its ends free, which wins: with no
    # positive weight no stage runs and every vertex stays free.
    assert max_weight_matching(4, [(0, 1, 0), (1, 2, -3), (2, 3, 0)]) == [-1] * 4


def test_bad_edges_are_refused():
    for edges in ([(0, 0, 1)], [(0, 2, 1)], [(0, 1, 1.0)], [(0, 1, True)]):
        with pytest.raises(PreconditionError):
            max_weight_matching(2, edges)


# ---------------------------------------------------------------------------
# Warm starts
# ---------------------------------------------------------------------------


@st.composite
def warm_starts(draw):
    """(n, edges, start): doubled duals, a matching of tight edges, and
    weights the duals pay for, tied with them or below; free vertices get
    even duals."""
    n = draw(st.integers(2, 12))
    dual = [draw(st.sampled_from((0, 0, 2, 10**400))) + draw(st.integers(0, 30)) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges, matched = [], [-1] * n
    for (i, j) in chosen:
        paid = (dual[i] + dual[j]) // 2
        if (dual[i] + dual[j]) % 2 == 0 and matched[i] == matched[j] == -1 and draw(st.booleans()):
            matched[i] = matched[j] = len(edges)
            edges.append((i, j, paid))
        else:
            edges.append((i, j, draw(st.sampled_from((paid, paid, 0))) if paid else 0))
    dual = [u + u % 2 if k == -1 else u for u, k in zip(dual, matched)]
    return n, edges, (matched, dual)


@PROPERTY
@given(warm_starts())
def test_warm_start_reaches_the_cold_optimum(graph):
    n, edges, start = graph
    roots = sum(1 for k, u in zip(*start) if k == -1 and u > 0)
    stages = blossom._primal_dual(n, edges, start)[3]
    warm = max_weight_matching(n, edges, start)
    assert mate_weight(edges, warm) == mate_weight(edges, max_weight_matching(n, edges))
    assert stages <= roots


# Edge 0-1 matched and tight, edge 1-2 tight, vertex 2 free at an even dual.
START_EDGES = [(0, 1, 3), (1, 2, 2)]


def test_a_valid_start_is_taken():
    assert max_weight_matching(3, START_EDGES, ([0, 0, -1], [4, 2, 2])) == [1, 0, -1]


@pytest.mark.parametrize(
    "matched, dual, message",
    [
        ([0, 0, -1], [3, 2, 2], "slack -1/2"),  # a dual lowered by 1
        ([0, 0, -1], [6, 2, 2], "slack 2/2"),  # a matched edge not tight
        ([0, 0, -1], [4, 2, 3], "odd dual"),
        ([0, 0, -1], [4, 2, -2], "negative"),
        ([0, 0, -1], [4, 2], "missing"),
        ([0, -1, -1], [4, 2, 2], "not a matching edge"),
        ([1, 0, -1], [4, 2, 2], "not a matching edge"),
        ([2, 2, -1], [4, 2, 2], "not a matching edge"),
    ],
)
def test_a_bad_start_raises_internal_error(matched, dual, message):
    with pytest.raises(InternalError, match=message):
        max_weight_matching(3, START_EDGES, (matched, dual))


# Ids that collide with the double cover's primed names.
SHAPE_IDS = st.sampled_from(("", "'", "''"))


@st.composite
def gadget_shape_games(draw) -> Instance:
    """A b-matching game on a `nested_cycles` shape: capacities 0, 1, 2 or
    above the degree (mostly 1, so the odd cycles leave an LP gap), the
    shape's tied weights, scaled by 1 or 10^12, and ids that collide with
    the double cover's names."""
    n, edges = nested_cycles(lambda items: draw(st.sampled_from(items)), draw(st.sampled_from((1, 2))))
    names = [f"{v}{draw(SHAPE_IDS)}" for v in range(n)]
    names = [p if names.count(p) == 1 else str(v) for v, p in enumerate(names)]
    degree = [sum(v in e[:2] for e in edges) for v in range(n)]
    capacity = {p: draw(st.sampled_from((1, 1, 1, 1, 1, 0, 2, degree[v] + 1))) for v, p in enumerate(names)}
    scale = draw(st.sampled_from((1, 10**12)))
    return Instance(names, capacity, [(names[i], names[j], w * scale) for (i, j, w) in edges])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(gadget_shape_games())
def test_warm_whole_game_matches_cold_on_gadget_shapes(warm_and_cold_weights, inst):
    assert inst.two_coloring() is None
    assert warm_and_cold_weights(inst) == (lp_optimum(inst).weight,) * 2


# ---------------------------------------------------------------------------
# Fault injection: the certificate catches a wrong answer, also under -O
# ---------------------------------------------------------------------------

TRIANGLE_AND_TAIL = (4, [(0, 1, 5), (1, 2, 5), (0, 2, 5), (2, 3, 4)])
NESTED = (9, [(0, 1, 9), (1, 2, 9), (2, 0, 9), (3, 4, 9), (4, 5, 9), (5, 3, 9),
              (6, 7, 9), (7, 8, 9), (8, 6, 9), (0, 3, 7), (4, 6, 7), (8, 1, 7)])


def test_certificate_checks_each_condition():
    # Edge 0-1 matched; doubled duals 6 + 0 pay for it, edge 0-2 has slack.
    edges = [(0, 1, 3), (0, 2, 1)]
    blossom._certify(3, edges, [0, 0, -1], [6, 0, 0], [])
    for matched, dual, message in (
        ([0, -1, -1], [6, 0, 0], "not a matching edge"),
        ([1, 0, -1], [6, 0, 0], "not a matching edge"),
        ([0, 0, -1], [7, -1, 0], "negative"),
        ([0, 0, -1], [0, 6, 0], "negative slack"),
        ([0, 0, -1], [6, 2, 0], "objective"),
    ):
        with pytest.raises(InternalError, match=message):
            blossom._certify(3, edges, matched, dual, [])
    # A triangle of weight 2 edges: only the blossom dual pays for edge 1-2.
    triangle = [(0, 1, 2), (1, 2, 2), (0, 2, 2)]
    blossom._certify(3, triangle, [0, 0, -1], [0, 0, 0], [(2, [0, 1, 2])])
    for blossoms, message in (
        ([(2, [0, 1])], "negative slack"),
        ([(-2, [0, 1, 2])], "negative"),
        ([(2, [0, 1, 3])], "not a vertex set"),
        ([(3, [0, 1, 2])], "objective"),
    ):
        with pytest.raises(InternalError, match=message):
            blossom._certify(3, triangle, [0, 0, -1], [0, 0, 0], blossoms)


def _corrupted(monkeypatch, corrupt):
    real = blossom._primal_dual

    def wrong(n, edges, start=None):
        matched, dual, blossoms, stages = real(n, edges, start)
        corrupt(matched, dual, blossoms)
        return matched, dual, blossoms, stages

    monkeypatch.setattr(blossom, "_primal_dual", wrong)


def _drop_one_matched_edge(matched, dual, blossoms):
    v = next(v for v, k in enumerate(matched) if k != -1)
    partner = next(u for u, k in enumerate(matched) if k == matched[v] and u != v)
    matched[v] = matched[partner] = -1


def _half_a_matched_edge(matched, dual, blossoms):
    matched[next(v for v, k in enumerate(matched) if k != -1)] = -1


def _lower_a_matched_vertex_dual(matched, dual, blossoms):
    v = next(v for v, k in enumerate(matched) if k != -1)
    dual[v] -= 1


def _raise_a_dual(matched, dual, blossoms):
    dual[0] += 2


def _negative_dual(matched, dual, blossoms):
    dual[0] = -dual[0] - 1


def _raise_a_blossom_dual(matched, dual, blossoms):
    z, members = blossoms[0]
    blossoms[0] = (z + 1, members)


@pytest.mark.parametrize("graph", [TRIANGLE_AND_TAIL, NESTED])
@pytest.mark.parametrize(
    "corrupt",
    [_drop_one_matched_edge, _half_a_matched_edge, _lower_a_matched_vertex_dual, _raise_a_dual,
     _negative_dual, _raise_a_blossom_dual],
)
def test_corrupted_answer_raises_internal_error(monkeypatch, graph, corrupt):
    n, edges = graph
    assert blossom._primal_dual(n, edges)[2], "the fixture must leave a blossom"
    _corrupted(monkeypatch, corrupt)
    with pytest.raises(InternalError):
        max_weight_matching(n, edges)
