"""The runtime paths do without the paper's 4-vertex expansion.

* The general engine matches on min(b, deg) copies per player, joined by a
  2-vertex gadget where both ends of an edge have two or more copies and
  directly otherwise, so its blossom graph stays small and capacities far
  above the degree cost nothing.
* `rematch` applies the equivalence theorem directly.
* `reduction.reduce_instance` is never called by solve, core-check, value or
  rematch.

The old composition of each path is kept below as an oracle, and the new
paths must agree with it exactly on adversarial inputs: zero capacities,
capacities above the degree, zero and huge weights, and ids that look like
the gadget names of the expansion and the double cover.
"""

import itertools
import random
from fractions import Fraction as F

import networkx
import pytest

from stablefixtures import blossom, core, generate, reduction, transfers
from stablefixtures.blossom import _general_matching, max_weight_b_matching
from stablefixtures.families import instance_to_json
from stablefixtures.instance import Instance
from stablefixtures.matching import _perturbed, is_b_matching, weight
from stablefixtures.oracles import max_weight_b_matching_bruteforce
from stablefixtures.randomgen import random_allocation, random_instance
from stablefixtures.rationals import scale_to_integers
from stablefixtures.solver import outcome_to_json, solution_to_json, solve
from stablefixtures.stability import Solution, total_payoff
from stablefixtures.transfers import rematch

GADGET_LIKE_IDS = ["a", "b", "a^1", "a~b", "a@b", "a'", "b''", "b@a", "a^1^1", "c"]


# ---------------------------------------------------------------------------
# Oracles: the old paths through the unit-capacity expansion
# ---------------------------------------------------------------------------


def _old_general_matching(inst):
    """The 4-vertex chain engine: blossom on `reduce_instance(inst)`."""
    reduced = reduction.reduce_instance(inst)
    perturbed = _perturbed(inst, scale_to_integers(inst.edge_weights())[0])
    graph = networkx.Graph()
    graph.add_nodes_from(reduced.instance.players)
    owner = {}
    for (a, b) in reduced.instance.edges:
        tag_a, tag_b = reduced.origin[a], reduced.origin[b]
        tag = tag_a if tag_a[0] != "copy" else tag_b
        owner[(a, b)] = inst.edge_key(tag[1], tag[2])
        graph.add_edge(a, b, weight=perturbed[owner[(a, b)]])
    count = dict.fromkeys(inst.edges, 0)
    for (a, b) in networkx.max_weight_matching(graph):
        count[owner[reduced.instance.edge_key(a, b)]] += 1
    assert set(count.values()) <= {2, 3}
    return frozenset(e for e, c in count.items() if c == 3)


def _old_rematch(inst, sol, target):
    """Push the payoffs down the expansion, re-seat them with `srp_rematch`
    and read them back from the inner vertices."""
    reduced = reduction.reduce_instance(inst)
    reduced_sol = transfers.reduce_solution(inst, sol, reduced)
    target_reduced = transfers.reduce_matching(inst, target, reduced)
    moved = transfers.srp_rematch(reduced.instance, reduced_sol, target_reduced)
    vertex_pay = total_payoff(reduced.instance, moved.payoffs)
    payoffs = {}
    for (i, j) in target:
        payoffs[(i, j)] = vertex_pay[reduced.inner[(i, j)]]
        payoffs[(j, i)] = vertex_pay[reduced.inner[(j, i)]]
    return Solution(matching=frozenset(target), payoffs=payoffs)


# ---------------------------------------------------------------------------
# Adversarial inputs
# ---------------------------------------------------------------------------


def _adversarial_instance(rng, n_range=(2, 8), max_extra_edges=6, bipartite=False):
    base = random_instance(
        rng, n_range=n_range, max_extra_edges=max_extra_edges, b_range=(0, 3),
        bipartite=bipartite, allow_zero_capacity=True,
    )
    names = dict(zip(base.players, rng.sample(GADGET_LIKE_IDS, len(GADGET_LIKE_IDS))))
    capacity = {}
    for p in base.players:
        capacity[names[p]] = base.b(p)
        if rng.random() < 0.2:
            capacity[names[p]] = len(base.neighbors(p)) + rng.randint(1, 3)
    edges = []
    for (u, v) in base.edges:
        small = F(rng.randint(1, 30), rng.choice((1, 2, 3, 5)))
        w = rng.choice((F(0), F(10**12), F(10**12, 7), small, small))
        edges.append((names[u], names[v], w))
    return Instance([names[p] for p in base.players], capacity, edges)


def _gadget_size(inst):
    """Nodes of the edge gadget: every copy that some edge reaches, and two
    end vertices for each edge whose ends both have two or more copies. An
    edge reaches every copy of both ends unless one end has no copy."""
    copies = {p: min(inst.b(p), len(inst.neighbors(p))) for p in inst.players}
    reached = {p for (u, v) in inst.edges if copies[u] and copies[v] for p in (u, v)}
    gadgeted = sum(1 for (u, v) in inst.edges if copies[u] > 1 and copies[v] > 1)
    return sum(copies[p] for p in reached) + 2 * gadgeted


@pytest.fixture
def blossom_sizes(monkeypatch):
    """Node counts of every graph handed to the blossom engine."""
    sizes = []
    real = blossom.max_weight_matching

    def spy(n, edges, *args, **kwargs):
        sizes.append(n)
        return real(n, edges, *args, **kwargs)

    monkeypatch.setattr(blossom, "max_weight_matching", spy)
    return sizes


@pytest.fixture
def no_expansion(monkeypatch):
    def forbidden(inst):
        raise AssertionError("runtime path called reduce_instance")

    monkeypatch.setattr(reduction, "reduce_instance", forbidden)


# ---------------------------------------------------------------------------
# The general engine
# ---------------------------------------------------------------------------


def test_blossom_graph_is_the_edge_gadget(blossom_sizes):
    rng = random.Random(7)
    checked, shapes = 0, set()
    while checked < 40:
        inst = _adversarial_instance(rng, n_range=(4, 10))
        if inst.is_bipartite() or inst.m == 0:
            continue
        del blossom_sizes[:]
        max_weight_b_matching(inst)
        assert len(blossom_sizes) == 1
        assert blossom_sizes[0] == _gadget_size(inst), instance_to_json(inst)
        copies = {p: min(inst.b(p), len(inst.neighbors(p))) for p in inst.players}
        shapes |= {(copies[u] > 1) + (copies[v] > 1) for (u, v) in inst.edges}
        checked += 1
    # Edges with both ends on two or more copies (gadgets), with one such end
    # and with none (direct edges).
    assert shapes == {0, 1, 2}


def test_high_capacity_costs_nothing(blossom_sizes):
    tri = generate("triangle").instance

    def with_capacity(b):
        capacity = {p: tri.b(p) for p in tri.players}
        capacity["a"] = b
        edges = [(u, v, w) for (u, v), w in tri.edge_weights().items()]
        return Instance(tri.players, capacity, edges)

    heavy = with_capacity(200000)
    max_weight_b_matching(heavy)
    assert len(blossom_sizes) == 1 and blossom_sizes[0] == _gadget_size(heavy)
    out = outcome_to_json(heavy, solve(heavy))
    # Any capacity at or above the degree leaves a unsaturated, so the answer
    # is that of b(a) = 3; b(a) = 2 would saturate a and change its dual.
    assert out == outcome_to_json(with_capacity(3), solve(with_capacity(3)))
    assert out["solution"]["matching"] == [{"u": "a", "v": "b"}, {"u": "a", "v": "c"}]
    assert out["dual"]["y"]["a"] == "0"


def test_engine_matches_four_chain_engine():
    rng = random.Random(2024)
    for k in range(300):
        inst = _adversarial_instance(rng, bipartite=k % 5 == 0)
        if inst.m == 0:
            continue
        new = _general_matching(inst, _perturbed(inst, scale_to_integers(inst.edge_weights())[0]))
        assert new == _old_general_matching(inst), instance_to_json(inst)
        assert is_b_matching(inst, new)
        if inst.m <= 12:
            _, best = max_weight_b_matching_bruteforce(inst)
            assert weight(inst, new) == best


# ---------------------------------------------------------------------------
# rematch
# ---------------------------------------------------------------------------


def _optimal_b_matchings(inst):
    optimum = max_weight_b_matching(inst)[1]
    for r in range(inst.m + 1):
        for subset in itertools.combinations(inst.edges, r):
            if is_b_matching(inst, subset) and weight(inst, subset) == optimum:
                yield frozenset(subset)


def test_rematch_matches_expansion_path_on_every_optimal_target():
    rng = random.Random(99)
    pairs = moved = 0
    for k in range(120):
        bipartite = k % 3 == 0
        inst = _adversarial_instance(
            rng, n_range=(2, 6), max_extra_edges=3, bipartite=bipartite
        )
        outcome = solve(inst)
        if not outcome.stable:
            continue
        starts = [outcome.solution]
        if bipartite and inst.m:
            coloring = inst.two_coloring()
            sellers = [p for p in inst.players if coloring[p] == 0]
            starts.append(solve(inst, split_rule="seller_side", sellers=sellers).solution)
        for sol in starts:
            for target in _optimal_b_matchings(inst):
                new = rematch(inst, sol, target)
                old = _old_rematch(inst, sol, target)
                assert new == old, instance_to_json(inst)
                assert solution_to_json(inst, new) == solution_to_json(inst, old)
                pairs += 1
                moved += target != sol.matching
    assert pairs >= 150 and moved >= 30


# ---------------------------------------------------------------------------
# No runtime path expands
# ---------------------------------------------------------------------------


def test_runtime_paths_never_expand(no_expansion):
    rng = random.Random(5)
    for k in range(30):
        inst = _adversarial_instance(rng, bipartite=k % 2 == 0)
        outcome = solve(inst)
        core.game_value_with_witness(inst, inst.players[: max(1, inst.n - 1)])
        if max(inst.b(p) for p in inst.players) <= 2:
            x = random_allocation(rng, inst, max_weight_b_matching(inst)[1])
            core.core_membership_b2(inst, x)
        if outcome.stable:
            rematch(inst, outcome.solution, outcome.solution.matching)

