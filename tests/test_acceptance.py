"""Acceptance suite: one test (and one printed line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Randomized criteria use fixed seeds; all comparisons are exact rationals.
"""

import functools
import random
from fractions import Fraction as F


from stablefixtures import generate
from stablefixtures.blossom import max_weight_b_matching
from stablefixtures.core import core_membership_b2, game_value, is_allocation
from stablefixtures.duals import is_dual_feasible, verify_complementary_slackness
from stablefixtures.instance import Instance
from stablefixtures.matching import lp_optimum, weight
from stablefixtures.oracles import core_membership_bruteforce, max_weight_b_matching_bruteforce
from stablefixtures.randomgen import (
    random_allocation,
    random_instance,
    random_nonallocation,
)
from stablefixtures.reduction import reduce_instance
from stablefixtures.solver import solve
from stablefixtures.stability import check_solution, is_stable, make_solution, total_payoff, utilities
from stablefixtures.transfers import (
    allocation_to_payoff,
    are_equivalent,
    lift_stable,
    meet_join,
    reduce_matching,
    reduce_solution,
    to_competitive_equilibrium,
)
from stablefixtures.witness import max_half_b_matching_weight


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:>2} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number:>2} PASS: {description}")

        return run

    return wrap


@criterion(1, "diamond: optima 3 vs 7/2, no stable solution, (1,1,1,0) in core")
def test_criterion_1_diamond():
    diamond = generate("diamond").instance
    _, integral = max_weight_b_matching(diamond)
    assert integral == 3
    half, witness = max_half_b_matching_weight(diamond)
    assert half == F(7, 2)
    assert witness.weight(diamond) == F(7, 2)
    outcome = solve(diamond)
    assert not outcome.stable
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}
    assert core_membership_b2(diamond, x).in_core
    assert core_membership_bruteforce(diamond, x).in_core


@criterion(2, "example4 (alpha 2, 3): v(N) = 3a-2 and the 1/3 pendant-coalition gap")
def test_criterion_2_example4():
    for alpha in (2, 3):
        gen = generate("example4", alpha=alpha)
        inst, x = gen.instance, gen.allocation
        assert game_value(inst, inst.players) == 3 * alpha - 2
        assert is_allocation(inst, x)
        coalition = ["s1", "s2"] + [
            p for p in inst.players if p.startswith(("t1_", "t2_"))
        ]
        value = game_value(inst, coalition)
        total = sum(x[p] for p in coalition)
        assert value == 2 * alpha - 1
        assert total == 2 * alpha - F(4, 3)
        assert value - total == F(1, 3)
        verdict = core_membership_bruteforce(inst, x)
        assert verdict.kind == "violation"


@criterion(3, "examples 1-3 verbatim: compatible, stable, utilities, rematch")
def test_criterion_3_reference_examples():
    inst1 = generate("example1").instance
    sol1 = make_solution(
        inst1,
        [("u1", "v1"), ("u2", "v2")],
        {
            ("u1", "v1"): F(7, 10),
            ("v1", "u1"): F(3, 10),
            ("u2", "v2"): F(7, 10),
            ("v2", "u2"): F(3, 10),
        },
    )
    assert not check_solution(inst1, sol1)
    assert is_stable(inst1, sol1).stable

    inst2 = generate("example2").instance
    sol2 = make_solution(
        inst2,
        [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u3", "v3")],
        {
            ("u1", "v1"): 3,
            ("v1", "u1"): 1,
            ("u1", "v2"): 3,
            ("v2", "u1"): 3,
            ("u2", "v1"): 2,
            ("v1", "u2"): 2,
            ("u3", "v3"): 0,
            ("v3", "u3"): 2,
        },
    )
    assert not check_solution(inst2, sol2)
    assert is_stable(inst2, sol2).stable

    inst3 = generate("example3").instance
    sol3 = make_solution(
        inst3,
        [("v1", "v2"), ("v3", "v4")],
        {
            ("v1", "v2"): F(3, 2),
            ("v2", "v1"): F(3, 2),
            ("v3", "v4"): F(1, 2),
            ("v4", "v3"): F(1, 2),
        },
    )
    assert not check_solution(inst3, sol3)
    assert is_stable(inst3, sol3).stable
    assert utilities(inst3, sol3) == {"v1": F(3, 2), "v2": F(3, 2), "v3": 0, "v4": 0}

    from stablefixtures.transfers import rematch

    target_hat = make_solution(
        inst2,
        [("u1", "v1"), ("u1", "v3"), ("u2", "v1"), ("u3", "v2")],
        {
            ("u1", "v1"): 3,
            ("v1", "u1"): 1,
            ("u1", "v3"): 3,
            ("v3", "u1"): 2,
            ("u2", "v1"): 2,
            ("v1", "u2"): 2,
            ("u3", "v2"): 0,
            ("v2", "u3"): 3,
        },
    )
    moved = rematch(inst2, sol2, target_hat.matching)
    assert are_equivalent(inst2, moved, target_hat)


@criterion(4, "strong duality pipeline on 300 random instances (n<=8, b<=3)")
def test_criterion_4_pipeline():
    rng = random.Random(40400)
    stable_count = 0
    for _ in range(300):
        inst = random_instance(
            rng,
            n_range=(3, 8),
            max_extra_edges=5,
            b_range=(1, 3),
            max_weight=8,
            allow_zero_capacity=True,
        )
        _, integral = max_weight_b_matching(inst)
        _, brute = max_weight_b_matching_bruteforce(inst)
        assert integral == brute
        half, witness = max_half_b_matching_weight(inst)
        outcome = solve(inst)
        opt = lp_optimum(inst)
        assert outcome.stable == (integral == half) == (opt.weight == opt.half)
        if outcome.stable:
            stable_count += 1
            assert is_stable(inst, outcome.solution).stable
            assert is_dual_feasible(inst, outcome.dual).feasible
            x = {
                e: F(1 if e in outcome.solution.matching else 0) for e in inst.edges
            }
            assert verify_complementary_slackness(inst, x, outcome.dual).clean
            totals = total_payoff(inst, outcome.solution.payoffs)
            assert core_membership_bruteforce(inst, totals).in_core
        else:
            assert outcome.witness.weight(inst) == half > integral
    assert stable_count > 20  # the sample covers both outcomes


@criterion(5, "reduction identities and reduce/lift round trips on 100 instances")
def test_criterion_5_reduction():
    rng = random.Random(50500)
    for _ in range(100):
        inst = random_instance(
            rng, n_range=(2, 6), max_extra_edges=4, b_range=(0, 3),
            max_weight=7, allow_zero_capacity=True,
        )
        reduced = reduce_instance(inst)
        total_b = sum(inst.b(p) for p in inst.players)
        assert reduced.instance.n == total_b + 4 * inst.m
        matching, value = max_weight_b_matching(inst)
        expanded = reduce_matching(inst, matching, reduced)
        assert weight(reduced.instance, expanded) == value + 2 * inst.total_weight()

        outcome = solve(inst)
        opt = lp_optimum(reduced.instance)
        assert (opt.weight == opt.half) == outcome.stable
        if outcome.stable:
            rsol = reduce_solution(inst, outcome.solution, reduced)
            assert is_stable(reduced.instance, rsol).stable
            lifted = lift_stable(inst, reduced, rsol)
            assert is_stable(inst, lifted).stable


@criterion(6, "core membership: b<=2 algorithm vs coalition enumeration, 300 instances")
def test_criterion_6_oracle_agreement():
    kinds = {"in_core": 0, "violation": 0, "not_allocation": 0}
    for inst, x in _criterion6_cases():
        fast = core_membership_b2(inst, x)
        slow = core_membership_bruteforce(inst, x)
        assert fast.kind == slow.kind
        kinds[fast.kind] += 1
    assert sum(kinds.values()) >= 300
    assert kinds["not_allocation"] > 0  # non-allocations rejected at x(N) = v(N)
    assert kinds["in_core"] > 10
    assert kinds["violation"] > 10


@functools.lru_cache(maxsize=1)
def _criterion6_cases():
    rng = random.Random(60600)
    cases = []
    for trial in range(300):
        inst = random_instance(
            rng,
            n_range=(3, 10),
            max_extra_edges=4,
            b_range=(1, 2),
            max_weight=6,
            allow_zero_capacity=True,
        )
        _, grand = max_weight_b_matching_bruteforce(inst)
        style = trial % 3
        if style == 0:
            cases.append((inst, random_nonallocation(rng, inst, grand)))
        elif style == 1:
            cases.append((inst, random_allocation(rng, inst, grand)))
        else:
            # Core-biased: total payoffs of stable solutions are in the core.
            outcome = solve(inst)
            if outcome.stable:
                cases.append((inst, total_payoff(inst, outcome.solution.payoffs)))
            else:
                cases.append((inst, random_allocation(rng, inst, grand)))
    return tuple(cases)


@criterion(7, "every in-core allocation decomposes into nonnegative payoffs")
def test_criterion_7_decomposition():
    cases = [
        (inst, x)
        for inst, x in _criterion6_cases()
        if core_membership_b2(inst, x).in_core
    ]
    assert len(cases) > 10
    for inst, x in cases:
        matching, _ = max_weight_b_matching(inst)
        payoffs = allocation_to_payoff(inst, x, matching)
        assert all(v >= 0 for v in payoffs.values())
        assert total_payoff(inst, payoffs) == {p: x[p] for p in inst.players}
        for (i, j), q in payoffs.items():
            key = inst.edge_key(i, j)
            assert key in matching or q == 0
        for (u, v) in matching:
            assert payoffs[(u, v)] + payoffs[(v, u)] == inst.weight(u, v)


@criterion(8, "hardness gadget: K33 violation arithmetic and tree in-core check")
def test_criterion_8_gadget():
    left = ["l1", "l2", "l3"]
    right = ["r1", "r2", "r3"]
    k33 = Instance(
        left + right,
        {p: 1 for p in left + right},
        [(a, b, 1) for a in left for b in right],
    )
    gen = generate("cubic_gadget", graph=k33)
    inst, x = gen.instance, gen.allocation
    n = k33.n
    assert is_allocation(inst, x)
    cubic_vertices = left + right  # K33 is 3-regular
    value = game_value(inst, cubic_vertices)
    total = sum(x[p] for p in cubic_vertices)
    assert value == F(3, 2) * len(cubic_vertices)
    assert total < value
    assert value - total == F(len(cubic_vertices), n)

    tree = Instance(["p", "q"], {"p": 1, "q": 1}, [("p", "q", 1)])
    gen_tree = generate("cubic_gadget", graph=tree)
    verdict = core_membership_bruteforce(gen_tree.instance, gen_tree.allocation)
    assert verdict.in_core


@criterion(9, "bipartite guarantee on 200 instances: stable, lattice, equilibrium")
def test_criterion_9_bipartite():
    rng = random.Random(90900)
    for _ in range(200):
        inst = random_instance(
            rng, n_range=(2, 7), max_extra_edges=5, b_range=(1, 3),
            max_weight=8, bipartite=True,
        )
        coloring = inst.two_coloring()
        sellers = frozenset(p for p in inst.players if coloring[p] == 0)
        out_half = solve(inst, split_rule="half")
        assert out_half.stable
        out_seller = solve(inst, split_rule="seller_side", sellers=sellers)
        assert out_seller.stable
        for op in ("meet", "join"):
            combo = meet_join(
                inst, out_half.solution, out_seller.solution, op, sellers=sellers
            )
            assert is_stable(inst, combo).stable
        ce = to_competitive_equilibrium(inst, out_half.solution, sellers=sellers)
        assert is_stable(inst, ce).stable
        prices = {}
        for (a, b) in ce.matching:
            i = a if a in sellers else b
            prices.setdefault(i, set()).add(ce.payoff(i, a if i == b else b))
        verdict = is_stable(inst, out_half.solution)
        for i, values in prices.items():
            assert len(values) == 1  # one uniform price per seller
            assert values == {verdict.utilities[i]}
