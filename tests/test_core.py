import random
from fractions import Fraction as F

import pytest

from stablefixtures import core, cycles, generate, matching, transfers
from stablefixtures.core import CoreViolationError, core_membership_b2, game_value, is_allocation
from stablefixtures.errors import (
    BoundExceededError,
    CapacityTooLargeError,
    ComponentSumError,
    InternalError,
)
from stablefixtures.instance import Instance
from stablefixtures.matching import max_weight_b_matching
from stablefixtures.oracles import core_membership_bruteforce, max_weight_b_matching_bruteforce
from stablefixtures.randomgen import (
    random_allocation,
    random_instance,
    random_nonallocation,
)
from stablefixtures.solver import solve
from stablefixtures.stability import total_payoff
from stablefixtures.transfers import allocation_to_payoff, repair_negative, solve_payoff_system


def test_game_value_example4():
    for alpha in (2, 3):
        inst = generate("example4", alpha=alpha).instance
        assert game_value(inst, inst.players) == 3 * alpha - 2


def test_game_value_singleton(diamond):
    assert game_value(diamond, ["s1"]) == 0


def test_game_value_example4_pendant_coalition():
    inst = generate("example4", alpha=2).instance
    coalition = ["s1", "s2", "t1_1", "t2_1"]
    assert game_value(inst, coalition) == 3  # 2*alpha - 1


def test_game_value_matches_only_the_residual(monkeypatch):
    """On a stable general game v(N) is read off the LP dual: blossom runs at
    most once, on the complementary-slack residual, and the answer is the
    tie-broken engine optimum."""
    inst = Instance(
        ["v1", "v2", "v3", "v4", "v5"],
        {"v1": 2, "v2": 1, "v3": 1, "v4": 2, "v5": 2},
        [
            ("v1", "v3", 7), ("v1", "v4", 3), ("v2", "v3", 2),
            ("v2", "v4", 5), ("v3", "v4", 9), ("v3", "v5", 1),
        ],
    )  # fmt: skip
    assert inst.two_coloring() is None and solve(inst).stable
    real = matching._general_matching
    sizes = []

    def spy(net, base):
        sizes.append(net.m)
        return real(net, base)

    monkeypatch.setattr(matching, "_general_matching", spy)
    value, witness = core.game_value_with_witness(inst, inst.players)
    assert len(sizes) <= 1 and all(m < inst.m for m in sizes)
    monkeypatch.undo()
    assert core.game_value(inst, inst.players) == value
    assert (witness, value) == max_weight_b_matching(inst)


def test_is_allocation(example3):
    inst, sol = example3
    assert is_allocation(inst, total_payoff(inst, sol.payoffs))
    assert not is_allocation(inst, {p: F(0) for p in inst.players})


def test_is_allocation_cubic_gadget():
    base = Instance(["p", "q"], {"p": 1, "q": 1}, [("p", "q", 1)])
    gen = generate("cubic_gadget", graph=base)
    assert sum(gen.allocation.values()) == 18  # 9n with n = 2
    assert is_allocation(gen.instance, gen.allocation)


def test_solve_payoff_system_single_edge():
    inst = generate("two_player", w=7).instance
    p = solve_payoff_system(inst, [("i", "j")], {"i": F(3), "j": F(4)})
    assert p[("i", "j")] == 3 and p[("j", "i")] == 4


def test_solve_payoff_system_path():
    inst = Instance(
        ["a", "b", "c"], {"a": 1, "b": 2, "c": 1}, [("a", "b", 1), ("b", "c", 1)]
    )
    x = {"a": F(2), "b": F(0), "c": F(0)}
    p = solve_payoff_system(inst, inst.edges, x)
    assert p[("a", "b")] == 2
    assert p[("b", "a")] == -1
    assert p[("b", "c")] == 1
    assert p[("c", "b")] == 0


def _pairs(*entries):
    """Payoff items (u, v, p(u, v), p(v, u)) as the matrix lists them."""
    out = []
    for (u, v, p_uv, p_vu) in entries:
        out += [((u, v), F(p_uv)), ((v, u), F(p_vu))]
    return out


# The smallest canonical edge on a cycle is given up, again and again
# (reverse-delete), and paid half to each end in increasing order; the forest
# left is peeled at its smallest-index leaf. The item order is pinned too.
@pytest.mark.parametrize(
    "inst, x, expected",
    [
        (
            Instance(
                ["v1", "v2", "v3", "v4"], dict.fromkeys(["v1", "v2", "v3", "v4"], 2),
                [("v1", "v2", 1), ("v2", "v3", 1), ("v3", "v4", 1), ("v4", "v1", 1)],
            ),
            dict.fromkeys(["v1", "v2", "v3", "v4"], 1),
            _pairs(
                ("v1", "v2", "1/2", "1/2"), ("v1", "v4", "1/2", "1/2"),
                ("v2", "v3", "1/2", "1/2"), ("v3", "v4", "1/2", "1/2"),
            ),
        ),
        (
            # v1v2, v1v3 and v2v3 close cycles; the star at v4 is peeled.
            Instance(
                ["v1", "v2", "v3", "v4"], dict.fromkeys(["v1", "v2", "v3", "v4"], 3),
                [
                    ("v1", "v2", 1), ("v1", "v3", 2), ("v1", "v4", 3),
                    ("v2", "v3", 4), ("v2", "v4", 5), ("v3", "v4", 6),
                ],
            ),
            {"v1": 5, "v2": 5, "v3": 5, "v4": 6},
            _pairs(
                ("v1", "v2", "1/2", "1/2"), ("v1", "v3", "1", "1"), ("v2", "v3", "2", "2"),
                ("v1", "v4", "7/2", "-1/2"), ("v2", "v4", "5/2", "5/2"), ("v3", "v4", "2", "4"),
            ),
        ),
        (
            # A theta graph: the cycles v1v2v3 and v2v4v5v3 share v2v3. v1v2
            # breaks the first, then the shared edge breaks the second.
            Instance(
                ["v1", "v2", "v3", "v4", "v5"], {"v1": 2, "v2": 3, "v3": 3, "v4": 2, "v5": 2},
                [
                    ("v1", "v2", 2), ("v1", "v3", 4), ("v2", "v3", 6),
                    ("v2", "v4", 3), ("v3", "v5", 5), ("v4", "v5", 1),
                ],
            ),
            {"v1": 3, "v2": 7, "v3": 5, "v4": F(1, 2), "v5": F(11, 2)},
            _pairs(
                ("v1", "v2", "1", "1"), ("v2", "v3", "3", "3"), ("v1", "v3", "2", "2"),
                ("v2", "v4", "3", "0"), ("v3", "v5", "0", "5"), ("v4", "v5", "1/2", "1/2"),
            ),
        ),
        (
            Instance(["a", "b", "c", "d"], dict.fromkeys("abcd", 1), [("a", "b", 4), ("c", "d", 6)]),
            {"a": 1, "b": 3, "c": 2, "d": 2},
            r"component \['c', 'd'\] has x = 4 but matched weight 6",
        ),
    ],
    ids=["four_cycle", "k4", "theta", "second_component_sum"],
)  # fmt: skip
def test_solve_payoff_system_cycle_choice(inst, x, expected):
    x = {p: F(v) for p, v in x.items()}
    if isinstance(expected, str):
        with pytest.raises(ComponentSumError, match=expected):
            solve_payoff_system(inst, inst.edges, x)
        return
    p = solve_payoff_system(inst, inst.edges, x)
    assert list(p.items()) == expected
    assert total_payoff(inst, p) == x


def test_solve_payoff_system_component_sum_check():
    inst = generate("two_player", w=7).instance
    with pytest.raises(ComponentSumError):
        solve_payoff_system(inst, [("i", "j")], {"i": F(3), "j": F(3)})


def test_solve_payoff_system_uncovered_nonzero():
    inst = Instance(
        ["a", "b", "c"], {"a": 1, "b": 1, "c": 1}, [("a", "b", 2), ("b", "c", 2)]
    )
    with pytest.raises(ComponentSumError):
        solve_payoff_system(inst, [("a", "b")], {"a": F(1), "b": F(1), "c": F(1)})


def test_repair_negative_noop():
    inst = generate("two_player", w=7).instance
    p = {("i", "j"): F(3), ("j", "i"): F(4)}
    assert repair_negative(inst, [("i", "j")], p, {"i": F(3), "j": F(4)}) == p


def test_repair_negative_triangle_one_augmentation():
    inst = Instance(
        ["s1", "s2", "s3"],
        {p: 2 for p in ("s1", "s2", "s3")},
        [("s1", "s2", 1), ("s1", "s3", 1), ("s2", "s3", 1)],
    )
    x = {"s1": F(0), "s2": F(3, 2), "s3": F(3, 2)}
    signed = solve_payoff_system(inst, inst.edges, x)
    assert any(v < 0 for v in signed.values())
    repaired = repair_negative(inst, inst.edges, signed, x)
    assert all(v >= 0 for v in repaired.values())
    assert total_payoff(inst, repaired) == x


def test_repair_negative_detects_violation():
    inst = Instance(
        ["a", "b", "c"], {"a": 1, "b": 2, "c": 1}, [("a", "b", 1), ("b", "c", 1)]
    )
    x = {"a": F(2), "b": F(0), "c": F(0)}  # component sums hold, not in core
    signed = solve_payoff_system(inst, inst.edges, x)
    with pytest.raises(CoreViolationError) as err:
        repair_negative(inst, inst.edges, signed, x)
    verdict = err.value.verdict
    assert verdict.coalition == ("b", "c")
    assert verdict.coalition_total < verdict.coalition_value


def test_uncertified_violation_is_internal_error(diamond):
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}  # in the core
    with pytest.raises(InternalError, match="certification"):
        core._violation(diamond, x, ["s1", "s2"])


def test_wrong_row_sums_are_internal_errors(monkeypatch):
    inst = Instance(["a", "b"], {"a": 1, "b": 1}, [("a", "b", 4)])
    x = {"a": F(1), "b": F(3)}
    signed = solve_payoff_system(inst, inst.edges, x)
    monkeypatch.setattr(transfers, "total_payoff", lambda inst_, p: {q: F(0) for q in inst_.players})
    with pytest.raises(InternalError, match="row sums"):
        solve_payoff_system(inst, inst.edges, x)
    with pytest.raises(InternalError, match="row sums"):
        repair_negative(inst, inst.edges, signed, x)


def test_repair_round_bound_is_internal_error(monkeypatch):
    inst = Instance(["a", "b", "c"], {"a": 1, "b": 2, "c": 1}, [("a", "b", 2), ("b", "c", 2)])
    x = {"a": F(3), "b": F(0), "c": F(1)}
    signed = solve_payoff_system(inst, inst.edges, x)
    assert any(q < 0 for q in signed.values())
    # An empty round budget leaves the negative entry in place.
    monkeypatch.setattr(transfers, "range", lambda n: (), raising=False)
    with pytest.raises(InternalError, match="round bound"):
        repair_negative(inst, inst.edges, signed, x)


def test_allocation_to_payoff_diamond(diamond):
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}
    mstar = [("s1", "s2"), ("s1", "s3"), ("s2", "s3")]
    p = allocation_to_payoff(diamond, x, mstar)
    assert all(v >= 0 for v in p.values())
    assert total_payoff(diamond, p) == x
    for (i, j) in mstar:
        assert p[(i, j)] + p[(j, i)] == 1
    # The cyclic split from the counterexample construction is also valid.
    cyclic = {
        ("s1", "s2"): F(1),
        ("s2", "s1"): F(0),
        ("s2", "s3"): F(1),
        ("s3", "s2"): F(0),
        ("s3", "s1"): F(1),
        ("s1", "s3"): F(0),
    }
    assert total_payoff(diamond, cyclic) == x


def test_allocation_to_payoff_example3_round_trip(example3):
    inst, sol = example3
    x = total_payoff(inst, sol.payoffs)
    p = allocation_to_payoff(inst, x, sol.matching)
    assert total_payoff(inst, p) == x
    assert all(v >= 0 for v in p.values())


def test_allocation_to_payoff_solve_output():
    rng = random.Random(17)
    done = 0
    while done < 10:
        inst = random_instance(rng, n_range=(3, 6), b_range=(1, 3))
        outcome = solve(inst)
        if not outcome.stable:
            continue
        done += 1
        x = total_payoff(inst, outcome.solution.payoffs)
        p = allocation_to_payoff(inst, x, outcome.solution.matching)
        assert total_payoff(inst, p) == x


def test_core_membership_b2_example4():
    gen = generate("example4", alpha=2)
    verdict = core_membership_b2(gen.instance, gen.allocation)
    assert verdict.kind == "violation"
    assert len(verdict.coalition) == 4
    assert verdict.deficit == F(1, 3)
    assert verdict.coalition_value == 3
    assert verdict.coalition_total == F(8, 3)


def test_core_membership_b2_diamond(diamond):
    x = {"s1": F(1), "s2": F(1), "s3": F(1), "u": F(0)}
    assert core_membership_b2(diamond, x).in_core
    assert core_membership_bruteforce(diamond, x).in_core


def test_core_membership_b2_example3_totals(example3):
    inst, sol = example3
    verdict = core_membership_b2(inst, total_payoff(inst, sol.payoffs))
    assert verdict.in_core


def test_core_membership_b2_sums_the_grand_coalition_once(monkeypatch, example3):
    inst, sol = example3
    real = core._coalition_total
    grand = []

    def spy(inst_, x, coalition):
        if list(coalition) == list(inst.players):
            grand.append(coalition)
        return real(inst_, x, coalition)

    monkeypatch.setattr(core, "_coalition_total", spy)
    assert core_membership_b2(inst, total_payoff(inst, sol.payoffs)).in_core
    assert len(grand) == 1


def test_core_membership_b2_negative_capacity_two_cycle(monkeypatch):
    """A cycle of capacity-2 players paid less than its weight is found by
    the path/cycle system; no separate negative-cycle stage runs."""
    inst = Instance(
        ["a", "b", "c", "d"],
        {"a": 2, "b": 2, "c": 2, "d": 1},
        [("a", "b", 4), ("b", "c", 4), ("a", "c", 4), ("a", "d", 10)],
    )
    x = {"a": F(2), "b": F(3), "c": F(3), "d": F(10)}  # x(abc) = 8 < w(abc) = 12
    assert is_allocation(inst, x)

    def unused(vertices, costs):
        raise AssertionError("negative_cycle ran")

    monkeypatch.setattr(cycles, "negative_cycle", unused)
    verdict = core_membership_b2(inst, x)
    assert verdict.kind == "violation" == core_membership_bruteforce(inst, x).kind
    assert verdict.coalition == ("a", "b", "c")
    assert verdict.coalition_value == 12 and verdict.deficit == 4


def test_core_membership_b2_rejects_large_capacity():
    inst = generate("example4", alpha=3).instance  # b = 3 everywhere
    with pytest.raises(CapacityTooLargeError):
        core_membership_b2(inst, {p: F(0) for p in inst.players})


def test_core_membership_b2_singleton_stage(diamond):
    x = {"s1": F(-1), "s2": F(2), "s3": F(2), "u": F(0)}
    verdict = core_membership_b2(diamond, x)
    assert verdict.kind == "violation"
    assert verdict.coalition == ("s1",)


def test_core_membership_b2_capacity_zero_stage():
    inst = Instance(
        ["a", "b", "z"], {"a": 1, "b": 1, "z": 0}, [("a", "b", 2), ("b", "z", 5)]
    )
    ok = core_membership_b2(inst, {"a": F(1), "b": F(1), "z": F(0)})
    assert ok.in_core
    shifted = core_membership_b2(inst, {"a": F(1), "b": F(0), "z": F(1)})
    assert shifted.kind == "violation"
    assert "z" not in shifted.coalition


def test_core_membership_not_allocation_agreement():
    inst = generate("two_player", w=7).instance
    x = {"i": F(5), "j": F(5)}  # sums to 10 > v(N) = 7, no violated coalition
    assert core_membership_b2(inst, x).kind == "not_allocation"
    assert core_membership_bruteforce(inst, x).kind == "not_allocation"


def test_core_membership_walk_counterexample():
    # Doubling the middle edge in a walk would look like a -1/2 "path", but
    # no simple path or cycle is violated; both tests must agree on in_core.
    inst = Instance(
        ["s", "u", "v", "t"],
        {"s": 2, "u": 2, "v": 2, "t": 2},
        [("s", "u", 0), ("u", "v", 2), ("u", "t", 0)],
    )
    x = {"s": F(0), "u": F(3, 2), "v": F(1, 2), "t": F(0)}
    assert core_membership_b2(inst, x).in_core
    assert core_membership_bruteforce(inst, x).in_core


def test_core_membership_triangle_always_violated():
    tri = generate("triangle").instance
    for x in (
        {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)},
        {"a": F(1), "b": F(0), "c": F(0)},
    ):
        assert core_membership_b2(tri, x).kind == "violation"
        assert core_membership_bruteforce(tri, x).kind == "violation"


def test_core_membership_bruteforce_bound():
    rng = random.Random(1)
    inst = random_instance(rng, n_range=(5, 5))
    with pytest.raises(BoundExceededError):
        core_membership_bruteforce(inst, {p: F(0) for p in inst.players}, max_players=4)


def test_cubic_gadget_k33_violation_arithmetic():
    left = ["l1", "l2", "l3"]
    right = ["r1", "r2", "r3"]
    base = Instance(
        left + right,
        {p: 1 for p in left + right},
        [(a, b, 1) for a in left for b in right],
    )
    gen = generate("cubic_gadget", graph=base)
    inst, x = gen.instance, gen.allocation
    assert is_allocation(inst, x)
    coalition = left + right  # V(H) for the 3-regular subgraph H = K33
    value = game_value(inst, coalition)
    total = sum(x[p] for p in coalition)
    assert value == F(3, 2) * 6
    assert value - total == 1  # |V(H)| / n with n = 6
    assert total < value


def test_cubic_gadget_tree_in_core_bruteforce():
    base = Instance(["p", "q"], {"p": 1, "q": 1}, [("p", "q", 1)])
    gen = generate("cubic_gadget", graph=base)
    verdict = core_membership_bruteforce(gen.instance, gen.allocation)
    assert verdict.in_core


def test_oracle_agreement_random():
    rng = random.Random(555)
    for trial in range(60):
        inst = random_instance(
            rng, n_range=(3, 8), max_extra_edges=4, b_range=(1, 2),
            allow_zero_capacity=True,
        )
        _, grand = max_weight_b_matching_bruteforce(inst)
        x = (
            random_nonallocation(rng, inst, grand)
            if trial % 3 == 0
            else random_allocation(rng, inst, grand)
        )
        fast = core_membership_b2(inst, x)
        slow = core_membership_bruteforce(inst, x)
        assert fast.kind == slow.kind
