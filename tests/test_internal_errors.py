"""Certificate checks raise InternalError, also under `python -O`.

Once the half-b-matching optimum comes from a single unperturbed pass, the
dual certificate check is the only guard on it, so it must not be an
`assert`. The same holds for the checks on the stable answer read off the
dual: the residual matching, the final stability check and the SSP
reduced costs. pytest rewrites the asserts of test modules into explicit
checks, so this module also tests something when pytest itself runs under
`python -O` (as the CI does).
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import stablefixtures
from stablefixtures import cover, duals, generate, matching, solver, stability, transfers
from stablefixtures.cli import EXIT_INTERNAL, main
from stablefixtures.errors import InternalError, StableFixturesError
from stablefixtures.instance import Instance, instance_to_json
from stablefixtures.rationals import scale_to_integers
from stablefixtures.reduction import reduce_instance
from stablefixtures.stability import Solution


def _overpriced_ssp(monkeypatch):
    """Make every SSP pass report prices one scaled unit too high."""
    real = matching._ssp_flow

    def wrong(inst, int_weights, coloring):
        matched, prices = real(inst, int_weights, coloring)
        return matched, {p: q + 1 for p, q in prices.items()}

    monkeypatch.setattr(matching, "_ssp_flow", wrong)


def test_internal_error_is_a_package_error():
    assert issubclass(InternalError, StableFixturesError)


@pytest.mark.parametrize("family", ["example2", "diamond", "triangle"])
def test_wrong_prices_fail_solve(monkeypatch, family):
    _overpriced_ssp(monkeypatch)
    with pytest.raises(InternalError, match="duality gap"):
        solver.solve(generate(family).instance)


def test_wrong_prices_fail_every_dual_path(monkeypatch):
    inst = generate("example2").instance
    _overpriced_ssp(monkeypatch)
    with pytest.raises(InternalError):
        duals.dual_from_duplicated(inst)
    with pytest.raises(InternalError):
        duals.bipartite_max_weight_b_matching_with_duals(inst)
    with pytest.raises(InternalError):
        matching.lp_optimum(inst)


def _drop_one_matched_edge(inst, matched, prices):
    return matched - {min(matched)}, prices


def _negative_price(inst, matched, prices):
    first = next(p for p in inst.players if inst.b(p) > 0)
    return matched, {**prices, first: -1}


def _swap_matched_for_unmatched(inst, matched, prices):
    # A trade of unequal weights that keeps a b-matching. The double cover
    # gives each edge two cross edges of equal weight, so equal weights are
    # skipped: only a lighter matching opens a duality gap.
    for e in sorted(matched):
        for f in inst.edges:
            swapped = (matched - {e}) | {f}
            if (
                f not in matched
                and inst.weight(*f) != inst.weight(*e)
                and matching.is_b_matching(inst, swapped)
            ):
                return swapped, prices
    raise AssertionError("no swap keeps a b-matching")


@pytest.mark.parametrize(
    "fault, message",
    [
        (_drop_one_matched_edge, "duality gap"),
        (_negative_price, "infeasible dual"),
        (_swap_matched_for_unmatched, "duality gap"),
    ],
)
def test_certificate_catches_each_engine_fault(monkeypatch, fault, message):
    """The weak-duality certificate catches what a per-condition check of
    complementary slackness would: a lost matched edge, a negative price and
    a matched edge traded for an unmatched one."""
    real = matching._ssp_flow

    def faulty(inst, int_weights, coloring):
        return fault(inst, *real(inst, int_weights, coloring))

    bipartite = Instance(
        ["a", "b", "c", "d", "e"],
        {p: 1 for p in "abcde"},
        [("a", "b", 5), ("a", "d", 2), ("c", "b", 3), ("c", "d", 7), ("a", "e", 1)],
    )
    general = Instance(
        ["a", "b", "c", "d", "e", "f"],
        {"a": 2, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1},
        [
            ("a", "b", 5), ("b", "c", 1), ("a", "c", 4), ("c", "d", 9),
            ("a", "d", 3), ("d", "e", 6), ("b", "f", 2),
        ],
    )  # fmt: skip
    monkeypatch.setattr(matching, "_ssp_flow", faulty)
    with pytest.raises(InternalError, match=message):
        duals.bipartite_max_weight_b_matching_with_duals(bipartite)
    for inst in (bipartite, general):
        with pytest.raises(InternalError, match=message):
            duals.dual_from_duplicated(inst)
        with pytest.raises(InternalError, match=message):
            solver.solve(inst)


def _lowered_price(inst, matched, prices):
    top = max((p for p in prices if prices[p] > 0), key=lambda p: (prices[p], p))
    return matched, {**prices, top: prices[top] - 1}


def _overfilled_matching(inst, matched, prices):
    deg = {p: sum(p in e for e in matched) for p in inst.players}
    extra = next(
        e for e in inst.edges if e not in matched and any(deg[p] == inst.b(p) for p in e)
    )
    return matched | {extra}, prices


def _shifted_y(inst, matched, prices):
    u, v = min(matched)
    return matched, {**prices, u: prices[u] + 1, v: prices[v] - 1}


@pytest.mark.parametrize(
    "fault, message",
    [
        (_lowered_price, "duality gap"),
        (_overfilled_matching, "overfilled a player"),
        (_shifted_y, "duality gap|infeasible dual"),
    ],
)
@pytest.mark.parametrize("family", ["example2", "diamond", "triangle"])
def test_integer_certificate_catches_each_pass_fault(
    monkeypatch, capsys, tmp_path, family, fault, message
):
    """A lowered price, an overfilled matching and a y shifted along a
    matched edge each break the integer certificate of the pass, on the game
    itself (example2) and on the double cover (diamond, triangle), and the
    CLI exits 4. (A price lowered where every other edge keeps slack can
    leave another optimal dual, which the certificate rightly accepts; on
    these games each fault breaks optimality.)"""
    inst = generate(family).instance
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    real = matching._ssp_flow

    def faulty(inst, int_weights, coloring):
        return fault(inst, *real(inst, int_weights, coloring))

    monkeypatch.setattr(matching, "_ssp_flow", faulty)
    with pytest.raises(InternalError, match=message):
        solver.solve(inst)
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: internal: ")


def test_half_below_integral_fails_solve(monkeypatch):
    real = matching._certified_pass

    def light(*args):
        half, y, d = real(*args)
        return half - 1, y, d

    monkeypatch.setattr(matching, "_certified_pass", light)
    with pytest.raises(InternalError, match="below"):
        solver.solve(generate("example2").instance)


def test_witness_weight_mismatch_fails_solve(monkeypatch, capsys, tmp_path):
    """The witness is certified once, by the integer weight of its fold:
    a cover matching that loses an edge falls short of the optimum, and
    `solve` exits 4."""
    diamond = generate("diamond").instance
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(instance_to_json(diamond)))
    real = cover._slack_matching

    def light(inst, w, y, d):
        matching, residual = real(inst, w, y, d)
        return matching - {max(matching, key=w.get)}, residual

    monkeypatch.setattr(cover, "_slack_matching", light)
    with pytest.raises(InternalError, match="fall short of its optimum"):
        solver.solve(diamond)
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ") and len(captured.err.splitlines()) == 1


def _no_mates(real, n, edges):
    return [-1] * n


def _swap_first_edge_mates(real, n, edges):
    """Swap the mates of the ends of the first edge whose ends are matched
    elsewhere: the read-back sees the same selected edges, but the mate now
    pairs each end with a vertex it has no edge to."""
    mate = real(n, edges)
    a, b = next((a, b) for (a, b, _) in edges if mate[a] not in (-1, b) and mate[b] != -1)
    mate[a], mate[b] = mate[b], mate[a]
    return mate


@pytest.mark.parametrize(
    "fault, message",
    [(_no_mates, "uncovered"), (_swap_first_edge_mates, "does not weigh")],
)
def test_edge_gadget_read_back_catches_a_wrong_mate(monkeypatch, fault, message):
    """Every edge of a capacity-2 triangle gets the 2-vertex gadget and is
    selected. An empty mate leaves the mandatory end nodes uncovered; swapped
    mates keep every end covered and every edge selected, so only the weight
    check (the gadget's profit is twice the perturbed w(M)) catches them."""
    from stablefixtures import blossom

    real = blossom.max_weight_matching
    monkeypatch.setattr(blossom, "max_weight_matching", lambda n, edges: fault(real, n, edges))
    triangle = Instance(
        ["a", "b", "c"], dict.fromkeys("abc", 2), [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    )
    with pytest.raises(InternalError, match=message):
        matching._general_matching(triangle, scale_to_integers(triangle.edge_weights())[0])


# A capacity-1 triangle with a pendant edge: no stable solution, so the
# untied whole-game blossom starts warm from the LP optimum.
PENDANT_TRIANGLE = Instance(
    ["a", "b", "c", "u"], dict.fromkeys("abcu", 1),
    [("a", "b", 10), ("b", "c", 10), ("a", "c", 10), ("a", "u", 1)],
)  # fmt: skip

_LOWERED_START_PROBE = """
import sys
from stablefixtures import warmstart
from stablefixtures.cli import main

try:
    assert False
    stripped = True
except AssertionError:
    stripped = False

real = warmstart._gadget_start

def lowered(*args):
    # The start dual of the first matched gadget node, lowered by 1.
    matched, dual = real(*args)
    dual[next(v for v, k in enumerate(matched) if k != -1)] -= 1
    return matched, dual

warmstart._gadget_start = lowered
print(stripped, main(["solve", sys.argv[1]]))
"""


def test_lowered_start_dual_fails_solve(tmp_path):
    """A start dual lowered by 1 leaves a gadget edge infeasible: the start
    check refuses it, also under `python -O`."""
    path = tmp_path / "pendant.json"
    path.write_text(json.dumps(instance_to_json(PENDANT_TRIANGLE)))
    src = Path(stablefixtures.__file__).resolve().parents[1]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _LOWERED_START_PROBE, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(bool(flags)), str(EXIT_INTERNAL)]
        assert proc.stderr.startswith("error: internal: blossom start leaves edge")
        assert proc.stderr.endswith(" with slack -1/2\n")


def test_cli_maps_internal_error_to_exit_4(monkeypatch, capsys, tmp_path):
    path = tmp_path / "example2.json"
    path.write_text(json.dumps(instance_to_json(generate("example2").instance)))
    _overpriced_ssp(monkeypatch)
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: internal: duality gap")


_OPTIMIZED_PROBE = """
import sys
from stablefixtures import matching, solver, generate
from stablefixtures.errors import InternalError
from stablefixtures.cli import main

try:
    assert False
    stripped = True
except AssertionError:
    stripped = False

real = matching._ssp_flow

def wrong(inst, int_weights, coloring):
    matched, prices = real(inst, int_weights, coloring)
    return matched, {p: q + 1 for p, q in prices.items()}

matching._ssp_flow = wrong
try:
    solver.solve(generate("example2").instance)
    raised = False
except InternalError:
    raised = True
code = main(["solve", sys.argv[1]])
print(stripped, raised, code)
"""


def test_certificate_checks_survive_python_O(tmp_path):
    path = tmp_path / "example2.json"
    path.write_text(json.dumps(instance_to_json(generate("example2").instance)))
    src = Path(stablefixtures.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_PROBE, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", str(EXIT_INTERNAL)]
    assert proc.stderr.startswith("error: internal: duality gap")


# ---------------------------------------------------------------------------
# Checks on the stable path: residual matching, final stability check, dual read-back
# ---------------------------------------------------------------------------


def test_overfilling_residual_matching_fails_solve(
    monkeypatch, capsys, tmp_path, heavy_edge_triangle
):
    inst = heavy_edge_triangle
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    real = matching._engine

    def extra(net, base, *start):
        # The residual engine adds a-c.
        return real(net, base, *start) | {("a", "c")}

    monkeypatch.setattr(matching, "_engine", extra)
    with pytest.raises(InternalError, match="overfill"):
        solver.solve(inst)
    with pytest.raises(InternalError, match="overfill"):
        matching.lp_optimum(inst)
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("error: internal: forced and residual")


def test_forced_edges_overfilling_a_player_fail_solve(monkeypatch, capsys, tmp_path):
    """Every LP optimum takes every edge with d > 0, so an optimal dual never
    forces more edges at a player than its capacity."""
    inst = generate("triangle").instance
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    real = cover._cover_pass

    def slack(*args):
        half, y, d, cover_dual = real(*args)
        return half, y, {e: q + 1 for e, q in d.items()}, cover_dual

    monkeypatch.setattr(cover, "_cover_pass", slack)
    with pytest.raises(InternalError, match="overfill"):
        matching.lp_optimum(inst)
    with pytest.raises(InternalError, match="overfill"):
        solver.solve(inst)
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("error: internal: forced edges")


def _raised_cover_prices(y, d):
    return {p: q + 1 for p, q in y.items()}, d


def _zero_cover_dual(y, d):
    return dict.fromkeys(y, 0), dict.fromkeys(d, 0)


def _slack_on_every_cover_edge(y, d):
    return y, {e: q + 1 for e, q in d.items()}


@pytest.mark.parametrize(
    "fault, message",
    [
        (_raised_cover_prices, "fall short"),
        (_zero_cover_dual, "fall short"),
        (_slack_on_every_cover_edge, "forced edges of the optimal dual overfill"),
    ],
)
def test_wrong_cover_dual_fails_the_witness(monkeypatch, capsys, tmp_path, diamond, fault, message):
    """The no-stable witness is read off the cover's own dual: its forced
    edges plus the tie-broken optimum of its residual. A wrong cover dual,
    with the game's folded dual left right, leaves no tight edge or forces
    more edges than a player holds, and ends in InternalError, never in a
    whole-cover fallback or a wrong witness."""
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(instance_to_json(diamond)))
    real = cover._cover_pass

    def wrong(*args):
        half, y, d, (dup, cover_base, cover_half, *cover_dual) = real(*args)
        return half, y, d, (dup, cover_base, cover_half, *fault(*cover_dual))

    monkeypatch.setattr(cover, "_cover_pass", wrong)
    with pytest.raises(InternalError, match=message):
        solver.solve(diamond)
    with pytest.raises(InternalError, match=message):
        cover.max_half_b_matching_weight(diamond)
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ") and len(captured.err.splitlines()) == 1


_COVER_DUAL_PROBE = """
import sys
from stablefixtures import cover
from stablefixtures.cli import main

try:
    assert False
    stripped = True
except AssertionError:
    stripped = False

real = cover._cover_pass

def wrong(*args):
    half, y, d, (dup, cover_base, cover_half, cover_y, cover_d) = real(*args)
    return half, y, d, (dup, cover_base, cover_half, {p: q + 1 for p, q in cover_y.items()}, cover_d)

cover._cover_pass = wrong
print(stripped, main(["solve", sys.argv[1]]))
"""


def test_wrong_cover_dual_fails_under_python_O(tmp_path, diamond):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(instance_to_json(diamond)))
    src = Path(stablefixtures.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _COVER_DUAL_PROBE, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", str(EXIT_INTERNAL)]
    assert proc.stderr == (
        "error: internal: double cover's forced and residual edges fall short of its optimum\n"
    )


def test_unsplit_payoffs_fail_stable_from_dual(monkeypatch, heavy_edge_triangle):
    inst = heavy_edge_triangle
    outcome = solver.solve(inst)
    d = dict(outcome.dual.d)
    d[("a", "b")] += 1
    loose = solver.DualSolution(y=outcome.dual.y, d=d)
    # Only a lying objective lets a loose matched edge reach the split; the
    # dual and the weights are integers, so w(M) = 4 is 4 on the scale too.
    monkeypatch.setattr(duals, "_objective", lambda inst, y, d: 4)
    with pytest.raises(InternalError, match="dual split produced an incompatible"):
        duals.stable_from_dual(inst, outcome.solution.matching, loose)


def test_unstable_final_answer_fails_solve(monkeypatch, capsys, tmp_path):
    """A stable `solve` is certified by the LP pass, so its final stability
    check failing is an internal error, not a caller's precondition."""
    path = tmp_path / "example2.json"
    path.write_text(json.dumps(instance_to_json(generate("example2").instance)))
    monkeypatch.setattr(
        stability, "_utilities_unchecked", lambda inst, sol: dict.fromkeys(inst.players, F(0))
    )
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: the dual split produced an incompatible or unstable")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("name", ["meet_join", "to_competitive_equilibrium", "lift_stable"])
def test_unstable_transfer_output_fails_internally(monkeypatch, name):
    """The transfers check their own output last; a stable input that comes
    out unstable is a bug, so it raises InternalError."""
    inst = generate("example2").instance
    sol = solver.solve(inst).solution
    reduced = reduce_instance(inst)
    reduced_sol = transfers.reduce_solution(inst, sol, reduced)
    calls = {
        "meet_join": lambda: transfers.meet_join(inst, sol, sol, "join"),
        "to_competitive_equilibrium": lambda: transfers.to_competitive_equilibrium(inst, sol),
        "lift_stable": lambda: transfers.lift_stable(inst, reduced, reduced_sol),
    }
    # Every solution that `transfers` builds pays 0 on each matched edge.
    monkeypatch.setattr(
        transfers, "Solution", lambda matching, payoffs: Solution(matching, dict.fromkeys(payoffs, F(0)))
    )
    with pytest.raises(InternalError, match="produced an incompatible or unstable solution"):
        calls[name]()


@pytest.mark.parametrize(
    "shift, message", [({"a": -100}, "infeasible"), ({p: 1 for p in "abc"}, "matching weight")]
)
def test_wrong_utilities_fail_dual_from_stable(monkeypatch, heavy_edge_triangle, shift, message):
    inst = heavy_edge_triangle
    sol = solver.solve(inst).solution
    real = duals.utilities

    def shifted(inst, sol):
        u = real(inst, sol)
        return {p: q + shift.get(p, 0) for p, q in u.items()}

    monkeypatch.setattr(duals, "utilities", shifted)
    with pytest.raises(InternalError, match=message):
        duals.dual_from_stable(inst, sol)


def test_negative_reduced_cost_fails_ssp():
    inst = Instance(["a", "b", "c"], {p: 1 for p in "abc"}, [("a", "b", 1), ("b", "c", 5)])
    # A coloring that puts both ends of ab on the source side breaks the
    # potentials: a's search reaches b and scans b's arc to c.
    with pytest.raises(InternalError, match="reduced cost"):
        matching._ssp_flow(inst, {("a", "b"): 1, ("b", "c"): 5}, {"a": 0, "b": 0, "c": 1})


_STABLE_PATH_PROBE = """
import sys
from fractions import Fraction
from stablefixtures import duals, matching, solver
from stablefixtures.cli import main
from stablefixtures.errors import InternalError
from stablefixtures.instance import Instance

inst = Instance(["a", "b", "c"], {p: 1 for p in "abc"},
                [("a", "b", 4), ("b", "c", 1), ("a", "c", 1)])
outcome = solver.solve(inst)
d = dict(outcome.dual.d)
d[("a", "b")] += 1
real_objective, real_utilities, real_engine = (
    duals._objective, duals.utilities, matching._engine)

def raises(call):
    try:
        call()
    except InternalError:
        return True
    return False

duals._objective = lambda inst, y, d: 4
split = raises(lambda: duals.stable_from_dual(
    inst, outcome.solution.matching, solver.DualSolution(y=outcome.dual.y, d=d)))
duals._objective = real_objective
duals.utilities = lambda inst, sol: {p: q + 1 for p, q in real_utilities(inst, sol).items()}
read_back = raises(lambda: duals.dual_from_stable(inst, outcome.solution))
duals.utilities = real_utilities
ssp = raises(lambda: matching._ssp_flow(
    Instance(["a", "b", "c"], {p: 1 for p in "abc"}, [("a", "b", 1), ("b", "c", 5)]),
    {("a", "b"): 1, ("b", "c"): 5}, {"a": 0, "b": 0, "c": 1}))
matching._engine = lambda net, base, *start: real_engine(net, base, *start) | {("a", "c")}
print(split, read_back, ssp, main(["solve", sys.argv[1]]))
"""


def test_stable_path_checks_survive_python_O(tmp_path, heavy_edge_triangle):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(instance_to_json(heavy_edge_triangle)))
    src = Path(stablefixtures.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _STABLE_PATH_PROBE, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True", str(EXIT_INTERNAL)]
    assert proc.stderr.startswith("error: internal: forced and residual")
