"""The solve pipeline runs each engine once per fact.

* One unperturbed pass gives the half-b-matching optimum and the optimal
  dual: on the game itself when it is bipartite, on the double cover
  otherwise. A stable game is then matched on the dual's complementary-slack
  residual alone. A no-stable game prints only the b-matching's weight, so
  its whole-game engine runs untied, and its witness is tie-broken on the
  cover's own complementary-slack residual, never on the whole cover.
* The blossom engine is imported only when blossom runs, and networkx never;
  each CLI subcommand loads only the modules it runs, and a rejected input
  none of the engines.
* The untied whole-game blossom starts warm from the LP optimum, and finds
  the cold run's weight; core-check's v(N) and its violation by N share one
  pass, and its path/cycle system runs only when the dual screen fails.
* A differential test pins `solve` to the older composition (full-graph
  engine for the matching, perturbed pass on the whole cover for the half
  weight and the witness, perturbed plus unperturbed cover passes for the
  dual), kept here as an oracle; hypothesis pins the residual witness to
  the whole-cover one, and the untied weight to `lp_optimum`'s, on
  no-stable games with several odd cycles.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stablefixtures
from stablefixtures import blossom, cycles, generate, instance, matching
from stablefixtures import cover as cover_mod
from stablefixtures.cli import main
from stablefixtures.blossom import max_weight_b_matching
from stablefixtures.core import core_membership_b2, game_value, game_value_with_witness
from stablefixtures.cover import duplicated_instance
from stablefixtures.duals import bipartite_max_weight_b_matching_with_duals, stable_from_dual
from stablefixtures.families import instance_to_json
from stablefixtures.instance import Instance
from stablefixtures.matching import (
    DualSolution,
    _lp_optimum,
    _perturbed,
    is_b_matching,
    lp_optimum,
    weight,
)
from stablefixtures.randomgen import random_instance
from stablefixtures.rationals import scale_to_integers
from stablefixtures.solver import SolveOutcome, outcome_to_json, solution_to_json, solve
from stablefixtures.witness import HalfBMatching, max_half_b_matching_weight

# ---------------------------------------------------------------------------
# The blossom engine stays unloaded until blossom runs; networkx never loads;
# a subcommand loads only what it runs
# ---------------------------------------------------------------------------

_BLOSSOM_PROBE = """
import contextlib, io, json, sys
from stablefixtures.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

bip, sol, stable_general, no_stable, allocation = sys.argv[1:6]
codes, networkx = [], []
code, out = run("solve", bip)
codes.append(code)
with open(sol, "w", encoding="utf-8") as fh:
    json.dump(json.loads(out)["solution"], fh)
codes.append(run("verify-stable", bip, sol)[0])
codes.append(run("solve", stable_general)[0])
networkx.append("networkx" in sys.modules)
before = "stablefixtures.blossom" in sys.modules
codes.append(run("solve", no_stable)[0])
after = "stablefixtures.blossom" in sys.modules
networkx.append("networkx" in sys.modules)
codes.append(run("core-check", stable_general, allocation)[0])
networkx.append("networkx" in sys.modules)
print(json.dumps({"codes": codes, "blossom": [before, after], "networkx": networkx}))
"""


def test_blossom_loaded_only_when_blossom_runs(tmp_path, heavy_edge_triangle):
    """A stable general game whose residual is bipartite never loads the
    blossom engine; the no-stable diamond runs the full-graph engine and
    does. networkx is loaded by no request, a core-check included."""
    paths = []
    for name, inst in (
        ("example2", generate("example2").instance),
        ("triangle", heavy_edge_triangle),
        ("diamond", generate("diamond").instance),
    ):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(instance_to_json(inst)))
    bip, stable_general, no_stable = map(str, paths)
    allocation = tmp_path / "x.json"
    allocation.write_text(json.dumps({"allocation": {"a": "2", "b": "2", "c": "0"}}))
    src = Path(stablefixtures.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _BLOSSOM_PROBE, bip, str(tmp_path / "sol.json"),
         stable_general, no_stable, str(allocation)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 3, 0], "blossom": [False, True], "networkx": [False] * 3}


_MODULES_PROBE = """
import json, runpy, sys
sys.argv = ["stablefixtures", *sys.argv[1:]]
try:
    runpy.run_module("stablefixtures.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps({"code": exc.code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def _loaded_modules(src, *argv):
    """Exit code and `sys.modules` of a fresh process that runs
    `python -m stablefixtures.cli *argv`."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    result = json.loads(proc.stderr.strip().splitlines()[-1])
    return result["code"], set(result["modules"])


def test_each_subcommand_loads_only_what_it_runs(tmp_path, example2, heavy_edge_triangle):
    """A solve whose instance is rejected (a float weight) loads no engine; a
    bipartite solve loads neither the core stages, nor the double cover
    (`cover`), nor the no-stable witness (`witness`), nor the general
    engine and its blossom (`blossom`). No solve loads `stability`, which
    checks a caller's solution: a stable one certifies its own answer in
    the integers of its pass with the solution check (`solution`), a
    general one (the triangle) on the cover, and `--split-rule seller_side`
    finds its seller side in `cycles` (`cycles.resolve_sides`). A no-stable
    solve loads the cover, the witness and the blossom, never the solution
    check, and the blossom's warm start (`warmstart`) only when its
    whole-game run starts warm: the pendant triangle's does, and the
    diamond's, whose complementary-slack residual is the whole game, is
    that residual's tie-broken cold run. value on example4's grand
    coalition, which has an LP gap (4 against 9/2) and a residual that is
    not the whole game, starts warm too. A core-check's cold blossom does
    not load its warm start, verify-stable loads the solution check but no
    engine, no cover and no witness, and core-check and value neither the
    solver, nor `stability`, nor the solution check, nor the witness. value
    reads the subgame's `matching.lp_optimum` and loads no `core`, and a
    core-check refused for a capacity above 2 loads `core` but no engine
    (`matching`). Only a core-check whose x/b is not a feasible dual, or a
    seller_side solve, loads `cycles`: the triangle's x = (2, 2, 0) is one,
    so its dual screen proves it in the core, and x = (0, 4, 0) underpays
    the edge a-c. Only gen and reduce load the named families (with the
    instance writer) and only oracle the brute-force oracles. No request
    loads `dataclasses`, the parser's `argparse` (with `gettext` and
    `locale`), or the library-only `duals` and `transfers`, nor
    `stablefixtures.cli` itself: it runs as `__main__`, and importing it
    would compile it a second time."""
    inst, sol, _ = example2
    files = {
        "bip": instance_to_json(inst),
        "sol": solution_to_json(inst, sol),
        "triangle": instance_to_json(heavy_edge_triangle),
        "x": {"allocation": {"a": "2", "b": "2", "c": "0"}},
        "x_violated": {"allocation": {"a": "0", "b": "4", "c": "0"}},
        "diamond": instance_to_json(generate("diamond").instance),
        "pendant": instance_to_json(_pendant_triangle()),
        "example4": instance_to_json(generate("example4").instance),
    }
    files["float"] = instance_to_json(heavy_edge_triangle)
    files["float"]["edges"][0]["w"] = 4.5
    files["b3"] = instance_to_json(heavy_edge_triangle)
    files["b3"]["capacity"]["a"] = 3
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    bip, sol_path, triangle, x, x_violated, diamond, pendant, example4, float_weight, b3 = (
        str(tmp_path / f"{name}.json") for name in files
    )
    src = Path(stablefixtures.__file__).resolve().parents[1]
    engines = [
        "solver", "matching", "cover", "witness", "solution", "stability", "core", "cycles", "blossom",
        "oracles",
    ]
    checks = ["solver", "oracles", "stability", "solution", "witness"]
    for argv, code, absent, present in (
        (["solve", float_weight], 1, engines, []),
        (["solve", bip], 0, ["core", "cycles", "cover", "witness", "blossom", "oracles", "stability"],
         ["solution"]),
        (["solve", bip, "--split-rule", "seller_side"], 0,
         ["core", "cover", "witness", "blossom", "oracles", "stability"], ["solution", "cycles"]),
        (["solve", triangle], 0, ["core", "cycles", "stability", "witness", "oracles"], ["cover", "solution"]),
        (["solve", diamond], 3, ["core", "cycles", "stability", "solution", "oracles", "warmstart"],
         ["cover", "witness", "blossom"]),
        (["solve", pendant], 3, ["core", "cycles", "stability", "solution", "oracles"],
         ["cover", "witness", "blossom", "warmstart"]),
        (["verify-stable", bip, sol_path], 0, ["matching", "cover", "witness", "solver", "core", "cycles"],
         ["stability", "solution"]),
        (["core-check", triangle, x], 0, [*checks, "cycles", "warmstart"], ["core", "matching"]),
        (["core-check", triangle, x_violated], 3, [*checks, "warmstart"], ["core", "cycles"]),
        (["core-check", b3, x], 2, [*checks, "matching", "cover", "cycles", "blossom"], ["core"]),
        (["value", triangle, "--coalition", "a,b"], 0, [*checks, "core", "cycles"], ["matching"]),
        (["value", example4, "--coalition", "s1,s2,s3,t1_1,t2_1,t3_1"], 0,
         [*checks, "core", "cycles"], ["cover", "blossom", "warmstart"]),
        (["gen", "--family", "example2"], 0, engines, ["families"]),
        (["reduce", bip], 0, engines, ["families"]),
        (["oracle", "half", bip], 0, ["solver", "cover", "witness", "stability", "core", "blossom"], ["oracles"]),
    ):
        got, loaded = _loaded_modules(src, *argv)
        assert got == code, argv
        assert "stablefixtures.instance" in loaded
        uses_cycles = argv[-1] == x_violated or "seller_side" in argv
        assert ("stablefixtures.cycles" in loaded) == uses_cycles, argv
        assert ("stablefixtures.families" in loaded) == (argv[0] in ("gen", "reduce")), argv
        assert ("stablefixtures.oracles" in loaded) == (argv[0] == "oracle"), argv
        assert {f"stablefixtures.{name}" for name in present} <= loaded, argv
        unwanted = {f"stablefixtures.{name}" for name in [*absent, "duals", "transfers", "cli"]}
        unwanted |= {"networkx", "dataclasses", "argparse", "gettext", "locale"}
        assert loaded.isdisjoint(unwanted), (argv, sorted(loaded & unwanted))


# ---------------------------------------------------------------------------
# Pass counts
# ---------------------------------------------------------------------------


def test_each_request_validates_its_instance_once(monkeypatch, capsys, tmp_path, diamond):
    """The CLI boundary validates the instance file; the double cover, the
    dual's residual, every subgame and the unit-capacity expansion are built
    from it unvalidated."""
    triangle = Instance(
        ["a", "b", "c"], {p: 2 for p in "abc"}, [("a", "b", 4), ("b", "c", 1), ("a", "c", 1)]
    )
    files = {
        "bip": instance_to_json(generate("example2").instance),
        "triangle": instance_to_json(triangle),
        "diamond": instance_to_json(diamond),
        "in_core": {"allocation": {"a": "2", "b": "2", "c": "2"}},
        "blocked": {"allocation": {"a": "1", "b": "1", "c": "4"}},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    path = {name: str(tmp_path / f"{name}.json") for name in files}
    calls = []
    real = instance.validate
    monkeypatch.setattr(instance, "validate", lambda *args: calls.append(args) or real(*args))
    for argv, code in (
        (["solve", path["bip"]], 0),
        (["solve", path["triangle"]], 0),
        (["solve", path["diamond"]], 3),
        (["core-check", path["triangle"], path["in_core"]], 0),
        (["core-check", path["triangle"], path["blocked"]], 3),
        (["reduce", path["triangle"]], 0),
    ):
        calls.clear()
        assert main(argv) == code, argv
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_each_instance_is_colored_once(monkeypatch, diamond):
    """A no-stable solve colours the game once, however often its passes
    ask, and each double cover it builds once (its bipartite guard and its
    pass share the BFS). Callers get copies, so the memo cannot be spoiled."""
    colored = []
    real = Instance._bfs_coloring
    monkeypatch.setattr(Instance, "_bfs_coloring", lambda net: colored.append(net) or real(net))
    assert not solve(diamond).stable
    assert colored.count(diamond) == 1
    assert len(colored) == len(set(map(id, colored)))
    cover = duplicated_instance(diamond).instance
    coloring = cover.two_coloring()
    coloring[cover.players[0]] = 7
    assert cover.two_coloring() == real(cover) != coloring


def _is_perturbed(net, int_weights):
    """Whether `int_weights` are `_perturbed` over a positive multiple of
    the scaled weights of `net`."""
    base = scale_to_integers(net.edge_weights())[0]
    plain = {e: w >> (net.m + 1) for e, w in int_weights.items()}
    k = max(plain.values(), default=1) // max(max(base.values(), default=1), 1) or 1
    return int_weights == _perturbed(net, {e: k * w for e, w in base.items()})


def _spy_passes(monkeypatch, fn, inst, **kwargs):
    """Run fn(inst) and classify every SSP pass it makes: on the whole
    double cover, on a part of it (its residual) or on another instance."""
    real = matching._ssp_flow
    calls = []

    def spy(net, int_weights, coloring):
        calls.append((net, dict(int_weights)))
        return real(net, int_weights, coloring)

    monkeypatch.setattr(matching, "_ssp_flow", spy)
    result = fn(inst, **kwargs)
    cover = duplicated_instance(inst).instance
    kinds = []
    for net, int_weights in calls:
        where = "instance"
        if net.players == cover.players:
            where = "cover" if net.m == cover.m else "cover residual"
        if int_weights == scale_to_integers(net.edge_weights())[0]:
            kinds.append((where, "plain"))
        else:
            assert _is_perturbed(net, int_weights)
            kinds.append((where, "perturbed"))
    return result, kinds


def test_stable_bipartite_solve_skips_the_cover(monkeypatch, example2):
    """One plain pass on the game itself, then one perturbed pass on the
    residual; the double cover is never built."""
    inst, _, _ = example2
    covers = []
    real = cover_mod.duplicated_instance
    monkeypatch.setattr(
        cover_mod, "duplicated_instance", lambda net: covers.append(net) or real(net)
    )
    outcome, kinds = _spy_passes(monkeypatch, solve, inst)
    assert outcome.stable
    assert kinds == [("instance", "plain"), ("instance", "perturbed")]
    assert covers == []


def test_stable_general_solve_makes_one_cover_pass(monkeypatch, heavy_edge_triangle):
    """One plain cover pass, then one perturbed pass on the bipartite residual."""
    inst = heavy_edge_triangle
    assert not inst.is_bipartite()
    gadgets = []
    real = blossom._general_matching
    monkeypatch.setattr(
        blossom, "_general_matching", lambda net, *args: gadgets.append(net) or real(net, *args)
    )
    outcome, kinds = _spy_passes(monkeypatch, solve, inst)
    assert outcome.stable
    assert kinds == [("cover", "plain"), ("instance", "perturbed")]
    assert gadgets == []


def _pendant_triangle():
    """No stable solution: a capacity-1 triangle at 10 and a pendant edge at
    1, which the cover's optimal dual leaves out of its residual, and the
    game's dual out of the game's."""
    return Instance(
        ["a", "b", "c", "u"], dict.fromkeys("abcu", 1),
        [("a", "b", 10), ("b", "c", 10), ("a", "c", 10), ("a", "u", 1)],
    )  # fmt: skip


def test_no_stable_solve_adds_one_perturbed_cover_pass(monkeypatch):
    """The witness pass is tie-broken on the cover's residual alone."""
    outcome, kinds = _spy_passes(monkeypatch, solve, _pendant_triangle())
    assert not outcome.stable
    assert kinds == [("cover", "plain"), ("cover residual", "perturbed")]


def test_no_stable_solve_builds_the_cover_and_scales_once(monkeypatch, diamond):
    """The witness pass runs on the double cover and the integer weights
    that the LP pass built, and the whole-game engine on its scaled weights."""
    covers, scales = [], []
    real_cover, real_scale = cover_mod.duplicated_instance, matching.scale_to_integers
    monkeypatch.setattr(cover_mod, "duplicated_instance", lambda net: covers.append(net) or real_cover(net))
    monkeypatch.setattr(matching, "scale_to_integers", lambda values: scales.append(values) or real_scale(values))
    assert not solve(diamond).stable
    assert (len(covers), len(scales)) == (1, 1)


def test_has_stable_solution_makes_one_plain_cover_pass(monkeypatch, diamond):
    opt, kinds = _spy_passes(monkeypatch, lp_optimum, diamond)
    assert opt.weight != opt.half
    assert kinds == [("cover", "plain")]


# ---------------------------------------------------------------------------
# The no-stable branch: no tie-break that no answer prints
# ---------------------------------------------------------------------------


def _whole_cover_witness(inst):
    """The witness as the older composition found it: the tie-broken
    optimum of the whole double cover, folded onto the game."""
    dup, cover_base = cover_mod._cover_pass(inst, *scale_to_integers(inst.edge_weights()))[3][:2]
    chosen = matching._engine(dup.instance, _perturbed(dup.instance, cover_base))
    key, left, right = dup.instance.edge_key, dup.left, dup.right
    return HalfBMatching({
        (i, j): F((key(left[i], right[j]) in chosen) + (key(left[j], right[i]) in chosen), 2)
        for (i, j) in inst.edges
    })  # fmt: skip


def _engine_runs(monkeypatch):
    """Record (engine, instance, tie-broken) for every engine run: SSP
    passes and edge-gadget matchings, tie-broken when the weights handed to
    the engine are `_perturbed` for that instance (`_is_perturbed`)."""
    runs = []
    real_ssp, real_general = matching._ssp_flow, blossom._general_matching

    def ssp(net, int_weights, coloring):
        runs.append(("ssp", net, _is_perturbed(net, int_weights)))
        return real_ssp(net, int_weights, coloring)

    def general(net, weights, *start):
        runs.append(("blossom", net, _is_perturbed(net, weights)))
        return real_general(net, weights, *start)

    monkeypatch.setattr(matching, "_ssp_flow", ssp)
    monkeypatch.setattr(blossom, "_general_matching", general)
    return runs


def test_weight_only_answers_tie_break_neither_the_game_nor_the_cover(monkeypatch):
    """`solve`'s no-stable branch and core-check's v(N) print only weights:
    the whole-game blossom runs on the plain weights, and the only
    tie-broken runs are on the complementary-slack residuals (the cover's
    for the witness) and on the violating coalition, whose witness is
    printed. `value` prints its matching, so it keeps the whole-game
    tie-break."""
    inst = _pendant_triangle()
    cover = duplicated_instance(inst).instance
    whole = {(inst.players, inst.m), (cover.players, cover.m)}
    runs = _engine_runs(monkeypatch)
    assert not solve(inst).stable
    assert game_value(inst, inst.players) == 11
    x = dict.fromkeys(inst.players, F(11, 4))
    assert core_membership_b2(inst, x).kind == "violation"
    tied = [(net.players, net.m) for _, net, tie_break in runs if tie_break]
    untied = [(net.players, net.m) for engine, net, tie_break in runs if engine == "blossom" and not tie_break]
    assert tied and whole.isdisjoint(tied)
    assert untied == [(inst.players, inst.m)] * 3  # solve, game_value and core-check's v(N)
    runs.clear()
    assert game_value_with_witness(inst, inst.players)[0] == 11
    assert ("blossom", inst.players, inst.m, True) in [(e, net.players, net.m, t) for e, net, t in runs]


def test_core_check_runs_the_path_cycle_system_only_past_the_dual_screen(monkeypatch, heavy_edge_triangle):
    """An allocation whose x/b is a feasible dual is certified with no
    path/cycle system; one that underpays an edge runs exactly one, on the
    values the screen already scaled, whether it is violated or, with a
    capacity-2 player paid unevenly, in the core after all."""
    calls = []
    real = cycles.min_path_cycle_system
    monkeypatch.setattr(cycles, "min_path_cycle_system", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    monkeypatch.setattr(cycles, "scale_to_integers", None)  # the stage must not scale again
    tri = heavy_edge_triangle
    assert core_membership_b2(tri, {"a": F(2), "b": F(2), "c": F(0)}).in_core
    assert calls == []
    verdict = core_membership_b2(tri, {"a": F(0), "b": F(4), "c": F(0)})
    assert (verdict.kind, verdict.coalition) == ("violation", ("a", "c"))
    assert len(calls) == 1
    # The star's centre c (b = 2) takes 10 of 12: y(c) + y(a) = 5 + 2 < 10, yet no coalition is short.
    star = Instance(["a", "b", "c"], {"a": 1, "b": 1, "c": 2}, [("a", "c", 10), ("b", "c", 2)])
    assert core_membership_b2(star, {"a": F(2), "b": F(0), "c": F(10)}).in_core
    assert len(calls) == 2


def test_core_check_violated_by_the_grand_coalition_makes_one_cover_pass(monkeypatch):
    """x(N) < v(N): the v(N) pass gives the violation's value and, with one
    more tie-broken whole-game run on the weights that pass scaled, its
    witness; the verdict is the one that re-solving N gave."""
    inst = _pendant_triangle()
    x = dict.fromkeys(inst.players, F(1))
    scales = []
    real_scale = matching.scale_to_integers
    monkeypatch.setattr(matching, "scale_to_integers", lambda values: scales.append(values) or real_scale(values))
    expected = lp_optimum(inst)
    assert len(scales) == 1
    covers = []
    real = cover_mod._cover_pass
    monkeypatch.setattr(cover_mod, "_cover_pass", lambda *args: covers.append(args) or real(*args))
    runs = _engine_runs(monkeypatch)
    verdict = core_membership_b2(inst, x)
    assert (verdict.kind, verdict.coalition) == ("violation", tuple(inst.players))
    assert (verdict.coalition_value, verdict.witness_matching) == (expected.weight, expected.matching)
    assert len(covers) == 1 and len(scales) == 2
    assert [(engine, net.m, tied) for engine, net, tied in runs if engine == "blossom"] == [
        ("blossom", 3, True), ("blossom", inst.m, False), ("blossom", inst.m, True)
    ]  # the residual triangle, then the whole game untied and tie-broken


def _blossom_runs(monkeypatch):
    """Record (gadget nodes, warm, stages) for every blossom run."""
    runs = []
    real = blossom._primal_dual

    def spy(n, edges, start=None):
        result = real(n, edges, start)
        runs.append((n, start is not None, result[3]))
        return result

    monkeypatch.setattr(blossom, "_primal_dual", spy)
    return runs


def test_core_check_violated_by_n_reuses_a_whole_game_residual(monkeypatch, diamond):
    """The diamond's complementary-slack residual is the whole game, so v(N)'s
    pass already took the tie-broken whole-game matching from it: a
    violation by N reuses it, and the cold blossom runs once, not twice."""
    x = dict.fromkeys(diamond.players, F(0))
    expected = lp_optimum(diamond)
    runs = _blossom_runs(monkeypatch)
    verdict = core_membership_b2(diamond, x)
    assert (verdict.kind, verdict.coalition) == ("violation", tuple(diamond.players))
    assert (verdict.coalition_value, verdict.witness_matching) == (expected.weight, expected.matching)
    assert [(n, warm) for n, warm, _ in runs] == [(13, False)]


def test_one_rule_decides_every_whole_game_run(monkeypatch, diamond):
    """(gadget nodes, warm) of every blossom run. With an LP gap and a
    residual that is not the whole game, the callers that read only the
    weight (`solve`, `game_value`, core-check's v(N)) match the residual
    cold and then the whole game warm; `lp_optimum` and `value`, which
    print the matching, and a violation by N, which prints v(N)'s, add one
    cold whole-game run. The diamond's residual is the whole game, so every
    caller makes the one cold run."""
    inst = _pendant_triangle()
    weight_only = [(3, False), (4, True)]
    printed = [*weight_only, (4, False)]
    calls = [
        (solve, weight_only),
        (lambda game: game_value(game, game.players), weight_only),
        (lp_optimum, printed),
        (lambda game: game_value_with_witness(game, game.players), printed),
        (lambda game: core_membership_b2(game, dict.fromkeys(game.players, F(0))), printed),
    ]
    for game in (inst, diamond):
        assert core_membership_b2(game, dict.fromkeys(game.players, F(0))).coalition == tuple(game.players)
    runs = _blossom_runs(monkeypatch)
    for call, expected in calls:
        for game, want in ((inst, expected), (diamond, [(13, False)])):
            runs.clear()
            call(game)
            assert [(n, warm) for n, warm, _ in runs] == want, (game.players, runs)


def test_untied_whole_game_blossom_starts_warm(monkeypatch):
    """The untied whole-game blossom starts from the LP optimum, which
    leaves one free slot at a positive dual: at most two stages, where the
    cold tie-broken run needs more."""
    inst = _pendant_triangle()
    runs = _blossom_runs(monkeypatch)
    assert not solve(inst).stable
    nodes, warm, stages = runs[-1]
    assert warm and stages <= 2, runs
    runs.clear()
    lp_optimum(inst)
    assert runs[-1][:2] == (nodes, False) and runs[-1][2] > stages, runs


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_warm_whole_game_matches_cold_on_no_stable_games(warm_and_cold_weights, data):
    inst = data.draw(no_stable_games())
    assert warm_and_cold_weights(inst) == (lp_optimum(inst).weight,) * 2


# Ids that collide with the double cover's primed names come first.
NO_STABLE_IDS = tuple(p + prime for p in "abcdef" for prime in ("", "'", "''"))
HEAVY = st.sampled_from((F(10), F(10), F(12), F(10**12)))
LIGHT = st.sampled_from((F(0), F(1), F(1), F(2), F(1, 2)))


@st.composite
def no_stable_games(draw) -> Instance:
    """Two or three disjoint odd cycles (triangles or a pentagon) of
    capacity-1 players, each on one heavy weight, often shared, so ties
    abound; light edges among all players, tied too; and up to three more
    players with capacity 0, 1, 2 or above their degree. The edges come in a
    drawn order, which the tie-break follows."""
    sizes = draw(st.lists(st.sampled_from((3, 3, 5)), min_size=2, max_size=3))
    extra = draw(st.integers(0, 3))
    names = draw(st.permutations(NO_STABLE_IDS))[: sum(sizes) + extra]
    capacity, edges, start = {}, {}, 0
    for size in sizes:
        ring, heavy = names[start:start + size], draw(HEAVY)
        start += size
        capacity.update(dict.fromkeys(ring, 1))
        edges.update({(ring[k], ring[(k + 1) % size]): heavy for k in range(size)})
    pairs = [e for e in combinations(names, 2) if e not in edges and e[::-1] not in edges]
    for e in draw(st.permutations(pairs))[: draw(st.integers(0, 8))]:
        edges[e] = draw(LIGHT)
    degree = {p: sum(p in e for e in edges) for p in names}
    for p in names[start:]:
        capacity[p] = draw(st.sampled_from((0, 1, 2, degree[p] + 1)))
    order = draw(st.permutations(list(edges)))
    players = draw(st.permutations(names))
    return Instance(players, capacity, [(u, v, edges[(u, v)]) for (u, v) in order])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(no_stable_games())
def test_residual_witness_and_untied_weight_match_the_whole_game(inst):
    """The witness tie-broken on the cover's residual is the one tie-broken
    on the whole cover, and the untied whole-game engine finds
    `lp_optimum`'s weight, on a b-matching."""
    opt = lp_optimum(inst)
    assume(opt.weight != opt.half)
    outcome = solve(inst)
    witness = _whole_cover_witness(inst)
    assert outcome.witness == witness
    assert (outcome.matching_weight, outcome.half_weight) == (opt.weight, opt.half)
    assert max_half_b_matching_weight(inst) == (opt.half, witness)
    untied = _lp_optimum(inst)[0]
    assert (untied.weight, untied.half, untied.dual) == (opt.weight, opt.half, opt.dual)
    assert is_b_matching(inst, untied.matching) and weight(inst, untied.matching) == opt.weight
    assert game_value(inst, inst.players) == opt.weight


@st.composite
def gapped_games(draw) -> Instance:
    """General games drawn from `no_stable_games`, or seeded from the
    adversarial generators below: zero capacities, capacities above degree,
    tied weights and ids that collide with the cover's names."""
    kind = draw(st.sampled_from(("odd cycles", "adversarial", "tie-heavy")))
    if kind == "odd cycles":
        return draw(no_stable_games())
    make = _adversarial_instance if kind == "adversarial" else _tie_heavy_instance
    return make(random.Random(draw(st.integers(0, 2**32))), False)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(gapped_games())
def test_perturbed_weights_alone_make_a_run_tie_broken(inst):
    """A run is tie-broken iff its weights are `_perturbed`; a start changes
    only how fast it gets there. On a game with an LP gap, the blossom on
    the perturbed weights, warm from the pass's integer dual y (on the scale
    of twice the weights) raised to 2^(m+1) y + 2^m at every player with the
    forced edges matched, returns the cold run's matching, which is
    `lp_optimum`'s."""
    opt, (y, d, _, w), _, _ = _lp_optimum(inst)
    assume(opt.weight != opt.half)
    base = scale_to_integers(inst.edge_weights())[0]
    assert w == {e: 2 * q for e, q in base.items()}
    m = inst.m
    start = {p: (q << (m + 1)) + (1 << m) for p, q in y.items()}
    forced = frozenset(e for e in inst.edges if d[e] > 0)
    perturbed = _perturbed(inst, base)
    cold = blossom._general_matching(inst, perturbed)
    assert blossom._general_matching(inst, perturbed, (start, forced)) == cold
    assert cold == lp_optimum(inst).matching


# ---------------------------------------------------------------------------
# Differential test against the older composition
# ---------------------------------------------------------------------------


def _old_dual_from_duplicated(inst):
    dup = duplicated_instance(inst)
    _, cover = bipartite_max_weight_b_matching_with_duals(dup.instance)
    y = {i: cover.y[dup.left[i]] + cover.y[dup.right[i]] for i in inst.players}
    d = {}
    for (i, j) in inst.edges:
        d[(i, j)] = sum(
            (
                cover.d[dup.instance.edge_key(a, b)]
                for (a, b) in ((dup.left[i], dup.right[j]), (dup.left[j], dup.right[i]))
            ),
            F(0),
        )
    return DualSolution(y=y, d=d)


def _old_solve(inst, split_rule="half", sellers=None):
    matching_, integral = max_weight_b_matching(inst)
    witness = _whole_cover_witness(inst)
    half = witness.weight(inst)
    if integral != half:
        return SolveOutcome(
            stable=False, matching_weight=integral, half_weight=half, witness=witness
        )
    dual = _old_dual_from_duplicated(inst)
    sol = stable_from_dual(inst, matching_, dual, split_rule=split_rule, sellers=sellers)
    return SolveOutcome(
        stable=True, matching_weight=integral, half_weight=half, solution=sol, dual=dual
    )


def _adversarial_instance(rng, bipartite):
    """Zero capacities, capacities above degree, non-integer weights and,
    on general graphs, sometimes a heavy capacity-1 triangle."""
    base = random_instance(
        rng, n_range=(2, 7), max_extra_edges=5, b_range=(0, 3),
        bipartite=bipartite, allow_zero_capacity=True,
    )
    players = list(base.players)
    capacity = {p: base.b(p) for p in players}
    edges = [
        (u, v, F(rng.randint(0, 24), rng.choice((1, 1, 2, 3, 4, 7))))
        for (u, v) in base.edges
    ]
    for p in players:
        if rng.random() < 0.15:
            capacity[p] = len(base.neighbors(p)) + rng.randint(1, 2)
    if not bipartite and rng.random() < 0.4:
        tri = ["t1", "t2", "t3"]
        heavy = F(rng.randint(30, 60), rng.choice((1, 2, 3)))
        players += tri
        capacity.update({t: 1 for t in tri})
        edges += [("t1", "t2", heavy), ("t2", "t3", heavy), ("t1", "t3", heavy)]
        if players[0] not in tri:
            edges.append((players[0], "t1", F(rng.randint(0, 5))))
    return Instance(players, capacity, edges)


TIE_HEAVY_IDS = ["a", "a'", "a^1", "a''", "b", "b''", "b'", "a^1'"]


def _tie_heavy_instance(rng, bipartite):
    """Weights in {0, 1, 2}, so most games have many optimal b-matchings;
    zero and over-degree capacities; ids that collide with the double
    cover's primed names and with gadget names."""
    base = random_instance(
        rng, n_range=(2, 8), max_extra_edges=8, b_range=(0, 2), max_weight=2,
        bipartite=bipartite, allow_zero_capacity=True,
    )
    names = dict(zip(base.players, rng.sample(TIE_HEAVY_IDS, len(TIE_HEAVY_IDS))))
    capacity = {}
    for p in base.players:
        capacity[names[p]] = rng.choice(
            (0, base.b(p), base.b(p), len(base.neighbors(p)) + rng.randint(1, 2))
        )
    edges = [(names[u], names[v], base.weight(u, v)) for (u, v) in base.edges]
    return Instance([names[p] for p in base.players], capacity, edges)


def test_solve_matches_old_composition():
    rng = random.Random(20240)
    counts = {"stable": 0, "no_stable": 0, "bipartite": 0, "general": 0}
    for k in range(520):
        bipartite = k % 3 == 0
        inst = _adversarial_instance(rng, bipartite)
        new = outcome_to_json(inst, solve(inst))
        assert new == outcome_to_json(inst, _old_solve(inst)), instance_to_json(inst)
        counts[new["status"]] += 1
        counts["bipartite" if inst.is_bipartite() else "general"] += 1
        if bipartite and inst.m:
            coloring = inst.two_coloring()
            sellers = [p for p in inst.players if coloring[p] == 0]
            new = outcome_to_json(inst, solve(inst, split_rule="seller_side", sellers=sellers))
            old = _old_solve(inst, split_rule="seller_side", sellers=sellers)
            assert new == outcome_to_json(inst, old), instance_to_json(inst)
    assert counts["no_stable"] >= 50
    assert counts["stable"] >= 300
    assert counts["bipartite"] >= 150 and counts["general"] >= 150

    # Tie-heavy block: the residual's tie-break must pick the whole game's.
    ties = {"stable": 0, "no_stable": 0, "general": 0, "tied": 0}
    for k in range(400):
        inst = _tie_heavy_instance(rng, bipartite=k % 4 == 0)
        new = outcome_to_json(inst, solve(inst))
        assert new == outcome_to_json(inst, _old_solve(inst)), instance_to_json(inst)
        ties[new["status"]] += 1
        ties["general"] += not inst.is_bipartite()
        ties["tied"] += len(set(inst.edge_weights().values())) < inst.m
        if k % 4 == 0 and inst.m:
            coloring = inst.two_coloring()
            sellers = [p for p in inst.players if coloring[p] == 0]
            new = outcome_to_json(inst, solve(inst, split_rule="seller_side", sellers=sellers))
            old = _old_solve(inst, split_rule="seller_side", sellers=sellers)
            assert new == outcome_to_json(inst, old), instance_to_json(inst)
    assert ties["stable"] >= 300 and ties["general"] >= 150 and ties["tied"] >= 250
