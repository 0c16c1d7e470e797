"""The solve pipeline runs each engine once per fact.

* One unperturbed pass gives the half-b-matching optimum and the optimal
  dual: on the game itself when it is bipartite, on the double cover
  otherwise. A stable game is then matched on the dual's complementary-slack
  residual alone, and the perturbed cover pass runs only for a no-stable
  witness.
* The blossom engine is imported only when blossom runs, and networkx never;
  each CLI subcommand loads only the modules it runs.
* A differential test pins `solve` to the older composition (full-graph
  engine for the matching, perturbed cover pass for the half weight,
  perturbed plus unperturbed cover passes for the dual), kept here as an
  oracle.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import stablefixtures
from stablefixtures import generate, instance, matching
from stablefixtures.cli import main
from stablefixtures.duals import (
    bipartite_max_weight_b_matching_with_duals,
    has_stable_solution,
    stable_from_dual,
)
from stablefixtures.instance import Instance, instance_to_json
from stablefixtures.matching import (
    DualSolution,
    _perturbed,
    duplicated_instance,
    max_half_b_matching_weight,
    max_weight_b_matching,
)
from stablefixtures.randomgen import random_instance
from stablefixtures.rationals import scale_to_integers
from stablefixtures.solver import SolveOutcome, outcome_to_json, solve
from stablefixtures.stability import solution_to_json

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
    """A bipartite solve loads neither the core stages nor any blossom,
    verify-stable no engine, and core-check and value not the solver; none
    of them loads the brute-force oracles. No request loads `dataclasses`,
    the parser's `argparse` (with `gettext` and `locale`), or the
    library-only `duals` and `transfers`."""
    inst, sol, _ = example2
    files = {
        "bip": instance_to_json(inst),
        "sol": solution_to_json(inst, sol),
        "triangle": instance_to_json(heavy_edge_triangle),
        "x": {"allocation": {"a": "2", "b": "2", "c": "0"}},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    bip, sol_path, triangle, x = (str(tmp_path / f"{name}.json") for name in files)
    src = Path(stablefixtures.__file__).resolve().parents[1]
    for argv, code, absent in (
        (["solve", bip], 0, ["core", "cycles", "blossom", "oracles"]),
        (["verify-stable", bip, sol_path], 0, ["matching", "solver", "core", "cycles"]),
        (["core-check", triangle, x], 0, ["solver", "oracles"]),
        (["value", triangle, "--coalition", "a,b"], 0, ["solver", "oracles"]),
    ):
        got, loaded = _loaded_modules(src, *argv)
        assert got == code, argv
        assert "stablefixtures.instance" in loaded
        unwanted = {f"stablefixtures.{name}" for name in [*absent, "duals", "transfers"]}
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
    """Run fn(inst) and classify every SSP pass it makes."""
    real = matching._ssp_flow
    calls = []

    def spy(net, int_weights, coloring):
        calls.append((net, dict(int_weights)))
        return real(net, int_weights, coloring)

    monkeypatch.setattr(matching, "_ssp_flow", spy)
    result = fn(inst, **kwargs)
    cover_players = duplicated_instance(inst).instance.players
    kinds = []
    for net, int_weights in calls:
        where = "cover" if net.players == cover_players else "instance"
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
    real = matching.duplicated_instance
    monkeypatch.setattr(
        matching, "duplicated_instance", lambda net: covers.append(net) or real(net)
    )
    outcome, kinds = _spy_passes(monkeypatch, solve, inst)
    assert outcome.stable
    assert kinds == [("instance", "plain"), ("instance", "perturbed")]
    assert covers == []


def test_stable_general_solve_makes_one_cover_pass(monkeypatch, heavy_edge_triangle):
    """One plain cover pass, then one perturbed pass on the bipartite residual."""
    inst = heavy_edge_triangle
    assert not inst.is_bipartite()
    blossom = []
    real = matching._general_matching
    monkeypatch.setattr(
        matching, "_general_matching", lambda net, base: blossom.append(net) or real(net, base)
    )
    outcome, kinds = _spy_passes(monkeypatch, solve, inst)
    assert outcome.stable
    assert kinds == [("cover", "plain"), ("instance", "perturbed")]
    assert blossom == []


def test_no_stable_solve_adds_one_perturbed_cover_pass(monkeypatch, diamond):
    outcome, kinds = _spy_passes(monkeypatch, solve, diamond)
    assert not outcome.stable
    assert kinds == [("cover", "plain"), ("cover", "perturbed")]


def test_no_stable_solve_builds_the_cover_and_scales_once(monkeypatch, diamond):
    """The witness pass runs on the double cover and the integer weights
    that the LP pass built, and the whole-game engine on its scaled weights."""
    covers, scales = [], []
    real_cover, real_scale = matching.duplicated_instance, matching.scale_to_integers
    monkeypatch.setattr(matching, "duplicated_instance", lambda net: covers.append(net) or real_cover(net))
    monkeypatch.setattr(matching, "scale_to_integers", lambda values: scales.append(values) or real_scale(values))
    assert not solve(diamond).stable
    assert (len(covers), len(scales)) == (1, 1)


def test_has_stable_solution_makes_one_plain_cover_pass(monkeypatch, diamond):
    stable, kinds = _spy_passes(monkeypatch, has_stable_solution, diamond)
    assert not stable
    assert kinds == [("cover", "plain")]


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
    half, witness = max_half_b_matching_weight(inst)
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
