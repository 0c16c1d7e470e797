"""The package surface and its records.

* `import stablefixtures` loads no submodule; each public name resolves on
  first use to the object its home module defines (PEP 562).
* Every other name resolves only from its home, except the twelve that
  perfbench looks up in `instance`, `matching` and `solver`, each to the
  object its home defines.
* The result records are immutable `NamedTuple`s with the fields, defaults
  and `repr` form they had as frozen dataclasses.
* `src/` has no `assert` statement, so every check survives `python -O`
  as a typed error.
"""

import ast
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stablefixtures
from stablefixtures import (
    core, cover, cycles, duals, families, instance, matching, reduction, solver, stability, witness
)

PUBLIC_NAMES = [
    "CoreVerdict", "CoreViolationError", "DualSolution", "Generated", "HalfBMatching",
    "Instance", "InternalError", "LPOptimum", "ReducedInstance", "Solution", "SolveOutcome",
    "StabilityVerdict", "StableFixturesError", "allocation_to_payoff", "are_equivalent",
    "bipartite_max_weight_b_matching_with_duals", "check_solution", "core",
    "core_membership_b2", "core_membership_bruteforce", "cycles", "dual_from_duplicated",
    "dual_from_stable", "duplicated_instance", "errors", "game_value", "generate",
    "induced", "instance", "is_allocation", "is_b_matching",
    "is_dual_feasible", "is_stable", "lift_stable", "lp_optimum", "make_solution", "matching",
    "max_half_b_matching_weight", "max_weight_b_matching", "max_weight_b_matching_bruteforce",
    "meet_join", "rationals", "reduce_instance", "reduce_matching", "reduce_solution",
    "reduction", "rematch", "solve", "solver", "srp_rematch", "stability", "stable_from_dual", "to_competitive_equilibrium",
    "total_payoff", "utilities", "validate", "verify_complementary_slackness", "weight",
]

SUBMODULES = ["core", "cycles", "errors", "instance", "matching", "rationals", "reduction", "solver", "stability"]
# Modules that define public names: the submodules, the double cover, which
# only a game that is not bipartite loads, the no-stable witness, the solution
# record and its check, the general engine next to its blossom gadget, the
# named-instance families, which only `gen` loads, the brute-force oracles,
# and the library-only `Fraction` dual path and paper constructs.
HOMES = [
    *SUBMODULES, "cover", "witness", "solution", "blossom", "families", "oracles", "duals", "transfers"
]

_SURFACE_PROBE = """
import json, sys, types
import stablefixtures as pkg

loaded = sorted(m for m in sys.modules if m.startswith("stablefixtures."))
wrong, homes = [], set()
for name in pkg.__all__:
    namespace = {}
    exec(f"from stablefixtures import {name}", namespace)
    obj = getattr(pkg, name)
    if isinstance(obj, types.ModuleType):
        home = sys.modules.get(f"stablefixtures.{name}")
    else:
        homes.add(obj.__module__)
        home = getattr(sys.modules[obj.__module__], name, None)
    if not (obj is home is namespace[name]):
        wrong.append(name)
try:
    pkg.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded_on_import": loaded,
    "all": list(pkg.__all__),
    "all_is_tuple": type(pkg.__all__) is tuple,
    "wrong": wrong,
    "homes": sorted(homes),
    "not_in_dir": sorted(set(pkg.__all__) - set(dir(pkg))),
    "unknown": unknown,
}))
"""


def test_package_surface_resolves_lazily():
    src = Path(stablefixtures.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SURFACE_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["loaded_on_import"] == []
    assert result["all"] == PUBLIC_NAMES
    assert result["all_is_tuple"]
    assert result["wrong"] == []
    assert set(result["homes"]) <= {f"stablefixtures.{m}" for m in HOMES}
    assert result["not_in_dir"] == []
    assert result["unknown"] == "module 'stablefixtures' has no attribute 'no_such_name'"


def test_oracles_resolve_from_matching_without_being_compiled_there():
    """The brute-force oracles live in `oracles`; `matching` still resolves
    the one that perfbench looks up there (PEP 562), and no other."""
    from stablefixtures import oracles

    assert matching.max_weight_b_matching_bruteforce is oracles.max_weight_b_matching_bruteforce
    assert "max_weight_b_matching_bruteforce" not in vars(matching)
    for name in ("max_half_b_matching_bruteforce", "no_such_oracle"):
        with pytest.raises(AttributeError, match=name):
            getattr(matching, name)


# Names that perfbench looks up where they used to live: (old module, new home) -> names.
MOVED = {
    ("matching", "duals"): ["bipartite_max_weight_b_matching_with_duals"],
    ("matching", "cover"): ["duplicated_instance"],
    ("matching", "witness"): ["half_matching_from_json", "is_half_b_matching", "max_half_b_matching_weight"],
    ("matching", "blossom"): ["max_weight_b_matching"],
    ("instance", "core"): ["allocation_from_json"],
    ("solver", "duals"): ["dual_from_duplicated", "dual_objective", "is_dual_feasible", "stable_from_dual"],
}


@pytest.mark.parametrize("old, home", MOVED, ids=[f"{old}->{home}" for old, home in MOVED])
def test_moved_names_resolve_from_their_old_module_without_being_compiled_there(old, home):
    """Library-only code left the modules that requests load; each name
    that perfbench reads from its old module still resolves there (PEP 562)
    to the object its new home defines, and the package points public names
    at the new home."""
    old_module = importlib.import_module(f"stablefixtures.{old}")
    new_module = importlib.import_module(f"stablefixtures.{home}")
    for name in MOVED[(old, home)]:
        assert getattr(old_module, name) is vars(new_module)[name], name
        assert getattr(vars(new_module)[name], "__module__", new_module.__name__) == new_module.__name__
        assert name not in vars(old_module), name
        if name in stablefixtures.__all__:
            assert getattr(stablefixtures, name) is vars(new_module)[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        old_module.no_such_name


def test_no_assert_statement_in_the_package():
    """`python -O` strips `assert`; every check must raise a typed error."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(stablefixtures.__file__).resolve().parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_reads(monkeypatch):
    """The (module, name) pairs of `stablefixtures` that perfbench's tracer
    lists (`tracing.FUNCTIONS`, `tracing.CLI_FUNCTIONS`) and its verifier
    reads as `matching`, `solver` and `stability` attributes."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    wanted = {(layer, name) for layer, name in tracing.FUNCTIONS}
    wanted |= {(layer, name) for layer, name, _ in tracing.CLI_FUNCTIONS if layer != "json"}
    verify = ast.parse((PERFBENCH / "verify.py").read_text(encoding="utf-8"))
    wanted |= {
        (node.value.id, node.attr)
        for node in ast.walk(verify)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("matching", "solver", "stability")
    }
    return wanted


def test_every_name_perfbench_reads_resolves(monkeypatch):
    """perfbench's tracer looks each name up in its listed module and its
    verifier reads `matching`, `solver` and `stability` attributes; a name
    deleted or moved from there must fail here, not only in the benchmark.
    Only the package, `instance`, `matching` and `solver` resolve names
    they do not define."""
    wanted = _perfbench_reads(monkeypatch)
    assert ("solver", "is_dual_feasible") in wanted
    missing = [
        f"{layer}.{name}"
        for layer, name in sorted(wanted)
        if getattr(importlib.import_module(f"stablefixtures.{layer}"), name, None) is None
    ]
    assert missing == []
    resolving = [
        module.name
        for module in pkgutil.iter_modules(stablefixtures.__path__)
        if "__getattr__" in vars(importlib.import_module(f"stablefixtures.{module.name}"))
    ]
    assert sorted(resolving) == ["instance", "matching", "solver"]


# Every name perfbench reads from `matching` or `solver`, and its home.
PERFBENCH_HOMES = {
    ("matching", "bipartite_max_weight_b_matching_with_duals"): "duals",
    ("matching", "duplicated_instance"): "cover",
    ("matching", "half_matching_from_json"): "witness",
    ("matching", "is_half_b_matching"): "witness",
    ("matching", "max_half_b_matching_weight"): "witness",
    ("matching", "max_weight_b_matching"): "blossom",
    ("matching", "max_weight_b_matching_bruteforce"): "oracles",
    ("matching", "weight"): "matching",
    ("solver", "DualSolution"): "matching",
    ("solver", "dual_from_duplicated"): "duals",
    ("solver", "dual_objective"): "duals",
    ("solver", "is_dual_feasible"): "duals",
    ("solver", "outcome_to_json"): "solver",
    ("solver", "solve"): "solver",
    ("solver", "stable_from_dual"): "duals",
}


def test_names_perfbench_reads_are_the_objects_their_homes_define(monkeypatch):
    """perfbench's tracer wraps a listed function wherever a loaded module
    binds that very object, and its verifier calls what it reads: each name
    it reads from `matching` or `solver` must be its home's own object, so
    that a later move cannot silently zero a per-layer metric or break the
    verifier."""
    wanted = {pair for pair in _perfbench_reads(monkeypatch) if pair[0] in ("matching", "solver")}
    assert wanted == set(PERFBENCH_HOMES)
    for (module, name), home in PERFBENCH_HOMES.items():
        obj = getattr(importlib.import_module(f"stablefixtures.{module}"), name)
        assert obj is vars(importlib.import_module(f"stablefixtures.{home}"))[name], (module, name)
        assert obj.__module__ == f"stablefixtures.{home}", (module, name)


# (record, its fields in order, its defaults)
RECORDS = [
    (instance.ValidationReport, ("violations",), {}),
    (families.Generated, ("instance", "allocation"), {"allocation": None}),
    (stability.Solution, ("matching", "payoffs"), {}),
    (stability.StabilityVerdict, ("stable", "blocking_pairs", "utilities"), {}),
    (matching.DualSolution, ("y", "d"), {}),
    (duals.DualFeasibility, ("feasible", "violated_edges", "negative_y", "negative_d"), {}),
    (witness.HalfBMatching, ("values",), {}),
    (cover.DuplicatedInstance, ("instance", "left", "right"), {}),
    (matching.LPOptimum, ("matching", "weight", "half", "dual"), {}),
    (
        duals.SlacknessReport,
        ("clean", "unsaturated_with_price", "unmatched_with_slack", "matched_not_tight"),
        {},
    ),
    (
        solver.SolveOutcome,
        ("stable", "matching_weight", "half_weight", "solution", "dual", "witness"),
        {"solution": None, "dual": None, "witness": None},
    ),
    (
        core.CoreVerdict,
        ("kind", "coalition", "coalition_total", "coalition_value", "deficit",
         "witness_matching", "grand_total", "grand_value"),
        dict.fromkeys(
            ("coalition", "coalition_total", "coalition_value", "deficit",
             "witness_matching", "grand_total", "grand_value")
        ),
    ),
    (cycles.SystemComponent, ("kind", "vertices", "edges", "cost"), {}),
    (reduction.ReducedInstance, ("instance", "copies", "inner", "outer", "origin"), {}),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_keeps_fields_defaults_repr_and_immutability(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert list(record._field_defaults) == [f for f in fields if f in defaults]
    value = record(*range(len(fields)))
    args = ", ".join(f"{f}={i}" for i, f in enumerate(fields))
    assert repr(value) == f"{record.__name__}({args})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
