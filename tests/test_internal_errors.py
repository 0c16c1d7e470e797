"""Certificate checks raise InternalError, also under `python -O`.

Once the half-b-matching optimum comes from a single unperturbed pass, the
dual certificate check is the only guard on it, so it must not be an
`assert`. pytest rewrites the asserts of test modules into explicit checks,
so this module also tests something when pytest itself runs under
`python -O` (as the CI does).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stablefixtures
from stablefixtures import generate, matching, solver
from stablefixtures.cli import EXIT_INTERNAL, main
from stablefixtures.errors import InternalError, StableFixturesError
from stablefixtures.instance import instance_to_json


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
        solver.has_stable_solution(inst)
    with pytest.raises(InternalError):
        solver.dual_from_duplicated(inst)
    with pytest.raises(InternalError):
        matching.bipartite_max_weight_b_matching_with_duals(inst)
    with pytest.raises(InternalError):
        matching.bipartite_optimum_with_duals(inst)


def test_half_below_integral_fails_solve(monkeypatch):
    real = solver.bipartite_optimum_with_duals

    def light(inst):
        half, cert = real(inst)
        return half - 1, cert

    monkeypatch.setattr(solver, "bipartite_optimum_with_duals", light)
    with pytest.raises(InternalError, match="below"):
        solver.solve(generate("example2").instance)


def test_witness_weight_mismatch_fails_solve(monkeypatch):
    real = solver.max_half_b_matching_weight

    def heavy(inst, _dup=None):
        value, witness = real(inst, _dup=_dup)
        return value + 1, witness

    monkeypatch.setattr(solver, "max_half_b_matching_weight", heavy)
    with pytest.raises(InternalError, match="witness"):
        solver.solve(generate("diamond").instance)


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
