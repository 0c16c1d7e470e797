"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from workloads import Game, Request  # noqa: E402


def _triangle_request() -> Request:
    """solve on three capacity-1 players in a triangle, which has no stable solution."""
    game = Game(
        ["a", "b", "c"],
        {"a": 1, "b": 1, "c": 1},
        {("a", "b"): Fraction(1), ("a", "c"): Fraction(1), ("b", "c"): Fraction(3, 2)},
    )
    return Request("solve", ["solve", "g.json"], {"g.json": game.to_json()}, game, {"stable": False})


def _answer(req, tmp_path):
    for name, data in req.files.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, stdout, _ = run.call_inprocess(run.cli.main, req.resolved_argv(tmp_path))
    return code, stdout


def test_corrupted_answer_is_counted_as_failure(tmp_path):
    req = _triangle_request()
    code, stdout = _answer(req, tmp_path)
    assert verify.tally([req], [(0, code, stdout)]) == (0, [])

    data = json.loads(stdout)
    data["half_b_matching_weight"] = "4"
    corrupted = json.dumps(data)
    failed, reasons = verify.tally([req], [(0, code, stdout), (0, code, corrupted), (0, code, "{")])
    assert failed == 2
    assert len(reasons) == 2


def test_wrong_exit_code_is_a_failure(tmp_path):
    req = _triangle_request()
    code, stdout = _answer(req, tmp_path)
    assert verify.check(req, 0, stdout) is not None
    assert verify.check(req, None, stdout) == "timed out"


def test_every_workload_answers_correctly_in_process(tmp_path):
    for name in workloads.WORKLOADS:
        pool = workloads.build(name, 11)[:4]
        for req in pool:
            code, stdout = _answer(req, tmp_path)
            assert verify.check(req, code, stdout) is None, (name, req.argv)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        first = [r.files for r in workloads.build(name, 5)]
        again = [r.files for r in workloads.build(name, 5)]
        other = [r.files for r in workloads.build(name, 6)]
        assert first == again
        assert first != other


def test_tracer_counts_spans_and_restores_the_program(tmp_path):
    req = _triangle_request()
    for name, data in req.files.items():
        (tmp_path / name).write_text(json.dumps(data))
    original = run.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, stdout, _ = run.call_inprocess(
            lambda argv: tracer.run(0, run.cli.main, argv), req.resolved_argv(tmp_path)
        )
    finally:
        tracer.uninstall()
    assert run.cli.main is original
    assert code == 3 and verify.check(req, code, stdout) is None
    root = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    metrics = tracing.layer_metrics(tracer, 1, root)
    assert metrics["solver.solve.calls"] == 1
    assert metrics["matching.blossom.calls"] == 1
    assert metrics["cycles.blossom.calls"] == 0
    assert abs(sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) - 1) < 1e-9


def test_missing_function_counts_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (("solver", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["solver.no_such_function"]
    assert tracing.layer_metrics(tracer, 1, 1.0)["solver.no_such_function.calls"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in bench["per_layer"]] == run.tracing_metric_names()
    assert all(m["unit"] == run.tracing_metric_unit(m["name"]) for m in bench["per_layer"])


def test_tail_has_ten_samples_beyond():
    samples = [float(k) for k in range(40)]
    value, percentile = run.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == 75.0


def test_launcher_reports_exit_rss_and_timeout(tmp_path):
    import subprocess

    launcher = subprocess.Popen(
        [sys.executable, "-I", "-S", str(run.HERE / "launcher.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        replies = []
        for code, timeout in (("import sys; print('hi'); sys.exit(3)", 30), ("import time; time.sleep(30)", 1)):
            request = {
                "argv": [sys.executable, "-c", code],
                "env": {},
                "stdout": str(tmp_path / "out"),
                "stderr": str(tmp_path / "err"),
                "timeout": timeout,
            }
            launcher.stdin.write(json.dumps(request) + "\n")
            launcher.stdin.flush()
            replies.append(json.loads(launcher.stdout.readline()))
    finally:
        launcher.stdin.close()
        launcher.wait(timeout=30)
        launcher.stdout.close()
    done, killed = replies
    assert done["code"] == 3 and not done["timed_out"] and done["maxrss_kb"] > 0
    assert killed["timed_out"] and killed["seconds"] < 10
    assert all(len(r["reference_s"]) == 2 and min(r["reference_s"]) > 0 for r in replies)


def test_calibrated_time_scales_by_the_reference_loop():
    assert run.calibrated(0.6, (run.REFERENCE_S, run.REFERENCE_S)) == 0.6
    # A machine twice as slow doubles both the request and the loop.
    assert abs(run.calibrated(1.2, (1.5 * run.REFERENCE_S, 2.5 * run.REFERENCE_S)) - 0.6) < 1e-12
