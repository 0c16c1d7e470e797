"""Benchmark of the stablefixtures CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

--trace 0 drives the CLI as a user does: one client in a closed loop runs
`python -m stablefixtures.cli ...` on this checkout's `src` as a fresh
process and starts the next request only after the previous one exits.
Set-up (input generation, input files, one warm-up request) runs three times
and reports its median. Every answer is checked after the timed loop.
Times are calibrated: each one is scaled by REFERENCE_S over the time of
fixed reference work measured around it (see calibrated()).

--trace 1 replays the first requests of the same pool in-process, once plain
and once with spans around the program's public functions, and reports the
per-layer breakdown per request.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Reports and spans go to perfbench/_work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from checkout import ROOT, SRC  # first: imports the program from this checkout

import stablefixtures.cli as cli
import tracing
import verify
import workloads
from launcher import reference_seconds

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
REQUEST_TIMEOUT_S = 60
TAIL_BEYOND = 10
# Time of launcher.reference_seconds() on the machine calibrated times refer to.
REFERENCE_S = 0.025

END_TO_END_UNITS = {
    "req_p50_s": "s",
    "req_tail_s": "s",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def calibrated(seconds: float, reference) -> float:
    """`seconds` as it would read on a machine where the reference work
    (launcher.reference_seconds) takes REFERENCE_S.

    A shared host changes speed by 20% and more over minutes, and the program
    slows with it. The reference work, timed just before and just after the
    measured work, slows alike, so the ratio keeps the work's cost and drops
    the drift: on a 2-core Xeon VM the quartile spread of 25-second medians
    of the same requests fell from 0.22 in wall time to 0.025 calibrated.
    """
    return seconds * REFERENCE_S / statistics.fmean(reference)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_inputs(pool) -> Path:
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    for req in pool:
        for name, data in req.files.items():
            path = directory / name
            if not path.exists():
                path.write_text(json.dumps(data), encoding="utf-8")
    return directory


class Launcher:
    """The helper process that starts CLI requests (see launcher.py)."""

    def __init__(self):
        WORK.mkdir(exist_ok=True)
        self.env = child_env()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=WORK,
        )

    def call(self, argv, directory: Path):
        """One request: (exit code or None on timeout, stdout, seconds, peak RSS
        in KiB, reference loop times before and after)."""
        out = directory / "stdout"
        request = {
            "argv": [sys.executable, "-m", "stablefixtures.cli", *argv],
            "env": self.env,
            "stdout": str(out),
            "stderr": str(directory / "stderr"),
            "timeout": REQUEST_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the request launcher exited")
        reply = json.loads(line)
        code = None if reply["timed_out"] else reply["code"]
        return code, out.read_text(encoding="utf-8"), reply["seconds"], reply["maxrss_kb"], reply["reference_s"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        self.proc.stdout.close()


def tail(samples):
    """The highest sample with at least TAIL_BEYOND samples above it, and its
    percentile; the maximum when there are too few samples."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# ---------------------------------------------------------------------------
# Descriptors and environment
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import networkx

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        sha = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    source = hashlib.sha256()
    for path in sorted((SRC / "stablefixtures").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "src_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def describe(pool, answers) -> dict:
    """Instance sizes over the pool and the outcome mix over the answers."""
    games = {id(r.game): r.game for r in pool}.values()
    n = m = sum_b = over = players = 0
    for game in games:
        degree = game.degree()
        n += len(game.players)
        m += len(game.weights)
        sum_b += sum(game.caps.values())
        over += sum(1 for p in game.players if game.caps[p] > degree[p])
        players += len(game.players)
    count = len(games)
    verdicts, codes = Counter(), Counter()
    for index, code, stdout in answers:
        codes[str(code)] += 1
        try:
            data = json.loads(stdout)
        except ValueError:
            verdicts[f"{pool[index].kind}:none"] += 1
            continue
        if "status" in data:
            verdicts[f"solve:{data['status']}"] += 1
        elif "verdict" in data:
            verdicts[f"core-check:{data['verdict']}"] += 1
        elif "stable" in data:
            verdicts[f"verify-stable:{'stable' if data['stable'] else 'blocked'}"] += 1
        else:
            verdicts[f"{pool[index].kind}:ok"] += 1
    total = sum(codes.values())
    return {
        "instances": count,
        "n": n / count,
        "m": m / count,
        "sum_b": sum_b / count,
        "b_above_degree_share": over / players,
        "verdict_share": {k: v / total for k, v in sorted(verdicts.items())},
        "exit_code_share": {k: v / total for k, v in sorted(codes.items())},
    }


def write_report(name: str, report: dict) -> Path:
    WORK.mkdir(exist_ok=True)
    path = WORK / name
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    with Launcher() as launcher:
        setups, wall_setups, directory = [], [], None
        for _ in range(SETUP_REPEATS):
            if directory is not None:
                shutil.rmtree(directory)
            before = reference_seconds()
            start = time.perf_counter()
            pool = workloads.build(workload, seed)
            directory = write_inputs(pool)
            launcher.call(pool[0].resolved_argv(directory), directory)
            wall_setups.append(time.perf_counter() - start)
            setups.append(calibrated(wall_setups[-1], (before, reference_seconds())))

        times, walls, references, rss, answers, digests = [], [], [], [], [], []
        start = time.perf_counter()
        deadline = start + seconds
        while not answers or time.perf_counter() < deadline:
            index = len(answers) % len(pool)
            code, stdout, elapsed, peak, reference = launcher.call(pool[index].resolved_argv(directory), directory)
            walls.append(elapsed)
            references.extend(reference)
            times.append(calibrated(elapsed, reference))
            rss.append(peak)
            answers.append((index, code, stdout))
            digests.append(verify.digest(stdout))
        loop_s = time.perf_counter() - start
    shutil.rmtree(directory)

    failed, reasons = verify.tally(pool, answers)
    tail_s, tail_pct = tail(times)
    metrics = {
        "req_p50_s": statistics.median(times),
        "req_tail_s": tail_s,
        "req_per_s": len(times) / sum(times),
        "peak_rss_mb": max(rss) / 1024,
        "setup_s": statistics.median(setups),
    }
    extra = {
        "fail_frac": failed / len(answers),
        "req_tail_pct": tail_pct,
        "samples": len(answers),
        "loop_s": loop_s,
        "setup_runs_s": setups,
        "wall_req_p50_s": statistics.median(walls),
        "wall_req_per_s": len(answers) / loop_s,
        "wall_setup_s": statistics.median(wall_setups),
        "reference_p50_s": statistics.median(references),
    }
    report = {
        "workload": workload,
        "trace": 0,
        "environment": environment(seed),
        "workload_descriptor": describe(pool, answers),
        "metrics": metrics,
        "extra": extra,
        "failures": reasons,
        "requests": [
            {"index": i, "kind": pool[i].kind, "exit": c, "seconds": t, "wall_s": w, "stdout_sha256": d}
            for (i, c, _), t, w, d in zip(answers, times, walls, digests)
        ],
    }
    path = write_report(f"report-{workload}-seed{seed}-trace0.json", report)
    print(f"{workload} seed {seed}: {len(answers)} requests in {loop_s:.2f} s, report {path.relative_to(ROOT)}")
    rows = [
        ("req_p50_s", metrics["req_p50_s"], "s", f"calibrated; wall {extra['wall_req_p50_s']:.6f} s"),
        ("req_tail_s", tail_s, "s", f"calibrated; p{tail_pct:.1f} of {len(answers)} samples, {TAIL_BEYOND} beyond"),
        ("req_per_s", metrics["req_per_s"], "1/s", f"calibrated; wall {extra['wall_req_per_s']:.6f} 1/s"),
        ("fail_frac", extra["fail_frac"], "ratio", f"{failed} of {len(answers)}"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
        ("setup_s", metrics["setup_s"], "s", f"calibrated, median of {SETUP_REPEATS}; wall {extra['wall_setup_s']:.6f} s"),
        ("reference_s", extra["reference_p50_s"], "s", f"median reference work; calibrated times assume {REFERENCE_S}"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<12} {value:12.6f} {unit:<6} {note}")
    print("  descriptor " + json.dumps(report["workload_descriptor"]))
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")
    return {"attempted": len(answers), "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def import_seconds(env: dict) -> float:
    """Median time of `import stablefixtures.cli` in a fresh interpreter."""
    probe = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        "import stablefixtures.cli\n"
        "elapsed = time.perf_counter() - start\n"
        "print(elapsed, stablefixtures.__file__)\n"
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=WORK, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S, check=True
        )
        elapsed, where = done.stdout.split(maxsplit=1)
        if Path(where.strip()).resolve().parent.parent != SRC.resolve():
            raise SystemExit(f"error: child imported {where.strip()}, not the checkout's src")
        samples.append(float(elapsed))
    return statistics.median(samples)


def call_inprocess(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    WORK.mkdir(exist_ok=True)
    import_s = import_seconds(child_env())
    pool = workloads.build(workload, seed)
    directory = write_inputs(pool)
    replay = [r.resolved_argv(directory) for r in pool[: workloads.TRACE_REQUESTS[workload]]]
    main = cli.main
    call_inprocess(main, replay[0])  # warm-up: lazy imports and first-call costs

    tracer = tracing.Tracer()
    answers, plain_s, traced_s, passes, mismatched = [], 0.0, 0.0, 0, 0
    start = time.perf_counter()
    # Whole passes only, so per-request counts do not depend on the run length.
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for index, argv in enumerate(replay):
            code, stdout, elapsed = call_inprocess(main, argv)
            plain_s += elapsed
            tracer.install()
            try:
                traced = call_inprocess(lambda a: tracer.run(len(answers), cli.main, a), argv)
            finally:
                tracer.uninstall()
            traced_s += traced[2]
            mismatched += (code, stdout) != traced[:2]
            answers.append((index, code, stdout))
            answers.append((index, traced[0], traced[1]))
        passes += 1
    shutil.rmtree(directory)

    failed, reasons = verify.tally(pool, answers)
    requests = len(answers) // 2
    request_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    layers = tracing.layer_metrics(tracer, requests, request_s)
    layers["cli.import_s"] = import_s
    layers["trace.overhead"] = traced_s / plain_s - 1
    metrics = {name: layers.get(name, 0) for name in tracing_metric_names()}
    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    tracer.dump(spans_path)
    report = {
        "workload": workload,
        "trace": 1,
        "environment": environment(seed),
        "workload_descriptor": describe(pool, answers),
        "traced_requests": requests,
        "passes": passes,
        "missing_functions": tracer.missing,
        "plain_inprocess_s": plain_s,
        "traced_inprocess_s": traced_s,
        "traced_differs_from_plain": mismatched,
        "metrics": layers,
        "failures": reasons,
        "requests": [{"index": i, "exit": c, "stdout_sha256": verify.digest(o)} for i, c, o in answers[::2]],
    }
    path = write_report(f"report-{workload}-seed{seed}-trace1.json", report)
    print(
        f"{workload} seed {seed}: traced {requests} in-process requests ({passes} passes), "
        f"report {path.relative_to(ROOT)}, spans {spans_path.relative_to(ROOT)}"
    )
    if tracer.missing:
        print("  missing functions (counted as zero calls): " + ", ".join(tracer.missing))
    for name in metrics:
        print(f"  {name:<62} {metrics[name]:14.6f}")
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")
    # An answer that tracing changed is wrong too.
    return {"attempted": len(answers), "failed": min(len(answers), failed + mismatched), "metrics": metrics}


def tracing_metric_names() -> list[str]:
    """Per-layer metric names in report order; BENCHMARK.json lists the same."""
    names = ["cli.import_s", "cli.parse_s", "cli.emit_s"]
    for layer in tracing.LAYERS:
        for owner, function in tracing.FUNCTIONS:
            if owner == layer:
                names += [f"{layer}.{function}.calls", f"{layer}.{function}.self_s"]
        if layer in tracing.BLOSSOM_LAYERS:
            names += [f"{layer}.blossom.{k}" for k in ("calls", "self_s", "nodes", "edges", "weight_bits")]
        names += [f"{layer}.self_s", f"{layer}.share"]
    return names + ["trace.overhead"]


def tracing_metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "overhead")):
        return "ratio"
    return "bits" if name.endswith("weight_bits") else "count"


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    runner = run_traced if args.trace else run_end_to_end
    results = {name: runner(name, args.seed, args.seconds) for name in names}

    if args.trace:
        units = {name: tracing_metric_unit(name) for name in tracing_metric_names()}
    else:
        units = END_TO_END_UNITS
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {
            f"{name}.{k}": {"value": v, "unit": units[k]}
            for name, result in results.items()
            for k, v in result["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
