"""Replay the golden CLI corpus through `cli.main` and the real entry point.

tests/golden/corpus.jsonl holds requests drawn from the perfbench pools and
from adversarial shapes, with the exit code, stdout digest and stderr each
gave when the corpus was written (tests/golden/make_corpus.py). Every
request must still answer byte for byte the same; an intended change
regenerates the corpus and is listed in CHANGES.md.

The in-process replay never reaches `cli`'s `__main__` block, whose exit
path freezes the garbage collector, so one entry per (pool, exit code) pair
and one usage error also run as `python -m stablefixtures.cli` in a fresh
process; in-process callers must find the collector unfrozen. The
installed console script must take the same exit path.
"""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stablefixtures

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_corpus import CORPUS, run_request  # noqa: E402

ENTRIES = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def _first_of_each_pool_and_exit():
    first = {}
    for entry in ENTRIES:
        first.setdefault((entry["name"].split(":")[0], entry["exit"]), entry)
    return list(first.values())


ENTRY_POINT = _first_of_each_pool_and_exit()
SRC = Path(stablefixtures.__file__).resolve().parents[1]


def test_corpus_covers_every_pool_and_the_adversarial_shapes():
    kinds = {entry["name"].split(":")[0] for entry in ENTRIES}
    assert kinds == {"solve-general", "solve-bipartite", "core-b2", "audit", "adversarial"}
    assert len(ENTRY_POINT) == 11 and {e["exit"] for e in ENTRY_POINT} == {0, 1, 2, 3}


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_golden_request_is_unchanged(entry):
    got = run_request(entry["argv"], entry["files"])
    assert got == {key: entry[key] for key in ("exit", "stdout_sha256", "stderr")}


def _emitted(emit, data) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(data)
    return out.getvalue()


def test_emit_writes_what_json_dumps_writes(monkeypatch):
    """`cli._emit` has its own indent-2 writer; on every output of the
    corpus, and on empty containers, a non-ASCII player name and bool, int
    and None values, it writes what `json.dumps(data, indent=2)` does."""
    from stablefixtures import cli

    emit, seen = cli._emit, []
    monkeypatch.setattr(cli, "_emit", seen.append)
    for entry in ENTRIES:
        run_request(entry["argv"], entry["files"])
    assert len(seen) == sum(entry["exit"] in (0, 3) for entry in ENTRIES)
    extra = [
        {}, [], (), "", 0, None, {"a": {}, "b": [], "c": [{}, [[]]]},
        {"players": ["Zoë", "山田", "a\"b\\c\n", "\U0001f600"], "capacity": {"Zoë": 2, "山田": 0}},
        {"stable": True, "blocking": False, "count": -12, "big": 10**40, "witness": None},
        [True, False, None, 1, [None, {"": ""}]],
    ]
    for data in seen + extra:
        assert _emitted(emit, data) == json.dumps(data, indent=2) + "\n", data


def _entry_point(argv, cwd):
    """Exit code, stdout bytes and stderr text of `python -m stablefixtures.cli argv`."""
    proc = subprocess.run(
        [sys.executable, "-m", "stablefixtures.cli", *argv],
        cwd=cwd,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()


@pytest.mark.parametrize("entry", ENTRY_POINT, ids=[entry["name"] for entry in ENTRY_POINT])
def test_entry_point_answers_like_the_corpus(tmp_path, entry):
    for name, data in entry["files"].items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    code, out, err = _entry_point(entry["argv"], tmp_path)
    assert (code, hashlib.sha256(out).hexdigest(), err) == (
        entry["exit"], entry["stdout_sha256"], entry["stderr"]
    )


def test_entry_point_usage_error_exits_2(tmp_path):
    """`parse_args` raises SystemExit inside the exit path's try block."""
    assert _entry_point(["solve"], tmp_path) == (
        2,
        b"",
        "usage: stablefixtures solve [-h] [--split-rule {half,seller_side}] [--sellers SELLERS] instance\n"
        "stablefixtures: error: the following arguments are required: instance\n",
    )


def test_in_process_main_never_freezes_the_collector():
    from stablefixtures.cli import main

    for entry in ENTRY_POINT:
        run_request(entry["argv"], entry["files"])
    with pytest.raises(SystemExit):
        main(["solve"])
    assert gc.get_freeze_count() == 0


_RUN_PROBE = """
import atexit, gc, sys
from stablefixtures.cli import run

atexit.register(lambda: print(gc.get_freeze_count() > 0))
sys.argv = ["stablefixtures", "solve"]
run()
"""


def test_console_script_exits_through_run():
    """pyproject's `stablefixtures` script is `cli.run`, the exit path of
    `python -m stablefixtures.cli`, which leaves the collector frozen."""
    from stablefixtures import cli

    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\nstablefixtures = "([\w.]+):(\w+)"$', pyproject, re.M)
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is cli.run
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout) == (2, "True\n")
