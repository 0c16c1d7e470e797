"""Write the golden CLI corpus replayed by tests/test_golden.py.

    PYTHONPATH=src python tests/golden/make_corpus.py
    PYTHONPATH=src python tests/golden/make_corpus.py --digest 1 2 101

Each line of corpus.jsonl is one `stablefixtures` CLI request: its argv,
the JSON files it reads (names relative to the directory it runs in), its
exit code, the sha256 of its stdout and its stderr. The requests are the
first REQUESTS_PER_POOL of every perfbench pool at SEEDS (read from
perfbench/workloads.py, which is not changed) and a set of adversarial
shapes: zero and over-degree capacities, weights 0, 10^12 and "1e400", and
ids that collide with generated names.

Run it on the commit whose outputs are the reference; an intended change of
output regenerates the corpus and is listed in CHANGES.md.

With `--digest SEED...` it writes nothing and prints one line per request
of every pool at those seeds (name, exit code, sha256 of stdout and of
stderr); the output of two commits compares with `diff`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.jsonl"
SEEDS = (1, 101)
REQUESTS_PER_POOL = 4


def _edge(u, v, w):
    return {"u": u, "v": v, "w": w}


def _instance(players, capacity, edges):
    return {"players": players, "capacity": capacity, "edges": edges}


# Players with capacity 0 and above their degree, on a general and on a
# bipartite graph.
CAPACITIES_GENERAL = _instance(
    ["a", "b", "c", "d", "e", "f"],
    {"a": 1, "b": 0, "c": 5, "d": 2, "e": 1, "f": 0},
    [
        _edge("a", "b", "9"), _edge("a", "c", "4"), _edge("b", "c", "7"),
        _edge("c", "d", "3/2"), _edge("d", "e", "5"), _edge("c", "e", "2"),
        _edge("e", "f", "8"), _edge("a", "d", "1"),
    ],
)  # fmt: skip
CAPACITIES_BIPARTITE = _instance(
    ["u1", "u2", "u3", "v1", "v2", "v3"],
    {"u1": 4, "u2": 0, "u3": 1, "v1": 2, "v2": 0, "v3": 3},
    [
        _edge("u1", "v1", "5"), _edge("u1", "v2", "6"), _edge("u1", "v3", "2"),
        _edge("u2", "v1", "7"), _edge("u2", "v3", "1"), _edge("u3", "v1", "4"),
        _edge("u3", "v3", "3"),
    ],
)  # fmt: skip
# Zero, 10^12 and 10^400 weights; the heavy triangle has no stable solution.
WEIGHTS_NO_STABLE = _instance(
    ["a", "b", "c", "d"],
    {"a": 1, "b": 1, "c": 1, "d": 2},
    [
        _edge("a", "b", "1e400"), _edge("b", "c", "1e400"), _edge("a", "c", "1e400"),
        _edge("c", "d", "0"), _edge("a", "d", "1000000000000"),
    ],
)  # fmt: skip
WEIGHTS_STABLE = _instance(
    ["a", "b", "c", "d"],
    {"a": 2, "b": 1, "c": 1, "d": 2},
    [
        _edge("a", "b", "0"), _edge("b", "c", "1000000000000"), _edge("c", "d", "1e400"),
        _edge("a", "d", "1/3"), _edge("b", "d", "0"),
    ],
)  # fmt: skip
# Ids that collide with the names of generated players and gadget parts.
IDS = ["a", "a'", "a''", "a^1", "a~b", "a@b", "b"]
IDS_STABLE = _instance(
    IDS,
    {"a": 2, "a'": 1, "a''": 1, "a^1": 2, "a~b": 1, "a@b": 2, "b": 1},
    [
        _edge("a", "a'", "3"), _edge("a", "a''", "5/2"), _edge("a'", "a^1", "4"),
        _edge("a^1", "a~b", "2"), _edge("a~b", "a@b", "6"), _edge("a@b", "b", "1"),
        _edge("a", "a@b", "7/3"), _edge("a''", "b", "2"),
    ],
)  # fmt: skip
IDS_NO_STABLE = _instance(
    IDS,
    {"a": 1, "a'": 1, "a''": 1, "a^1": 2, "a~b": 0, "a@b": 2, "b": 3},
    [
        _edge("a", "a'", "10"), _edge("a'", "a''", "10"), _edge("a", "a''", "10"),
        _edge("a^1", "a~b", "4"), _edge("a^1", "a@b", "3"), _edge("a@b", "b", "2"),
        _edge("a''", "b", "1"),
    ],
)  # fmt: skip


TRIANGLE = _instance(
    ["a", "b", "c"],
    {"a": 1, "b": 1, "c": 1},
    [_edge("a", "b", "1"), _edge("a", "c", "1"), _edge("b", "c", "1")],
)

SQUARE = _instance(
    ["a", "b", "c", "d"],
    {"a": 1, "b": 1, "c": 1, "d": 1},
    [_edge("a", "b", "1"), _edge("a", "c", "1"), _edge("b", "d", "1"), _edge("c", "d", "1")],
)


# Games with an LP gap whose residual is not the whole game, so the
# tie-broken matching that `value` and a violation by the grand coalition
# print is found again after the whole-game run (here it differs from that
# run's): a triangle with a light pendant at each corner, and a 5-cycle with
# a capacity-2 hub that a coalition without `q` leaves gapped.
TRIANGLE_PENDANTS = _instance(
    ["a", "b", "c", "d", "e", "f"],
    dict.fromkeys("abcdef", 1),
    [
        _edge("a", "b", "2"), _edge("a", "c", "2"), _edge("b", "c", "2"),
        _edge("a", "d", "1/2"), _edge("b", "e", "1/2"), _edge("c", "f", "1/2"),
    ],
)  # fmt: skip
HUB_PENTAGON = _instance(
    ["h", "p1", "p2", "p3", "p4", "p5", "q"],
    {"h": 2, "p1": 1, "p2": 1, "p3": 1, "p4": 1, "p5": 1, "q": 1},
    [
        _edge("p1", "p2", "3"), _edge("p2", "p3", "3"), _edge("p3", "p4", "3"),
        _edge("p4", "p5", "3"), _edge("p1", "p5", "3"), _edge("h", "p1", "1"),
        _edge("h", "p3", "1"), _edge("h", "q", "4"), _edge("q", "p2", "1"),
    ],
)  # fmt: skip
# The `diamond` family: gapped, and its residual is the whole game.
DIAMOND = _instance(
    ["s1", "s2", "s3", "u"],
    {"s1": 2, "s2": 2, "s3": 2, "u": 1},
    [
        _edge("s1", "s2", "1"), _edge("s1", "s3", "1"), _edge("s2", "s3", "1"),
        _edge("s2", "u", "1"), _edge("s3", "u", "1"),
    ],
)  # fmt: skip


def _allocation(x):
    return {"allocation": x}


ADVERSARIAL = (
    (["solve", "g.json"], {"g.json": CAPACITIES_GENERAL}),
    (["solve", "g.json"], {"g.json": CAPACITIES_BIPARTITE}),
    (["solve", "g.json", "--split-rule", "seller_side", "--sellers", "u1,u2,u3"],
     {"g.json": CAPACITIES_BIPARTITE}),
    (["value", "g.json", "--coalition", "a,b,c,d"], {"g.json": CAPACITIES_GENERAL}),
    (["solve", "g.json"], {"g.json": WEIGHTS_NO_STABLE}),
    (["solve", "g.json"], {"g.json": WEIGHTS_STABLE}),
    (["value", "g.json", "--coalition", "a,b,c"], {"g.json": WEIGHTS_NO_STABLE}),
    (["core-check", "g.json", "x.json"],
     {"g.json": WEIGHTS_STABLE,
      "x.json": _allocation({"a": "0", "b": "1000000000000", "c": "1e400", "d": "1/3"})}),
    (["solve", "g.json"], {"g.json": IDS_STABLE}),
    (["solve", "g.json"], {"g.json": IDS_NO_STABLE}),
    (["value", "g.json", "--coalition", "a,a',a'',b"], {"g.json": IDS_NO_STABLE}),
    (["core-check", "g.json", "x.json"],
     {"g.json": IDS_STABLE,
      "x.json": _allocation({"a": "17/24", "a'": "29/8", "a''": "9/4", "a^1": "3/8",
                             "a~b": "47/12", "a@b": "95/24", "b": "0"})}),
    (["core-check", "g.json", "x.json"],
     {"g.json": IDS_STABLE, "x.json": _allocation(dict.fromkeys(IDS, "3"))}),
    (["core-check", "g.json", "x.json"],
     {"g.json": CAPACITIES_BIPARTITE,
      "x.json": _allocation({"u1": "6", "u2": "1", "u3": "2", "v1": "3", "v2": "0", "v3": "1"})}),
    (["solve", "g.json"],
     {"g.json": _instance(["a", "b"], {"a": 1, "b": 1}, [_edge("a", "b", 1.5)])}),
    (["solve", "g.json"],
     {"g.json": _instance(["a", "b"], {"a": 1, "b": 1}, [_edge("a", "b", "1"), _edge("a", "a", "1")])}),
    # Rejections at the boundary: malformed instance, allocation and
    # solution files, a file that does not exist, a matching over capacity
    # and the command line's own edge cases.
    (["solve", "g.json"], {"g.json": []}),
    (["solve", "g.json"], {"g.json": {"players": ["a", "b"], "edges": [_edge("a", "b", "1")]}}),
    (["solve", "g.json"], {"g.json": _instance(["a", "b"], {"a": 1, "b": 1}, [{"u": "a"}])}),
    (["solve", "missing.json"], {}),
    (["core-check", "g.json", "x.json"], {"g.json": TRIANGLE, "x.json": _allocation({"a": "1"})}),
    (["core-check", "g.json", "x.json"], {"g.json": TRIANGLE, "x.json": _allocation(["1", "0", "0"])}),
    (["core-check", "g.json", "x.json"], {"g.json": TRIANGLE, "x.json": []}),
    (["verify-stable", "g.json", "s.json"],
     {"g.json": TRIANGLE, "s.json": {"matching": [{"u": "a", "v": "b"}, {"u": "a", "v": "c"}]}}),
    (["verify-stable", "g.json", "s.json"], {"g.json": TRIANGLE, "s.json": []}),
    (["solve", "g.json", "--split-rule"], {"g.json": TRIANGLE}),
    (["solve", "--", "g.json"], {"g.json": TRIANGLE}),
    # Every player of a unit-capacity 4-cycle over its degree: the faults
    # come in player order, whatever the hash seed.
    (["verify-stable", "g.json", "s.json"],
     {"g.json": SQUARE,
      "s.json": {"matching": [{"u": "a", "v": "b"}, {"u": "a", "v": "c"},
                              {"u": "b", "v": "d"}, {"u": "c", "v": "d"}]}}),
    # The tie-broken matching after a whole-game run: a violation by the
    # grand coalition, a gapped coalition and a residual that is the game.
    (["core-check", "g.json", "x.json"],
     {"g.json": TRIANGLE_PENDANTS, "x.json": _allocation(dict.fromkeys("abcdef", "1/3"))}),
    (["value", "g.json", "--coalition", "h,p1,p2,p3,p4,p5"], {"g.json": HUB_PENTAGON}),
    (["value", "g.json", "--coalition", "s1,s2,s3,u"], {"g.json": DIAMOND}),
)  # fmt: skip


def run_request(argv, files) -> dict:
    """Run one CLI request in a fresh directory holding its files. A usage
    error leaves `main` as SystemExit, whose code is the request's exit."""
    from stablefixtures.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_text(json.dumps(data), encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def pool_requests(seeds, per_pool=None):
    """(name, argv, files) of the first `per_pool` requests (all when None)
    of every perfbench pool at each of `seeds`."""
    sys.path.insert(0, str(HERE.parents[1] / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for k, req in enumerate(workloads.build(workload, seed)[:per_pool]):
                yield f"{workload}:{seed}:{k}", req.argv, req.files


def requests():
    """(name, argv, files) of the first REQUESTS_PER_POOL requests of every
    pool at each of SEEDS, then of the adversarial shapes."""
    yield from pool_requests(SEEDS, REQUESTS_PER_POOL)
    for k, (argv, files) in enumerate(ADVERSARIAL):
        yield f"adversarial:{k}", argv, files


def digest(seeds) -> None:
    """Print one line per request of every pool at `seeds`: its name, exit
    code and the sha256 of its stdout and of its stderr, so that two
    commits' outputs compare with `diff`."""
    for name, argv, files in pool_requests(seeds):
        got = run_request(argv, files)
        err = hashlib.sha256(got["stderr"].encode()).hexdigest()
        print(name, got["exit"], got["stdout_sha256"], err)


def main(argv) -> None:
    if argv[:1] == ["--digest"]:
        digest([int(seed) for seed in argv[1:]])
        return
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for name, argv, files in requests():
            entry = {"name": name, "argv": argv, "files": files}
            entry.update(run_request(argv, files))
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
