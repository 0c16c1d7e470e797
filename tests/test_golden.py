"""Replay the golden CLI corpus through `cli.main`.

tests/golden/corpus.jsonl holds requests drawn from the perfbench pools and
from adversarial shapes, with the exit code, stdout digest and stderr each
gave when the corpus was written (tests/golden/make_corpus.py). Every
request must still answer byte for byte the same; an intended change
regenerates the corpus and is listed in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_corpus import CORPUS, run_request  # noqa: E402

ENTRIES = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def test_corpus_covers_every_pool_and_the_adversarial_shapes():
    kinds = {entry["name"].split(":")[0] for entry in ENTRIES}
    assert kinds == {"solve-general", "solve-bipartite", "core-b2", "audit", "adversarial"}


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_golden_request_is_unchanged(entry):
    got = run_request(entry["argv"], entry["files"])
    assert got == {key: entry[key] for key in ("exit", "stdout_sha256", "stderr")}
