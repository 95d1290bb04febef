"""Replay the golden corpus (tests/golden) in-process through cli.main:
every case must give the recorded exit code and byte-identical stdout."""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))

import record  # noqa: E402


def test_golden_corpus_replays_byte_identical():
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    assert [e["argv"] for e in corpus] == record.cases()
    mismatches = []
    for e in corpus:
        code, text = record.run(e["argv"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != e["exit"] or digest != e["sha256"]:
            mismatches.append((" ".join(e["argv"]), e["exit"], code))
    assert not mismatches, mismatches
