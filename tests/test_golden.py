"""Replay the golden corpus (tests/golden) in-process through cli.main:
every case must give the recorded exit code and byte-identical stdout."""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))

import record  # noqa: E402
from qpencil.field import Field  # noqa: E402


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


def test_kernel_vectors_have_the_length_of_acc(monkeypatch):
    # the product entry's preconditions: a packed product would pad a short
    # row with zeros rather than cut it short as zip does, so replay the
    # big-field documents (the wide kernel) and one document over GF(2^8)
    # (the byte kernel) with every Field.mat_mul shape checked
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    docs = ("@gk", "@iso_gk", "@g8_n5_113")
    entries = [e for e in corpus if any(a.startswith(docs) for a in e["argv"])]
    mat_mul = Field.mat_mul
    seen = Counter()  # pairs checked, by whether gf has the byte kernel

    def checked_mat_mul(self, a, b):
        assert all(len(v) == len(b[0]) for v in b), (self, [len(v) for v in b])
        assert all(len(row) == len(b) for row in a), (self, [len(row) for row in a], len(b))
        seen[self._rows is not None] += len(a) * len(b)
        return mat_mul(self, a, b)

    monkeypatch.setattr(Field, "mat_mul", checked_mat_mul)
    for e in entries:
        code, text = record.run(e["argv"])
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (e["exit"], e["sha256"])
    assert seen[True] and seen[False]
