"""Relations between two runs of the program, which need no oracle.

Hash seed: the commands whose answers are built from sets and dicts
(`autx`, `lattice`, `generators`) print the same bytes whatever
PYTHONHASHSEED says.  Each runs as `python -m qpencil` on committed golden
documents under the seeds 0 and 1, and its stdout is also the output the
golden corpus recorded in-process.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# (command, golden document): each well under 0.1 s a call
HASH_SEED_CASES = (
    ("autx", "g2_n5_113_r0"),
    ("autx", "g4_n3_12"),
    ("lattice", "g32_n7_split_r0"),
    ("lattice", "g8m13_n5_1112"),
    ("generators", "g32_n7_split_r0"),
    ("generators", "g4_n5_an0"),
)


def _stdout(argv, seed):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(seed)}
    proc = subprocess.run([sys.executable, "-m", "qpencil", *argv], capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc.stdout


def test_output_does_not_depend_on_the_hash_seed():
    recorded = {tuple(e["argv"]): e["sha256"]
                for e in json.loads((GOLDEN / "corpus.json").read_text())}
    for command, doc in HASH_SEED_CASES:
        argv = [command, "--in", str(GOLDEN / "docs" / f"{doc}.json")]
        first, second = (_stdout(argv, seed) for seed in (0, 1))
        assert first == second, (command, doc)
        digest = hashlib.sha256(first).hexdigest()
        assert digest == recorded[command, "--in", f"@{doc}"], (command, doc)
