"""Smoke test of the example scripts: each runs as its own process, exits
0 and prints its key results.  The cost ledger prints the same bytes under
two hash seeds."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, cwd: Path, *args: str, env=None) -> list:
    """The stdout lines of scripts/name, run from cwd (not the repository
    root: a script finds the package from its own path), with runs of
    whitespace collapsed."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return [" ".join(line.split()) for line in proc.stdout.splitlines()]


def test_ledger_is_deterministic(tmp_path):
    # the 27 corpus commands on two documents (GF(2^2) and GF(2^17)) and
    # on the isiso and --ext-degree entries that name the first
    runs = [run_script("ledger.py", tmp_path, "g2_n5_113_r0", "gk17",
                       env={**os.environ, "PYTHONHASHSEED": seed}) for seed in ("0", "1")]
    assert runs[0] == runs[1]
    head, *rows, total = runs[0]
    assert head.split()[:4] == ["subcommand", "commands", "mul", "inv"]
    assert len(rows) == 12 and total.split()[:2] == ["total", "27"]
    assert all(int(x) > 0 for x in total.split()[1:])


def test_del_pezzo_demo(tmp_path):
    # canonical_plane, enumerate_generators, reflections and lattice_for
    lines = run_script("del_pezzo_demo.py", tmp_path)
    # the forms as the document's 1-based [i, j, c] triples
    assert "q0 = [[2, 2, 1], [2, 4, 1], [3, 3, 1], [3, 5, 1]]" in lines
    assert "regular: True" in lines
    assert "canonical point of the surface (over the base field!): [0, 1, 1, 0, 0]" in lines
    assert any(line.startswith("lines over GF(16): orbit construction gives 16 ")
               and "point-pair scan gives 16 " in line for line in lines)
    assert "same line set: True" in lines
    assert "conic class [L_empty] = [2, -1, -1, -1, -1, -1] in the e-basis" in lines
    assert "equals -Cartan(D5): True" in lines
    assert "each line meets exactly 5 of the other 15" in lines


def test_classify_n3_gf2(tmp_path):
    # every regular pair of conics over GF(2): orbits counted by the
    # stabilizer formula equal the r-cosets (the script asserts it); an
    # a_3 = 0 Delta is classified after the GL(2) move, unless every
    # rational point is a root
    lines = run_script("classify_n3_gf2.py", tmp_path)
    assert "regular pairs: 1008 (proportional/degenerate skipped: 190)" in lines
    assert "separable half-discriminants: 6" in lines
    rows = {
        "(0, 1, 1, 1) 168 2 2 2 84",
        "(1, 0, 0, 1) 168 2 2 2 84",
        "(1, 0, 1, 1) 168 1 1 1 168",
        "(1, 1, 0, 1) 168 1 1 1 168",
        "(1, 1, 1, 0) 168 2 2 2 84",
        "(0, 1, 1, 0) 168 (every rational point is a root of Delta)",
    }
    assert rows <= set(lines)
