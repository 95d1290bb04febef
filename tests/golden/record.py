"""Record the golden corpus: the stdout and exit code of `qpencil` on every
case below, run in-process through `cli.main`.

    PYTHONPATH=src python tests/golden/record.py

rewrites tests/golden/corpus.json from the current code; tests/test_golden.py
replays it.  Before writing, it prints to stderr the argv of every entry
whose exit code or stdout digest changed (new entries included), then their
count.  An argument "@name" stands for tests/golden/docs/name.json.
Re-record only when a change of output is intended, and say which entries
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DOCS = HERE / "docs"
CORPUS = HERE / "corpus.json"
INLINE_LIMIT = 4000  # stdout up to this many bytes is stored verbatim

ALL = ("halfdisc", "regular", "normalform", "rinv", "autos", "reflections",
       "generators", "canonical-plane", "arf", "lattice", "autx")
CHEAP = ("halfdisc", "regular", "normalform", "rinv", "autos",
         "canonical-plane", "arf")
# generators and lattice at m = 3 take about 0.1 s and 0.25 s a call, so
# they run on a few documents only (g4_n7_1123 would need GF(2^24))
GEOMETRY_M3 = {("generators", "g2_n7_34_r0"), ("generators", "g8_n7_11122"),
               ("lattice", "g2_n7_124")}
# autx is run where its field stays within GF(2^4) and m <= 2, and on the
# documents of AUTX_LARGE (the multiplication table has |Aut(X)|^2 entries)
AUTX = {"g2_n3_all_roots", "g2_n3_an0", "g2_n3_autx_bug", "g2_n3_irreducible",
        "g2_n3_m1", "g2_n3_split2_r0", "g2_n5_113_r0", "g2_n5_del_pezzo",
        "g4_n3_split_r0", "g8_n3_split_r0", "iso_g2_n5_other_coset",
        "g2_n5_not_regular", "g4_n3_not_regular", "g8_n7_not_regular",
        "g2_n3_delta_zero"}
# autx where a PGL2 scan and a table of |Aut(X)|^2 formed products were out
# of reach: order 960 over GF(2^4), and GF(2^8), GF(2^12) and GF(2^24)
AUTX_LARGE = {"g4_n5_all_roots", "g4_n3_12", "g4_n5_an0", "g8_n3_irreducible_r0"}
# documents over GF(2^17)..GF(2^64) (gk<k>..., beyond the log tables) run the
# cheap commands only: they are there for the raw multiplication path, on
# the default moduli and on one dense modulus (gk32m<modulus>), where
# mu = T^2k // modulus has about k/2 terms
BIG_FIELD_PREFIX = "gk"
# split pencils over GF(2^5) with r = 0: Delta has n rational roots, so the
# pair group has its largest order 2^(n-1) and every generator is rational
SPLIT = {"g32_n7_split_r0": ("autos", "generators", "lattice"),
         "g32_n9_split_r0": ("autos", "generators")}
# Delta = t0 t1 (t0 + t1)(t0^2 + t0 t1 + t1^2) over GF(2): every point of
# P^1(GF(4)) is a root, so the quasi-split degree 3 comes from the odd base
# GF(2^3), and generators and lattice pick GF(2^6); autx there has order 960, as
# on g4_n5_all_roots, and is left out to keep the replay short
ODD_BASE = {"g2_n5_odd_base": ("generators", "lattice")}

ISO_PAIRS = [
    ("iso_g2_n5_a", "iso_g2_n5_b"),
    ("iso_g2_n5_a", "iso_g2_n5_other_coset"),
    ("iso_g2_n5_a", "g2_n5_del_pezzo"),
    ("iso_g4_n7_an0_a", "iso_g4_n7_an0_b"),
    ("g2_n5_113", "g2_n5_113_r0"),
    ("g8_n5_113", "g8_n5_113"),
    ("g2_n3_m1", "g4_n3_12"),
    ("g2_n3_m1", "g2_n3_split2_r0"),
    ("g2_n3_all_roots", "iso_g2_n3_all_roots_b"),
    ("g2_n5_roots_p1_gf4", "g2_n5_roots_p1_gf4"),
    ("g2_n5_not_regular", "g2_n5_113"),
    ("bad_index", "g2_n3_m1"),
    ("iso_gk24_n5_a", "iso_gk24_n5_b"),
    ("gk32m6928990209_n5_122", "iso_gk32m6928990209_n5_122_b"),
]

EXT_DEGREE = [
    ("reflections", "2", "g2_n3_m1"),
    ("reflections", "1", "g2_n3_m1"),
    ("reflections", "4", "g2_n5_del_pezzo"),
    ("generators", "4", "g2_n3_autx_bug"),
    ("generators", "2", "g2_n3_autx_bug"),
    ("generators", "3", "g2_n5_113_r0"),
    ("lattice", "4", "g2_n3_autx_bug"),
    ("lattice", "2", "g4_n3_split_r0"),
    ("autx", "4", "g2_n3_autx_bug"),
    ("autx", "2", "g2_n3_autx_bug"),
    ("autx", "2", "g2_n3_m1"),
    ("reflections", "65", "g2_n3_m1"),
    ("lattice", "22", "g8_n3_split"),
]

# argv the parser refuses: input errors, exit 2, JSON on stdout
BAD_ARGV = [
    ["nosuchcmd", "--in", "@g2_n3_m1"],
    ["halfdisc", "--bogus", "--in", "@g2_n3_m1"],
    ["verify", "--scale", "huge"],
    ["reflections", "--ext-degree", "x", "--in", "@g2_n3_m1"],
    [],
    ["halfdisc", "--in"],
]

# the extension the CLI picks by itself is above the field-degree limit:
# Delta of gk24_n7_25 splits over the degree-10 extension of GF(2^24)
AUTO_EXTENSION_ABOVE_LIMIT = [("reflections", "gk24_n7_25"), ("autx", "gk24_n7_25")]


def cases() -> list:
    out = []
    for path in sorted(DOCS.glob("*.json")):
        name = path.stem
        if name.startswith("bad_"):
            cmds = ("halfdisc", "rinv", "autx")
        elif name.startswith("iso_"):
            cmds = CHEAP + (("autx",) if name in AUTX else ())
        elif name.startswith(BIG_FIELD_PREFIX):
            cmds = CHEAP
        elif name in SPLIT | ODD_BASE:
            cmds = (SPLIT | ODD_BASE)[name]
        else:
            cmds = [c for c in ALL
                    if not (c in ("generators", "lattice") and "_n7_" in name
                            and (c, name) not in GEOMETRY_M3)
                    and not (c == "autx" and name not in AUTX | AUTX_LARGE)]
        out += [[c, "--in", "@" + name] for c in cmds]
    out += [["isiso", "@" + a, "@" + b] for a, b in ISO_PAIRS]
    out += [[c, "--ext-degree", d, "--in", "@" + name] for c, d, name in EXT_DEGREE]
    out += [list(argv) for argv in BAD_ARGV]
    out += [[c, "--in", "@" + name] for c, name in AUTO_EXTENSION_ABOVE_LIMIT]
    return out


def run(argv: list) -> tuple[int, str]:
    """Exit code and stdout of one in-process `qpencil` call."""
    from qpencil import cli

    real = [str(DOCS / (a[1:] + ".json")) if a.startswith("@") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(real)
    return code, buf.getvalue()


def entry(argv: list) -> dict:
    code, text = run(argv)
    e = {"argv": argv, "exit": code,
         "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if len(text) <= INLINE_LIMIT:
        e["stdout"] = text
    return e


def report_changes(entries: list) -> None:
    """Print to stderr the argv of each entry whose exit code or digest
    differs from the corpus on disk (or is new), then their count."""
    old = {}
    if CORPUS.exists():
        old = {tuple(e["argv"]): e for e in json.loads(CORPUS.read_text())}
    changed = 0
    for e in entries:
        prev = old.get(tuple(e["argv"]))
        if prev is None or (prev["exit"], prev["sha256"]) != (e["exit"], e["sha256"]):
            print("changed: " + " ".join(e["argv"]), file=sys.stderr)
            changed += 1
    print(f"{changed} entries changed", file=sys.stderr)


def main() -> int:
    entries = [entry(argv) for argv in cases()]
    report_changes(entries)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} cases in {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
