#!/usr/bin/env python3
"""A cost ledger that reads the same on any host: the calls of each kernel
entry of the field, per CLI subcommand, over the golden corpus.

    python3 scripts/ledger.py [TEXT ...]

runs every command of tests/golden/corpus.json in-process through
`cli.main`, in the corpus order, on the committed documents (with TEXT
given, only the commands whose argv, joined by spaces, contains one of
them).  Counting wrappers sit on the entries of `Field` listed in ENTRIES
and count every call, including the calls one entry makes of another.  It
prints one line per subcommand, the number of commands and then the calls
of each entry (a "-" for an entry the package does not have), and a total
line.  The counts depend only on the code and the corpus, so two runs print
the same bytes, whatever PYTHONHASHSEED says; wall time is left out for
that reason.  Field caches live for the whole process, so a command that
follows another over the same field can make fewer calls than it would
alone.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qpencil import cli  # noqa: E402
from qpencil.field import Field  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
ENTRIES = ("mul", "inv", "sqrt", "mat_mul", "pack", "unpack", "unpack_rows", "prepare",
           "combine", "column", "eliminate", "squares")


def _counted(counts: dict, name: str, fn):
    @functools.wraps(fn)
    def counted(*args):
        counts[name] += 1
        return fn(*args)

    return counted


def ledger(patterns) -> dict:
    """subcommand -> [commands, calls of each entry of ENTRIES (None when
    Field has no such entry)], over the corpus commands that match."""
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    counts = dict.fromkeys(ENTRIES, 0)
    present = [name for name in ENTRIES if name in vars(Field)]
    originals = {name: vars(Field)[name] for name in present}
    for name in present:
        setattr(Field, name, _counted(counts, name, originals[name]))
    rows = {}
    try:
        for e in corpus:
            argv = e["argv"]
            if patterns and not any(p in " ".join(argv) for p in patterns):
                continue
            before = dict(counts)
            real = [str(GOLDEN / "docs" / (a[1:] + ".json")) if a.startswith("@") else a
                    for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(real)
            row = rows.setdefault(argv[0] if argv else "(none)", [0] + [0] * len(ENTRIES))
            row[0] += 1
            for i, name in enumerate(ENTRIES, 1):
                row[i] += counts[name] - before[name]
    finally:
        for name, fn in originals.items():
            setattr(Field, name, fn)
    for row in rows.values():
        for i, name in enumerate(ENTRIES, 1):
            if name not in present:
                row[i] = None
    return rows


def render(rows: dict) -> str:
    """The rows as right-aligned columns under a header, and their total."""
    columns = list(zip(*rows.values())) or [()] * (1 + len(ENTRIES))
    total = ["total"] + [None if None in col else sum(col) for col in columns]
    table = [["subcommand", "commands", *ENTRIES]]
    table += [[name, *row] for name, row in sorted(rows.items())]
    table.append(total)
    table = [["-" if x is None else str(x) for x in line] for line in table]
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    return "".join(" ".join(x.rjust(w) if i else x.ljust(w)
                            for i, (x, w) in enumerate(zip(line, widths))).rstrip() + "\n"
                   for line in table)


def main(argv) -> int:
    sys.stdout.write(render(ledger(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
