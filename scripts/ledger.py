#!/usr/bin/env python3
"""A cost ledger that reads the same on any host: the calls of each kernel
entry of the field, the field products and the GF(2) row operations, per
CLI subcommand, over the golden corpus.

    python3 scripts/ledger.py [TEXT ...]

runs every command of tests/golden/corpus.json in-process through
`cli.main`, in the corpus order, on the committed documents (with TEXT
given, only the commands whose argv, joined by spaces, contains one of
them).  Counting wrappers sit on the entries of `Field` listed in ENTRIES
and count every call, including the calls one entry makes of another.  It
prints one line per subcommand, the number of commands, the calls of each
entry (a "-" for an entry the package does not have), the products and the
row operations, and a total line.  The products follow the rule of the
tests' `products` fixture (tests/conftest.py): one per `mul`, and for the
kernel entries the length of each row that a nonzero coefficient scales
(`mat_mul`, `combine`, `eliminate`) or one per entry (`squares`).  The row
operations are the xors of a pivot into a packed GF(2) vector in
`algebra._reduce`, which `algebra._pivots` runs for each column: the
package's one GF(2) elimination.  The counts depend only on the code and the
corpus, so two runs print the same bytes, whatever PYTHONHASHSEED says;
wall time is left out for that reason.  Field caches live for the whole
process, so a command that follows another over the same field can make
fewer calls than it would alone.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qpencil import algebra, cli  # noqa: E402
from qpencil.field import Field  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
ENTRIES = ("mul", "inv", "sqrt", "mat_mul", "pack", "unpack", "unpack_rows", "prepare",
           "combine", "column", "eliminate", "squares")
COLUMNS = (*ENTRIES, "products", "gf2_rows")


# the products an entry call forms, by the `products` fixture's rule, from
# its arguments after self (a coefficient list made a list first, so that
# an iterator is read once)
PRODUCTS = {
    "mul": lambda a, b: 1,
    "mat_mul": lambda a, b: sum(len(v) for row in a for c, v in zip(row, b) if c),
    "combine": lambda prepared, cs: prepared[1] * sum(1 for c in cs if c),
    "eliminate": lambda ps, pivot, n, cs, shift: n * sum(1 for c in cs if c),
    "squares": len,
}
LISTED = {"combine": 1, "eliminate": 3}  # the coefficients' argument


def _counted(counts: dict, name: str, fn):
    rule, listed = PRODUCTS.get(name), LISTED.get(name)

    @functools.wraps(fn)
    def counted(self, *args):
        counts[name] += 1
        if listed is not None:
            args = (*args[:listed], list(args[listed]), *args[listed + 1:])
        if rule is not None:
            counts["products"] += rule(*args)
        return fn(self, *args)

    return counted


class _Reads:
    """The pivots list of a GF(2) elimination seen through a counter of its
    reads: _reduce reads one pivot for each xor."""

    def __init__(self, pivots: list, counts: dict):
        self.pivots, self.counts = pivots, counts

    def __getitem__(self, i):
        self.counts["gf2_rows"] += 1
        return self.pivots[i]


def ledger(patterns) -> dict:
    """subcommand -> [commands, and for each of COLUMNS its count (None for
    an entry that Field does not have)], over the corpus commands that
    match."""
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    counts = dict.fromkeys(COLUMNS, 0)
    present = [name for name in ENTRIES if name in vars(Field)]
    originals = {name: vars(Field)[name] for name in present}
    for name in present:
        setattr(Field, name, _counted(counts, name, originals[name]))
    reduce_ = algebra._reduce
    algebra._reduce = lambda c, leads, pivots: reduce_(c, leads, _Reads(pivots, counts))
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
            row = rows.setdefault(argv[0] if argv else "(none)", [0] + [0] * len(COLUMNS))
            row[0] += 1
            for i, name in enumerate(COLUMNS, 1):
                row[i] += counts[name] - before[name]
    finally:
        for name, fn in originals.items():
            setattr(Field, name, fn)
        algebra._reduce = reduce_
    for row in rows.values():
        for i, name in enumerate(ENTRIES, 1):
            if name not in present:
                row[i] = None
    return rows


def render(rows: dict) -> str:
    """The rows as right-aligned columns under a header, and their total."""
    columns = list(zip(*rows.values())) or [()] * (1 + len(COLUMNS))
    total = ["total"] + [None if None in col else sum(col) for col in columns]
    table = [["subcommand", "commands", *COLUMNS]]
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
