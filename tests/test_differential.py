"""Differential draws: seeded pencils whose answers are known by
construction (perfbench/docs.py), run through cli.main in-process and
checked by the benchmark's own arithmetic (perfbench/checks.py), which
shares no code with the package.  A failure names the seed, the draw and
the argv; the draw's documents are rebuilt from those alone."""

import contextlib
import io
import random
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import docs  # noqa: E402
import gf  # noqa: E402
from qpencil import cli  # noqa: E402

SEED = 1
DEGREES = (2, 8, 17, 24, 32, 64)
# factor degrees of Delta by n (INF: a root at [0:1], so a_n = 0); a
# non-regular pattern starts with two equal degrees, whose factor
# perfbench repeats
PATTERNS = {3: [(1, 2), (3,), (1, 1, 1), (docs.INF, 2), (1, 1, docs.INF)],
            5: [(1, 1, 3), (2, 3), (5,), (1, 2, 2), (docs.INF, 1, 3), (1, 4)],
            7: [(1, 2, 4), (7,), (3, 4), (1, 1, 5), (docs.INF, 2, 4), (1, 3, 3)]}
NOT_REGULAR = {3: (1, 1, 1), 5: (1, 1, 3), 7: (2, 2, 3)}


def draws(seed: int) -> list:
    """(op, n, k, pattern, regular, r_zero, iso) for every classification
    op at every degree: n in {3, 5, 7}, but only 3 over GF(2^64), where
    building one n = 7 isiso pair takes about a quarter of a second."""
    rng = random.Random(f"differential:{seed}")
    out = []
    for op in docs.CLASSIFY_OPS:
        for k in DEGREES:
            n = 3 if k == 64 else rng.choice((3, 5, 7))
            regular = rng.random() < 0.8
            pattern = rng.choice(PATTERNS[n]) if regular else NOT_REGULAR[n]
            iso = rng.random() < 0.6 if op == "isiso" else None
            out.append((op, n, k, pattern, regular, rng.random() < 0.3, iso))
    return out


def _run(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_classification_answers_match_the_construction(tmp_path):
    fields = {k: gf.Field(k) for k in DEGREES}
    checker = checks.Checker()
    failures, seen = [], Counter()
    for i, (op, n, k, pattern, regular, r_zero, iso) in enumerate(draws(SEED)):
        rng = random.Random(f"differential:{SEED}:{i}")
        case = docs.make_case(fields, op, n, k, pattern, rng,
                              regular=regular, r_zero=r_zero, iso=iso)
        paths = []
        for j, pencil in enumerate(case.docs):
            path = tmp_path / f"draw{i}_{j}.json"
            path.write_bytes(pencil.document())
            paths.append(str(path))
        argv = case.argv(paths)
        code, text = _run(argv)
        reason = checker.check(case, code, text)
        if reason:
            failures.append(f"seed {SEED}, draw {i} (n={n}, k={k}, pattern={pattern}, "
                            f"regular={regular}, r_zero={r_zero}, iso={iso}): "
                            f"qpencil {' '.join(argv)}: {reason}")
        seen[op] += 1
        seen["not regular"] += not regular
        seen["not isomorphic"] += iso is False and regular
    assert not failures, "\n".join(failures)
    assert all(seen[op] >= len(DEGREES) for op in docs.CLASSIFY_OPS), seen
    assert seen["not regular"] >= 4 and seen["not isomorphic"] >= 2, seen
