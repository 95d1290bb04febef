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


# the split ops, (k, n, pattern): the splitting field GF(2^(k d)) is at
# most GF(2^12), because the checker scans it for the embedding root, and
# over GF(2^4) and GF(2^5) most roots are rational.  The quasi-split ops
# get r = 0 models, so the field they pick is the splitting field; that
# needs a non-root in P^1(GF(2^k)), which every entry leaves
SPLIT_CHOICES = [
    (4, 3, (1, 1, 1)), (4, 5, (1, 1, 1, 1, 1)), (4, 7, (1,) * 7), (4, 5, (1, 1, 3)),
    (4, 7, (1, 1, 1, 1, 1, 2)), (4, 5, (docs.INF, 1, 1, 1, 1)),
    (5, 3, (1, 1, 1)), (5, 5, (1, 1, 1, 1, 1)), (5, 7, (1,) * 7),
    (5, 7, (docs.INF, 1, 1, 1, 1, 2)), (5, 3, (docs.INF, 1, 1)),
    (1, 7, (3, 4)), (1, 5, (2, 3)), (1, 3, (docs.INF, 2)), (2, 7, (1, 2, 4)),
    (3, 5, (1, 4)), (6, 5, (1, 2, 2)),
]
QUASI_SPLIT_OPS = ("generators", "lattice", "autx")
SPLIT_PER_OP = 10


def _repeatable(pattern: tuple) -> bool:
    """Whether the pattern's first two factor degrees are equal, so that a
    non-regular Delta can repeat its first factor."""
    degrees = [d for d in pattern if d != docs.INF]
    return len(degrees) > 1 and degrees[0] == degrees[1]


def split_draws(seed: int) -> list:
    """SPLIT_PER_OP draws of every split op from SPLIT_CHOICES, in the
    shape of draws; canonical-plane takes n >= 5 only (m >= 2), and a
    non-regular draw a pattern that starts with two equal degrees."""
    rng = random.Random(f"differential-split:{seed}")
    out = []
    for op in docs.SPLIT_OPS:
        choices = [c for c in SPLIT_CHOICES if op != "canonical-plane" or c[1] >= 5]
        for _ in range(SPLIT_PER_OP):
            regular = rng.random() < 0.8
            pool = choices if regular else [c for c in choices if _repeatable(c[2])]
            k, n, pattern = rng.choice(pool)
            r_zero = op in QUASI_SPLIT_OPS or rng.random() < 0.3
            out.append((op, n, k, pattern, regular, r_zero, None))
    return out


def _run(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_draws(tmp_path, name: str, drawn: list) -> tuple:
    """Run and check every draw; the failures, one line each, and the
    draws counted by op."""
    fields = {k: gf.Field(k) for k in {draw[2] for draw in drawn}}
    checker = checks.Checker()
    failures, seen = [], Counter()
    for i, (op, n, k, pattern, regular, r_zero, iso) in enumerate(drawn):
        rng = random.Random(f"{name}:{SEED}:{i}")
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
            failures.append(f"seed {SEED}, {name} draw {i} (n={n}, k={k}, "
                            f"pattern={pattern}, regular={regular}, r_zero={r_zero}, "
                            f"iso={iso}): qpencil {' '.join(argv)}: {reason}")
        seen[op] += 1
        seen["not regular"] += not regular
        seen["not isomorphic"] += iso is False and regular
    return failures, seen


def test_classification_answers_match_the_construction(tmp_path):
    failures, seen = _check_draws(tmp_path, "differential", draws(SEED))
    assert not failures, "\n".join(failures)
    assert all(seen[op] >= len(DEGREES) for op in docs.CLASSIFY_OPS), seen
    assert seen["not regular"] >= 4 and seen["not isomorphic"] >= 2, seen


def test_split_answers_match_the_construction(tmp_path):
    drawn = split_draws(SEED)
    failures, seen = _check_draws(tmp_path, "differential-split", drawn)
    assert not failures, "\n".join(failures)
    assert all(seen[op] >= SPLIT_PER_OP for op in docs.SPLIT_OPS), seen
    regular = [(k, pattern) for _, _, k, pattern, ok, _, _ in drawn if ok]
    rational = [k for k, pattern in regular if pattern.count(1) >= 4]
    assert seen["not regular"] >= 4, seen
    assert rational.count(4) >= 4 and rational.count(5) >= 4, rational
    assert sum(docs.INF in pattern for _, pattern in regular) >= 3, regular
