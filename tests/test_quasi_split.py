"""The quasi-split degree from one analysis.

quasi_split_over decides every extension level from the factor degrees of
Delta and the component traces of r, over the base field or, when every
point of P^1(k) is a root of Delta, over the smallest odd extension with a
non-root.  These tests compare it with the level-by-level scan it replaced
(tests/oracles.py), count the analyses and fields it builds, and pin the
factorizations of a `generators` call."""

import contextlib
import io
import random
from functools import lru_cache
from pathlib import Path

import pytest

from oracles import quasi_split_by_scan
from qpencil import cli, geometry, poly
from qpencil.errors import PreconditionError
from qpencil.field import GF, Field, find_embedding
from qpencil.geometry import quasi_split_over
from qpencil.linalg import mat_mul
from qpencil.normalform import realize
from qpencil.pencil import Pencil
from qpencil.verify import random_pencil

DOCS = Path(__file__).parent / "golden" / "docs"


def hidden(p, rng):
    """p conjugated by L U, with L and U random unit triangular."""
    gf, n = p.gf, p.n
    low = [[1 if i == j else rng.randrange(gf.order) * (j < i) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else rng.randrange(gf.order) * (j > i) for j in range(n)]
          for i in range(n)]
    return p.conjugate(mat_mul(gf, low, up))


def all_roots_pencil(gf, n, rng):
    """realize(a; r), hidden, with Delta(1, T) = prod_c (T + c) times a
    random coprime rest and a_n = 0, so every point of P^1(gf) is a root,
    and r random."""
    base = [1]
    for c in gf.elements():
        base = poly.mul(gf, base, [c, 1])
    while True:
        rest = [rng.randrange(gf.order) for _ in range(n - len(base))]
        a = poly.mul(gf, base, rest + [rng.randrange(1, gf.order)])
        if poly.is_separable(gf, a):
            break
    return hidden(realize(gf, a + [0], [rng.randrange(gf.order) for _ in range(n - 1)]), rng)


def _outcome(f, p):
    """(j, ext.degree), or None when the extension is above the field limit;
    each function gets its own copy of p, so neither reuses the other's
    analyses."""
    try:
        j, ext = f(Pencil(p.q0, p.q1))
    except PreconditionError:
        return None
    return j, ext.degree


def test_quasi_split_matches_the_scan():
    rng = random.Random(24)
    # every fifth draw is all-roots, in turn over GF(2) with n >= 3, GF(4)
    # with n >= 5 and GF(8) with n = 9
    feasible = [(1, 3), (1, 5), (1, 7), (1, 9), (2, 5), (2, 7), (2, 9), (3, 9)]
    pencils, all_roots = [], 0
    for i in range(80):
        if i % 5 == 0:
            k, n = feasible[i // 5 % len(feasible)]
            pencils.append(all_roots_pencil(GF(k), n, rng))
            all_roots += 1
        else:
            k, n = rng.choice((1, 2, 3, 4, 5, 8)), rng.choice((3, 5, 7, 9))
            pencils.append(random_pencil(GF(k), n, rng))
    # over GF(2) with n = 5 the rest can only be T^2 + T + 1, so every point
    # of P^1(GF(4)) is a root too: the analysis runs over GF(8), the odd
    # base, and the answer is 3 or even.  Every r, hidden.
    for bits in range(16):
        r = [bits >> i & 1 for i in range(4)]
        pencils.append(hidden(realize(GF(1), [0, 1, 0, 0, 1, 0], r), rng))
        all_roots += 1
    odd = refused = 0
    for p in pencils:
        got = _outcome(quasi_split_over, p)
        assert got == _outcome(quasi_split_by_scan, p)
        odd += got is not None and got[0] == 3
        refused += got is None
    assert (len(pencils), all_roots, odd, refused) == (96, 32, 2, 0)


@lru_cache(maxsize=None)
def _fresh_gf(degree):
    return Field(degree)


@pytest.mark.parametrize("a,r,answer,base", [
    # r = (0, 1): the coset dies over GF(16), not over GF(4), which splits Delta
    ([0, 1, 1, 1], [0, 1], 4, 1),
    # Delta = t0 t1 (t0 + t1)(t0^2 + t0 t1 + t1^2): every point of P^1(GF(4))
    # is a root, so the analysis runs over GF(8), the odd base
    ([0, 1, 0, 0, 1, 0], [0, 1, 1, 0], 3, 3),
])
def test_quasi_split_builds_one_analysis(monkeypatch, a, r, answer, base):
    p = realize(GF(1), a, r)
    analysed, built = [], []
    pair_algebra, init = geometry.pair_algebra, Field.__init__

    def counted_pair_algebra(q):
        analysed.append(q.gf.degree)
        return pair_algebra(q)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.degree)

    # a GF cache of its own, so that every field the call needs is built
    monkeypatch.setattr(geometry, "GF", _fresh_gf)
    _fresh_gf.cache_clear()
    monkeypatch.setattr(geometry, "pair_algebra", counted_pair_algebra)
    monkeypatch.setattr(Field, "__init__", counted_init)
    j, ext = quasi_split_over(p)
    assert (j, ext.degree) == (answer, answer)
    assert analysed == [base]
    assert max(built) <= max(base, answer)


def _factor_calls(monkeypatch, argv) -> int:
    """poly.factor calls of one in-process CLI call, embeddings included:
    their cache is cleared first, so the count does not depend on what ran
    before."""
    calls = []
    find_embedding.cache_clear()
    factor = poly.factor

    def counted(gf, f):
        calls.append(gf)
        return factor(gf, f)

    monkeypatch.setattr(poly, "factor", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return len(calls)


@pytest.mark.parametrize("doc,factors", [
    # Delta over GF(2), once for the all-roots test, the analysis and
    # splitting_degree; the embedding into GF(16); Delta over GF(16), once
    # for its roots and the analysis there
    ("g2_n3_autx_bug", 3),
    # every point of P^1(GF(4)) is a root, so a_n = 0: the trimmed Delta over
    # GF(4) (the all-roots test and splitting_degree); the embedding into
    # GF(2^6) and the moved Delta there (the quasi-split analysis); the
    # embedding into GF(16), and over GF(16) the trimmed Delta (its roots)
    # and the moved Delta (the analysis), which are different polynomials
    ("g4_n5_all_roots", 6),
])
def test_generators_factor_count(monkeypatch, doc, factors):
    argv = ["generators", "--in", str(DOCS / f"{doc}.json")]
    assert _factor_calls(monkeypatch, argv) == factors
