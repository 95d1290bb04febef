"""The packed paths of linalg, poly and quadform against scalar loops.

Over every field rref, nullspace, inverse, divmod_, square_table and
square_mod keep their rows packed, with prepared operands
(Field.prepare, Field.combine), the elimination step (Field.column,
Field.eliminate) and the packed Frobenius (Field.squares); each answer
here must equal a loop of Field.mul and Field.inv calls from
tests/oracles.py.  So must the pull-back of one to three forms by one
stacked pair of products (QuadraticForm.transform), against the
coefficients by definition, and the many-row unpack (Field.unpack_rows)
must equal one Field.unpack per row.  k = 1, 2 and 8
have the byte kernel's one-byte slots; on the wide kernel 9, 12, 13 and
16 have 4-byte slots, 17 and 32 have 8-byte slots, and 33 and 64 have two
8-byte items a slot.
"""

import random

import pytest

from qpencil import poly
from qpencil.field import (
    _MASKS_KEPT,
    GF,
    Field,
    default_modulus,
    field_from_modulus,
    p2_is_irreducible,
)
from qpencil.linalg import inverse, nullspace, rref
from qpencil.quadform import QuadraticForm
from oracles import (
    divmod_by_loop,
    inverse_by_loop,
    nullspace_by_loop,
    rref_by_loop,
    square_mod_by_loop,
    transform_by_definition,
)

DEGREES = (1, 2, 8, 9, 12, 13, 16, 17, 32, 33, 64)


def _matrix(gf, rows, cols, rng, rank=None):
    """A random rows x cols matrix; with rank given, each row past the
    first `rank` is a combination of those, and one row is zero."""
    a = [[rng.randrange(gf.order) for _ in range(cols)] for _ in range(rows)]
    if rank is not None:
        for i in range(rank, rows):
            cs = [rng.randrange(gf.order) for _ in range(rank)]
            a[i] = [0] * cols
            for c, row in zip(cs, a[:rank]):
                a[i] = [x ^ gf.mul(c, y) for x, y in zip(a[i], row)]
        a.insert(rng.randrange(rows + 1), [0] * cols)
    return a


@pytest.mark.parametrize("k", DEGREES)
def test_eliminations_match_the_scalar_loops(k):
    # on the wide kernel also one non-default modulus at each slot width;
    # the n x 2n shapes have their later columns read unreduced after
    # several elimination steps, all in one Field.column pass
    fields = [GF(k)]
    if k in (9, 17, 32, 64):
        fields.append(field_from_modulus(next(
            m for m in range(default_modulus(k) + 2, 1 << k + 1, 2) if p2_is_irreducible(m))))
    rng = random.Random(k)
    for gf in fields:
        shapes = [(1, 1), (1, 7), (7, 1), (5, 5), (4, 9), (9, 4), (11, 11),
                  (3, 6), (5, 10), (9, 18), (13, 26)]
        cases = [_matrix(gf, r, c, rng) for r, c in shapes]
        cases += [_matrix(gf, 6, 8, rng, rank=3), _matrix(gf, 9, 9, rng, rank=8),
                  _matrix(gf, 5, 5, rng, rank=0), [[0, 1, 0], [0, 0, 1], [0, 1, 1]],
                  _matrix(gf, 9, 18, rng, rank=6), _matrix(gf, 7, 14, rng, rank=1)]
        for a in cases:
            assert rref(gf, a) == rref_by_loop(gf, a), (gf, a)
            assert nullspace(gf, a) == nullspace_by_loop(gf, a), (gf, a)
            if len(a) == len(a[0]):
                want = inverse_by_loop(gf, a)
                if want is None:
                    with pytest.raises(ValueError):
                        inverse(gf, a)
                else:
                    assert inverse(gf, a) == want


@pytest.mark.parametrize("k", DEGREES)
def test_division_and_squaring_match_the_scalar_loops(k):
    gf = GF(k)
    rng = random.Random(200 + k)
    lead = min(2, gf.order - 1)  # a leading coefficient other than 1, but for GF(2)
    for da, db in ((0, 0), (3, 1), (9, 4), (8, 8), (2, 5), (31, 15)):
        a = [rng.randrange(gf.order) for _ in range(da)] + [rng.randrange(1, gf.order)]
        b = [rng.randrange(gf.order) for _ in range(db)] + [rng.randrange(lead, gf.order)]
        assert poly.divmod_(gf, a, b) == divmod_by_loop(gf, a, b), (a, b)
    for d in (1, 2, 7, 16):
        m = [rng.randrange(gf.order) for _ in range(d)] + [rng.randrange(lead, gf.order)]
        table = poly.square_table(gf, m)
        for h in ([], [1], [0] * (d - 1) + [1],
                  [rng.randrange(gf.order) for _ in range(d)]):
            h = poly.trim(list(h))
            assert poly.square_mod(gf, h, table) == square_mod_by_loop(gf, h, m), (m, h)
    v = [rng.randrange(gf.order) for _ in range(9)] + [0, 1]
    assert gf.squares(v) == [gf.mul(c, c) for c in v]


def test_packed_division_refuses_a_wrong_product(monkeypatch):
    # as over GF(4) (test_poly), a step that leaves the top
    # coefficient is a failed certificate, not a loop without end
    gf = GF(32)
    right = Field.combine

    def wrong(self, prepared, cs):
        _, n = prepared
        return right(self, prepared, cs) ^ 1 << (n - 1) * self.slot_bits

    monkeypatch.setattr(Field, "combine", wrong)
    with pytest.raises(AssertionError, match="leading coefficient"):
        poly.divmod_(gf, [1, 2, 3, 1], [1, 1])


def _form(gf, n, rng, density):
    return QuadraticForm(gf, n, tuple(
        tuple(rng.randrange(gf.order) if j >= i and rng.random() < density else 0
              for j in range(n)) for i in range(n)))


def test_stacked_pull_back_matches_the_definition():
    # 1-3 forms on n = 3..31 variables pulled back by one n x c matrix, c = n
    # or not (is_totally_isotropic pulls back by n x dim matrices): each
    # image must be the form by definition, and the one-form call must give
    # the first image.  Small n are drawn more often, c n stays at most 18
    # and most forms are sparse, so that the scalar reference, about
    # (c n)^2 products a dense form, stays cheap
    rng = random.Random(41)
    draws = shapes = 0
    seen = set()
    for k in (1, 2, 8, 16, 17, 32, 64):
        gf = GF(k)
        for _ in range(290):
            n = 3 + int(29 * rng.random() ** 3)
            c = rng.choice([x for x in range(1, max(2, 18 // n) + 1) if x != n]
                           + ([n] if n <= 4 else []))
            density = rng.choice((1, 0.5, 0.2))
            forms = [_form(gf, n, rng, density) for _ in range(rng.randrange(1, 4))]
            g = [[rng.randrange(gf.order) for _ in range(c)] for _ in range(n)]
            images = forms[0].transform(g, *forms[1:])
            want = tuple(transform_by_definition(q, g) for q in forms)
            if len(forms) == 1:
                assert images == want[0], (k, n, c)
            else:
                assert images == want, (k, n, c, len(forms))
                assert forms[0].transform(g) == want[0]
            draws += 1
            shapes += c != n
            seen.add((len(forms), c == n))
    assert (draws, shapes) == (2030, 1903)
    assert seen == {(f, square) for f in (1, 2, 3) for square in (False, True)}


@pytest.mark.parametrize("k", DEGREES)
def test_unpack_rows_matches_one_unpack_per_row(k):
    # unreduced rows, as Field.combine leaves them on the wide kernel; the
    # shapes take in width 0, no rows, one row, 61 columns, more rows of 61
    # than one join of at most _MASKS_KEPT slots holds, and rows wider
    # than _MASKS_KEPT, joined one at a time
    gf = GF(k)
    rng = random.Random(300 + k)
    shapes = ((3, 0), (0, 5), (1, 1), (1, 9), (4, 61), (9, 31), (_MASKS_KEPT // 61 + 2, 61),
              (2, _MASKS_KEPT + 5))
    assert (_MASKS_KEPT // 61 + 2) * 61 > _MASKS_KEPT
    for rows, width in shapes:
        vs = [[rng.randrange(gf.order) for _ in range(width)] for _ in range(5)]
        prepared = gf.prepare([gf.pack(v) for v in vs], width)
        ps = [gf.combine(prepared, [rng.randrange(gf.order) for _ in vs])
              for _ in range(rows)]
        assert gf.unpack_rows(ps, width) == [gf.unpack(p, width) for p in ps], (rows, width)
    if gf._rows is None:  # the wide kernel keeps its slot masks bounded
        assert max(gf._masks) <= _MASKS_KEPT
