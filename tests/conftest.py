import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qpencil.field import GF, Field


@pytest.fixture
def g2():
    return GF(1)


@pytest.fixture
def g4():
    return GF(2)


@pytest.fixture
def g8():
    return GF(3)


@pytest.fixture
def g16():
    return GF(4)


@pytest.fixture
def products(monkeypatch):
    """products(fn) runs fn and returns (the field products it formed, its
    result): one product per Field.mul call, plus len(v) for each pair
    (c, v) with c != 0 of a row of a and the rows of b in a
    Field.mat_mul(a, b) call, the one entry that forms products of
    vectors.  A Field.combine call counts the length of its prepared rows for
    each c != 0, a Field.eliminate call the length of its pivot row (from
    the pivot column on) for each nonzero multiplier, and a Field.squares
    call one product per entry.  The multiplication-count guards use it,
    so a product is counted whether it goes through mul or through a
    kernel entry."""

    def count(fn):
        formed = 0
        mul, mat_mul = Field.mul, Field.mat_mul
        combine, eliminate, squares = Field.combine, Field.eliminate, Field.squares

        def counted_mul(self, a, b):
            nonlocal formed
            formed += 1
            return mul(self, a, b)

        def counted_mat_mul(self, a, b):
            nonlocal formed
            formed += sum(len(v) for row in a for c, v in zip(row, b) if c)
            return mat_mul(self, a, b)

        def counted_combine(self, prepared, cs):
            nonlocal formed
            cs = list(cs)
            formed += prepared[1] * sum(1 for c in cs if c)
            return combine(self, prepared, cs)

        def counted_eliminate(self, ps, pivot, n, cs, shift):
            nonlocal formed
            cs = list(cs)
            formed += n * sum(1 for c in cs if c)
            eliminate(self, ps, pivot, n, cs, shift)

        def counted_squares(self, v):
            nonlocal formed
            formed += len(v)
            return squares(self, v)

        with monkeypatch.context() as mp:
            mp.setattr(Field, "mul", counted_mul)
            mp.setattr(Field, "mat_mul", counted_mat_mul)
            mp.setattr(Field, "combine", counted_combine)
            mp.setattr(Field, "eliminate", counted_eliminate)
            mp.setattr(Field, "squares", counted_squares)
            out = fn()
        return formed, out

    return count
