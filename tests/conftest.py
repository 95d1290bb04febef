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
    (c, v) with c != 0 that a Field.addmul call takes, and the same for
    each row of a, paired with the rows of b, in a Field.mat_mul(a, b)
    call.  The multiplication-count guards use it, so a product is counted
    whether it goes through mul or through a kernel entry."""

    def count(fn):
        formed = 0
        mul, addmul, mat_mul = Field.mul, Field.addmul, Field.mat_mul

        def counted_mul(self, a, b):
            nonlocal formed
            formed += 1
            return mul(self, a, b)

        def counted_addmul(self, acc, cs, vs):
            nonlocal formed
            cs, vs = list(cs), list(vs)
            formed += sum(len(v) for c, v in zip(cs, vs) if c)
            return addmul(self, acc, cs, vs)

        def counted_mat_mul(self, a, b):
            nonlocal formed
            formed += sum(len(v) for row in a for c, v in zip(row, b) if c)
            return mat_mul(self, a, b)

        with monkeypatch.context() as mp:
            mp.setattr(Field, "mul", counted_mul)
            mp.setattr(Field, "addmul", counted_addmul)
            mp.setattr(Field, "mat_mul", counted_mat_mul)
            out = fn()
        return formed, out

    return count
