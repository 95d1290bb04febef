"""Multiplication-count guards: the substitution certificate, the
half-discriminant and the Kronecker completion cost O(n^3) field
multiplications on a dense pencil (n = 41 over GF(2^8)).  Each bound is
far below what a Theta(n^4) or worse method needs at this size."""

import random

import pytest

from qpencil.field import GF, Field
from qpencil.normalform import canonical_w, complete_kronecker
from qpencil.pencil import Pencil, random_pencil

N = 41


@pytest.fixture(scope="module")
def dense():
    rng = random.Random(41)
    gf = GF(8)
    p = random_pencil(gf, N, rng)
    g = [[rng.randrange(gf.order) for _ in range(N)] for _ in range(N)]
    return p, g


def _muls(monkeypatch, fn):
    calls = 0
    mul = Field.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    with monkeypatch.context() as mp:
        mp.setattr(Field, "mul", counted)
        fn()
    return calls


def test_transform_is_cubic(monkeypatch, dense):
    p, g = dense
    assert 0 < _muls(monkeypatch, lambda: p.q0.transform(g)) < 2 * N**3


def test_half_discriminant_is_cubic(monkeypatch, dense):
    p, _ = dense
    fresh = Pencil(p.q0, p.q1)
    fresh.radical_map()
    assert 0 < _muls(monkeypatch, fresh.half_discriminant) < 2 * N**3


def test_complete_kronecker_is_cubic(monkeypatch, dense):
    p, _ = dense
    ws = canonical_w(p)
    assert 0 < _muls(monkeypatch, lambda: complete_kronecker(p, ws)) < 3 * N**3
