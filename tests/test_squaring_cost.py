"""Multiplication-count guards for squaring modulo a polynomial: on a
separable degree-17 polynomial over GF(2^32), poly.factor and the GF(2)
pivots of k + wp(A) square through the one squaring table per modulus
(poly.square_table).  A generic product followed by a reduction forms
about twice as many products per squaring, which each bound rules out.
The `products` fixture (conftest.py) counts every Field product."""

import random

import pytest

import qpencil.poly as poly
from qpencil.algebra import EtaleAlgebra
from qpencil.field import GF
from qpencil.verify import random_separable_poly


@pytest.fixture(scope="module")
def f17():
    gf = GF(32)
    return gf, random_separable_poly(gf, 17, random.Random(17))


def test_factor_squares_by_table(products, f17):
    gf, f = f17
    formed, found = products(lambda: poly.factor(gf, f))
    assert [len(g) - 1 for g in found] == [1, 6, 10]
    assert 0 < formed < 90_000  # 60,149 by table; 153,596 by mul + mod


def test_coset_pivots_square_by_table(products, f17):
    gf, f = f17
    algebra = EtaleAlgebra(gf, tuple(f))
    formed, pivots = products(lambda: algebra._coset_pivots)
    # A / wp(A) is GF(2)^3, one per factor; the constants fill one of them
    assert len(pivots) == 17 * 32 - 2
    # 9,767 with one kernel call per bit over the whole table; 18,802 with
    # one squaring per column; 53,042 by mul + mod
    assert 0 < formed < 15_000
