"""Multiplication-count guards: the substitution certificate, the
half-discriminant and the Kronecker completion cost O(n^3) field
multiplications on a dense pencil (n = 41 over GF(2^8)).  Each bound is
far below what a Theta(n^4) or worse method needs at this size.  The
`products` fixture (conftest.py) counts Field.mul calls and the products
each kernel entry (Field.mat_mul, combine, eliminate, squares) forms, so
work moved into the kernel still counts."""

import random

import pytest

from qpencil.field import GF
from qpencil.linalg import mat_vec
from qpencil.normalform import complete_kronecker
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm
from qpencil.verify import random_pencil

N = 41


@pytest.fixture(scope="module")
def dense():
    rng = random.Random(41)
    gf = GF(8)
    p = random_pencil(gf, N, rng)
    g = [[rng.randrange(gf.order) for _ in range(N)] for _ in range(N)]
    return p, g


def test_transform_is_cubic(products, dense):
    p, g = dense
    assert 0 < products(lambda: p.q0.transform(g))[0] < 2 * N**3


def test_half_discriminant_is_cubic(products, dense):
    p, _ = dense
    fresh = Pencil(p.q0, p.q1)
    fresh.radical_map()
    assert 0 < products(fresh.half_discriminant)[0] < 2 * N**3


def test_complete_kronecker_is_cubic(products, dense):
    p, _ = dense
    ws = p.radical_map()
    assert 0 < products(lambda: complete_kronecker(p, ws))[0] < 3 * N**3


def _quartic_transform(q: QuadraticForm, g: list) -> QuadraticForm:
    """q o g by n^2 polar-form evaluations b(g e_i, g e_j), each a product
    of the Gram matrix with a column of g: Theta(n^4) products, all of
    them in the kernel."""
    gf, n = q.gf, q.n
    gram = q.polar()
    cols = [list(c) for c in zip(*g)]
    table = {(i, i): q(cols[i]) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = mat_vec(gf, [cols[i]], mat_vec(gf, gram, cols[j]))[0]
    return QuadraticForm.from_table(gf, n, table)


def test_a_quartic_transform_breaks_the_bound(products, dense):
    # the guard above is not vacuous: the same map, computed in Theta(n^4),
    # forms more products than its bound allows
    p, g = dense
    formed, image = products(lambda: _quartic_transform(p.q0, g))
    assert formed > 2 * N**3
    assert image == p.q0.transform(g)
