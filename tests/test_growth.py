"""Growth exponents of the layers, from field-product counts.

Product counts are exact and do not depend on the host, so the exponent
between two sizes, log(c2 / c1) / log(n2 / n1), states a growth rate that
wall time on a shared machine cannot.  Each entry of GROWTH gives a layer's
input builder (a field and a dimension to a function that runs the layer
once, fresh), its sizes and its stated exponent; the test asserts that
every log-ratio over consecutive sizes is at most the exponent plus 0.25,
for each field degree in DEGREES.  A change that fixes a growth rate lowers
its entry.
"""

import math
import random

import pytest

from qpencil.field import GF
from qpencil.linalg import inverse, mat_mul, rank, rref
from qpencil.normalform import extract_normal_form
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm, pfaffian_vector
from qpencil.verify import random_regular_nf_pencil

DEGREES = (1, 8, 32)


def _radical_map(gf, n):
    p = random_regular_nf_pencil(gf, n // 2, random.Random(n))
    return Pencil(p.q0, p.q1).radical_map


def _half_discriminant(gf, n):
    # the radical map is computed here, so only W (U W^T) is counted
    p = random_regular_nf_pencil(gf, n // 2, random.Random(n))
    fresh = Pencil(p.q0, p.q1)
    fresh.radical_map()
    return fresh.half_discriminant


def _normal_form(gf, n):
    # Omega, Delta and the regularity verdict are computed here, so the
    # two transforms, the Kronecker completion and the round-trip
    # certificate are counted
    p = random_regular_nf_pencil(gf, n // 2, random.Random(n))
    fresh = Pencil(p.q0, p.q1)
    fresh.is_regular()
    return lambda: extract_normal_form(fresh)


def _square(gf, n, rng):
    return [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]


def _mat_mul(gf, n):
    rng = random.Random(n)
    a, b = _square(gf, n, rng), _square(gf, n, rng)
    return lambda: mat_mul(gf, a, b)


def _invertible(gf, n, rng):
    while True:
        a = _square(gf, n, rng)
        if rank(gf, a) == n:
            return a


def _rref(gf, n):
    # an invertible draw, as inverse gets: a uniform one over GF(2) is
    # singular often, and its count grows faster than n^3 at these sizes
    a = _invertible(gf, n, random.Random(n))
    return lambda: rref(gf, a)


def _inverse(gf, n):
    a = _invertible(gf, n, random.Random(n))
    return lambda: inverse(gf, a)


def _pfaffian_vector(gf, n):
    # an odd-size alternating matrix: zero diagonal, symmetric
    u = _square(gf, n, random.Random(n))
    gram = [[u[min(i, j)][max(i, j)] if i != j else 0 for j in range(n)] for i in range(n)]
    return lambda: pfaffian_vector(gf, gram)


def _transform(gf, n):
    rng = random.Random(n)
    q = QuadraticForm.from_table(gf, n, {
        (i, j): rng.randrange(gf.order) for i in range(n) for j in range(i, n)})
    g = _square(gf, n, rng)
    return lambda: q.transform(g)


# layer: (input builder, sizes n, stated exponent)
GROWTH = {
    "radical_map": (_radical_map, (11, 21, 31), 3.0),
    "mat_mul": (_mat_mul, (11, 21, 31), 3.0),
    "transform": (_transform, (11, 21, 31), 3.0),
    "half_discriminant": (_half_discriminant, (11, 21, 31), 3.0),
    "normal_form": (_normal_form, (11, 21, 31), 3.0),
    "rref": (_rref, (11, 21, 31), 3.0),
    "inverse": (_inverse, (11, 21, 31), 3.0),
    "pfaffian_vector": (_pfaffian_vector, (11, 21, 31), 3.0),
}


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("layer", sorted(GROWTH))
def test_growth_exponent(products, layer, degree):
    build, sizes, exponent = GROWTH[layer]
    counts = [products(build(GF(degree), n))[0] for n in sizes]
    for (n1, c1), (n2, c2) in zip(zip(sizes, counts), zip(sizes[1:], counts[1:])):
        measured = math.log(c2 / c1) / math.log(n2 / n1)
        assert measured <= exponent + 0.25, (layer, degree, n1, n2, counts)
