"""Growth exponents of the layers, from field-product counts.

Product counts are exact and do not depend on the host, so the exponent
between two sizes, log(c2 / c1) / log(n2 / n1), states a growth rate that
wall time on a shared machine cannot.  Each entry of GROWTH gives a layer's
input builder (a field, a dimension and a random stream to a function that
runs the layer once, fresh), its sizes and its stated exponent; the test
asserts that every log-ratio over consecutive sizes is at most the
exponent plus 0.25, for each field degree in DEGREES.  An entry of
GROWTH_IN_K does the same over the field degree k at one dimension.  A
change that fixes a growth rate lowers its entry.

The count at a size is the sum over DRAWS[degree] inputs, drawn in turn
from random.Random(n).  A count depends on which entries are nonzero, and
a uniform entry is zero with probability 2^-k.  Over GF(2) one draw's
ratio can read 0.2 away from its mean, and an elimination's count has a
negative n^2 term, so its mean ratio from 11 to 21 already reads 3.2 for
a cubic elimination; over GF(2^8) and GF(2^32) one draw reads its mean
to within 0.05.  Sizes from 21 up and twelve draws over GF(2) measure
the growth rate rather than the draw.
"""

import math
import random

import pytest

from qpencil import poly
from qpencil.algebra import EtaleAlgebra
from qpencil.field import GF, p2_is_irreducible
from qpencil.linalg import inverse, mat_mul, rank, rref
from qpencil.normalform import extract_normal_form
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm, pfaffian_vector
from qpencil.verify import random_regular_nf_pencil, random_separable_poly

DEGREES = (1, 8, 32)
DRAWS = {1: 12, 8: 1, 32: 1}
SIZES = (21, 31, 41)


def _radical_map(gf, n, rng):
    p = random_regular_nf_pencil(gf, n // 2, rng)
    return Pencil(p.q0, p.q1).radical_map


def _half_discriminant(gf, n, rng):
    # the radical map is computed here, so only W (U W^T) is counted
    p = random_regular_nf_pencil(gf, n // 2, rng)
    fresh = Pencil(p.q0, p.q1)
    fresh.radical_map()
    return fresh.half_discriminant


def _normal_form(gf, n, rng):
    # Omega, Delta and the regularity verdict are computed here, so the
    # two transforms, the Kronecker completion and the round-trip
    # certificate are counted
    p = random_regular_nf_pencil(gf, n // 2, rng)
    fresh = Pencil(p.q0, p.q1)
    fresh.is_regular()
    return lambda: extract_normal_form(fresh)


def _square(gf, n, rng):
    return [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]


def _mat_mul(gf, n, rng):
    a, b = _square(gf, n, rng), _square(gf, n, rng)
    return lambda: mat_mul(gf, a, b)


def _invertible(gf, n, rng):
    while True:
        a = _square(gf, n, rng)
        if rank(gf, a) == n:
            return a


def _rref(gf, n, rng):
    # an invertible draw, as inverse gets: a uniform one over GF(2) is
    # singular often, and its count grows faster than n^3 at these sizes
    a = _invertible(gf, n, rng)
    return lambda: rref(gf, a)


def _inverse(gf, n, rng):
    a = _invertible(gf, n, rng)
    return lambda: inverse(gf, a)


def _pfaffian_vector(gf, n, rng):
    # an odd-size alternating matrix: zero diagonal, symmetric
    u = _square(gf, n, rng)
    gram = [[u[min(i, j)][max(i, j)] if i != j else 0 for j in range(n)] for i in range(n)]
    return lambda: pfaffian_vector(gf, gram)


def _transform(gf, n, rng):
    q = QuadraticForm.from_table(gf, n, {
        (i, j): rng.randrange(gf.order) for i in range(n) for j in range(i, n)})
    g = _square(gf, n, rng)
    return lambda: q.transform(g)


def _divmod(gf, d, rng):
    # degree 2d by degree d: d + 1 quotient steps of d + 1 products
    a = [rng.randrange(gf.order) for _ in range(2 * d)] + [1]
    b = [rng.randrange(gf.order) for _ in range(d)] + [rng.randrange(1, gf.order)]
    return lambda: poly.divmod_(gf, a, b)


def _square_mod(gf, d, rng):
    # every coefficient of h nonzero, so every row of the table is used
    m = [rng.randrange(gf.order) for _ in range(d)] + [rng.randrange(1, gf.order)]
    table = poly.square_table(gf, m)
    h = [rng.randrange(1, gf.order) for _ in range(d)]
    return lambda: poly.square_mod(gf, h, table)


def _coset_build(gf, d, rng):
    # the squaring table of f is built here, so the hard columns' kernel
    # calls are counted: k calls over about d/2 rows of d entries
    algebra = EtaleAlgebra(gf, tuple(random_separable_poly(gf, d, rng)))
    algebra._square_table
    return lambda: algebra._coset_pivots


def _irreducible_over_gf2(e, rng):
    """A random irreducible of odd degree e over GF(2); it stays irreducible
    over GF(2^k) for k a power of two, as gcd(e, k) = 1."""
    while True:
        m = 1 << e | rng.getrandbits(e) | 1
        if p2_is_irreducible(m):
            return [m >> i & 1 for i in range(e + 1)]


def _factor(gf, n, rng):
    # the fixed factor-degree pattern (1, 1, 3, 3, n - 8), so that sizes
    # compare: T, T + 1, the two irreducible cubics of GF(2) and a random
    # irreducible of degree n - 8, moved by a random T -> a T + c so that
    # the coefficients are dense; both splitting stages run
    f = [1]
    for part in ([0, 1], [1, 1], [1, 1, 0, 1], [1, 0, 1, 1], _irreducible_over_gf2(n - 8, rng)):
        f = poly.mul(gf, f, part)
    f = poly.bf_substitute(gf, f, [[1, 0], [rng.randrange(gf.order), rng.randrange(1, gf.order)]])
    return lambda: poly.factor(gf, f)


# layer: (input builder, sizes n, stated exponent)
GROWTH = {
    "radical_map": (_radical_map, SIZES, 3.0),
    "mat_mul": (_mat_mul, SIZES, 3.0),
    "transform": (_transform, SIZES, 3.0),
    "half_discriminant": (_half_discriminant, SIZES, 3.0),
    "normal_form": (_normal_form, SIZES, 3.0),
    "rref": (_rref, SIZES, 3.0),
    "inverse": (_inverse, SIZES, 3.0),
    "pfaffian_vector": (_pfaffian_vector, SIZES, 3.0),
    "divmod": (_divmod, SIZES, 2.0),
    "square_mod": (_square_mod, SIZES, 2.0),
    "coset_build": (_coset_build, SIZES, 2.0),
    "factor": (_factor, SIZES, 3.9),
}

# layer: (input builder, n, field degrees k, draws per k, stated exponent
# in k); only the first degree step of factor still takes k squarings
GROWTH_IN_K = {
    "factor": (_factor, 31, (16, 32, 64), 2, 0.5),
}


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("layer", sorted(GROWTH))
def test_growth_exponent(products, layer, degree):
    build, sizes, exponent = GROWTH[layer]
    gf = GF(degree)
    counts = []
    for n in sizes:
        rng = random.Random(n)
        counts.append(sum(products(build(gf, n, rng))[0] for _ in range(DRAWS[degree])))
    for (n1, c1), (n2, c2) in zip(zip(sizes, counts), zip(sizes[1:], counts[1:])):
        measured = math.log(c2 / c1) / math.log(n2 / n1)
        assert measured <= exponent + 0.25, (layer, degree, n1, n2, counts)


@pytest.mark.parametrize("layer", sorted(GROWTH_IN_K))
def test_growth_exponent_in_k(products, layer):
    build, n, degrees, draws, exponent = GROWTH_IN_K[layer]
    counts = []
    for k in degrees:
        rng = random.Random(k)
        counts.append(sum(products(build(GF(k), n, rng))[0] for _ in range(draws)))
    for (k1, c1), (k2, c2) in zip(zip(degrees, counts), zip(degrees[1:], counts[1:])):
        measured = math.log(c2 / c1) / math.log(k2 / k1)
        assert measured <= exponent + 0.25, (layer, k1, k2, counts)
