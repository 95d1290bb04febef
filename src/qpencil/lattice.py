"""The integral lattice of middle-dimensional cycle classes.

Intersection numbers come from the projective dimension r of the measured
linear intersection of two generators, each the echelon basis of its span
as enumerate_generators returns it: the pairing is
(-1)^r (floor(r/2) + 1), zero for disjoint generators.  Only the first
generator is measured against the others, giving d; by the group law of
the pair group every other pairing, the presentation Gram's included, is an
entry of d (see build_lattice).  eta^(m-1) pairs to
1 with every generator class and to 4 (the degree of a complete
intersection of two quadrics) with itself; that last value is needed to
close the Gram matrix and makes the root basis exactly orthogonal to
eta^(m-1).

All classes are expressed over the presentation basis

    (eta^(m-1), [L_empty], [L_1], ..., [L_{2m+1}])

with L_i the image of L_empty under the i-th reflection.  On
e_0 = eta^(m-1) - [L_empty], e_i = [L_i], the classes

    alpha_0 = -e_0 + [L_empty] + e_2m + e_{2m+1},  alpha_i = e_i - e_{i+1}

realize a root basis of type D_{2m+1} up to the global sign (-1)^(m-1).
([L_empty] itself is an integral combination of the e_i for m = 2 but not
for every m, so nothing here relies on that expansion.)
"""

from __future__ import annotations

from .autos import Reflection, apply_to_subspace
from .errors import PreconditionError
from .field import Field
from .geometry import enumerate_generators
from .linalg import intersect_dim
from .pencil import Pencil

DEGREE_OF_X = 4  # two quadrics: eta^(m-1) . eta^(m-1)
ETA_DOT_GENERATOR = 1  # a generator is a linear subspace


def intersection_number(gf: Field, g1: tuple, g2: tuple) -> int:
    """[L_1].[L_2] from the measured intersection dimension of two
    generators over gf."""
    r = intersect_dim(gf, g1, g2) - 1  # projective dimension
    return pairing_value(r)


def pairing_value(r: int) -> int:
    """(-1)^r (floor(r/2) + 1) for r >= 0; disjoint generators pair to 0."""
    if r < 0:
        return 0
    return (-1) ** r * (r // 2 + 1)


class CycleLattice:
    m: int
    gram: tuple  # (2m+2) x (2m+2) on the basis (e_0, ..., e_{2m+1})
    lam_empty_in_e: tuple | None  # [L_empty] in e-coordinates, when integral
    gram_alpha: tuple  # on the root basis alpha_0 .. alpha_2m
    line_gram: tuple  # full pairwise matrix of all 2^(2m) generator classes

    def __init__(self, m: int, gram: tuple, lam_empty_in_e: tuple | None,
                 gram_alpha: tuple, line_gram: tuple):
        self.m, self.gram, self.lam_empty_in_e = m, gram, lam_empty_in_e
        self.gram_alpha, self.line_gram = gram_alpha, line_gram

    @property
    def rank(self) -> int:
        return 2 * self.m + 2


def cartan_d(m: int) -> list:
    """Cartan matrix of D_{2m+1} in the ordering of the alpha basis above:
    nodes 1..2m form the chain and node 0 forks off node 2m-1."""
    size = 2 * m + 1
    edges = {(i, i + 1) for i in range(1, 2 * m)} | {(0, 2 * m - 1)}
    c = [[0] * size for _ in range(size)]
    for i in range(size):
        c[i][i] = 2
    for i, j in edges:
        c[i][j] = -1
        c[j][i] = -1
    return c


def build_lattice(d: list, lam_singles: list[int], m: int) -> CycleLattice:
    """Assemble the cycle lattice from the measured pairings
    d[i] = [L_0].[L_i] of the enumerated generators (in the order of
    enumerate_generators, L_0 = L_empty).

    lam_singles[i-1] is the index of the image of L_empty under the i-th
    reflection.  The generator L_i is the image of L_0 under element i of the
    elementary abelian automorphism_group (g_i g_j = g_(i^j), so
    g_i^-1 = g_i), hence L_i meets L_j as L_0 meets L_(i^j): every pairing,
    of the presentation and of line_gram, is d[i ^ j]."""
    n = 2 * m + 1
    if len(lam_singles) != n:
        raise PreconditionError(
            f"need {n} reflected generators, got {len(lam_singles)}"
        )
    size = n + 2  # presentation: eta, lam_empty, lam_1..lam_n

    pres = [[0] * size for _ in range(size)]
    pres[0][0] = DEGREE_OF_X
    lams = [0] + list(lam_singles)
    for i, a in enumerate(lams):
        pres[0][1 + i] = pres[1 + i][0] = ETA_DOT_GENERATOR
        for j, b in enumerate(lams):
            pres[1 + i][1 + j] = d[a ^ b]

    def pair(x, y):
        acc = 0
        for i, xi in enumerate(x):
            if xi:
                row = pres[i]
                for j, yj in enumerate(y):
                    if yj:
                        acc += xi * row[j] * yj
        return acc

    eta = _unit(size, 0)
    lam0 = _unit(size, 1)
    e_classes = [[1, -1] + [0] * n]  # e_0 = eta - lam_empty
    for i in range(n):
        e_classes.append(_unit(size, 2 + i))

    gram_e = [[pair(x, y) for y in e_classes] for x in e_classes]

    alphas = []
    a0 = [-x + l for x, l in zip(e_classes[0], lam0)]
    a0 = [x + y + z for x, y, z in zip(a0, e_classes[n - 1], e_classes[n])]
    alphas.append(a0)
    for i in range(1, n):
        alphas.append([x - y for x, y in zip(e_classes[i], e_classes[i + 1])])

    gram_alpha = [[pair(x, y) for y in alphas] for x in alphas]
    for x in alphas:
        if pair(x, eta) != 0:
            raise AssertionError("root basis is not orthogonal to eta^(m-1)")

    lam_in_e = _try_integer_solve(gram_e, [pair(lam0, e) for e in e_classes])

    return CycleLattice(
        m,
        tuple(tuple(r) for r in gram_e),
        lam_in_e,
        tuple(tuple(r) for r in gram_alpha),
        tuple(tuple(d[i ^ j] for j in range(len(d))) for i in range(len(d))),
    )


def _unit(size: int, i: int) -> list:
    v = [0] * size
    v[i] = 1
    return v


def _try_integer_solve(gram: list, rhs: list):
    """x with gram x = rhs over the integers, or None."""
    from fractions import Fraction  # on first use: other CLI calls never load it

    n = len(gram)
    a = [
        [Fraction(x) for x in row] + [Fraction(rhs[i])]
        for i, row in enumerate(gram)
    ]
    for c in range(n):
        sel = next((i for i in range(c, n) if a[i][c] != 0), None)
        if sel is None:
            return None
        a[c], a[sel] = a[sel], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = []
    for i in range(n):
        v = a[i][n]
        if v.denominator != 1:
            return None
        out.append(int(v))
    return tuple(out)


def lattice_for(p: Pencil, ext: Field, refl: list[Reflection]) -> CycleLattice:
    """Orchestrate: enumerate generators over ext, measure the pairing of
    the first with each, index the reflection images of the first by their
    generator index, and build the lattice."""
    gens = enumerate_generators(p, ext)
    index = {g: i for i, g in enumerate(gens)}
    lam_singles = []
    for r in refl:
        span = apply_to_subspace(ext, r.matrix, gens[0])
        if span not in index:
            raise AssertionError("reflection image is not an enumerated generator")
        lam_singles.append(index[span])
    d = [intersection_number(ext, gens[0], g) for g in gens]
    return build_lattice(d, lam_singles, p.m)
