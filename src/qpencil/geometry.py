"""The base locus X = V(q0, q1): the canonical plane, quasi-splitness,
and the 2^(2m) generators.

Each is read off the pair's structure (the half-discriminant, the Kronecker
frame, the pair group), and the plane and the generators are checked to lie
on X.  The quasi-split degree comes from one analysis: over GF(2^(k j)) a
component F_i of A (degree d_i) is gcd(d_i, j) copies of one field F, where
wp(F) = ker Tr_{F/F_2}, so the traces of r on the F_i decide every level,
and an odd base extension keeps them.  The splitting degree, and whether
every point of P^1(GF(2^(k j))) is a root of Delta, are read off the factor
degrees of Pencil.delta_algebra; no field is scanned.  The generators are
found on the pencil over ext (Pencil.over), which must split Delta
(Pencil.split_roots) and kill the r-coset.  The brute-force scans of X
that check these answers (its points, its lines, and the singular-point
scan behind the regularity criterion) live in `verify`.
"""

from __future__ import annotations

import math
from itertools import count

from .autos import group_generators, pair_algebra
from .errors import PreconditionError
from .field import GF, Field
from .linalg import mat_mul, mat_vec, normalize_subspace, nullspace, rank
from .pencil import Pencil
from .quadform import is_totally_isotropic


# ---------------------------------------------------------------------------
# the canonical (m-2)-plane


class CanonicalPlane:
    l0: tuple  # sqrt(a_{2i}) coefficients on W
    l1: tuple  # sqrt(a_{2i+1}) coefficients on W
    point_basis: tuple  # m-1 vectors in E spanning the plane

    def __init__(self, l0: tuple, l1: tuple, point_basis: tuple):
        self.l0, self.l1, self.point_basis = l0, l1, point_basis


def canonical_plane(p: Pencil) -> CanonicalPlane:
    """The plane {l0 = l1 = 0} inside |W|, where l0^2 = q0|_W and
    l1^2 = q1|_W; defined over the base field because GF(2^k) is perfect.
    Lies on X and has projective dimension m - 2 (so m >= 2 is required)."""
    p.require_regular()
    if p.m < 2:
        raise PreconditionError("the canonical plane is empty for m < 2")
    gf = p.gf
    a = p.half_discriminant()
    m = p.m
    l0 = [gf.sqrt(a[2 * i]) for i in range(m + 1)]
    l1 = [gf.sqrt(a[2 * i + 1]) for i in range(m + 1)]
    if rank(gf, [l0, l1]) != 2:
        raise AssertionError(
            "l0 and l1 proportional would force Delta(T,1) = (T+c^2) g(T^2), "
            "contradicting separability"
        )
    ws = p.radical_map()
    # the solutions are coordinates inside W
    basis = mat_mul(gf, nullspace(gf, [l0, l1]), ws)
    if len(basis) != m - 1:
        raise AssertionError("canonical plane has the wrong dimension")
    if not (is_totally_isotropic(p.q0, basis) and is_totally_isotropic(p.q1, basis)):
        raise AssertionError("canonical plane not contained in X")
    return CanonicalPlane(tuple(l0), tuple(l1), tuple(tuple(v) for v in basis))


# ---------------------------------------------------------------------------
# quasi-splitness


def splitting_degree(p: Pencil) -> int:
    """Degree of the splitting field of Delta over k: lcm of the factor degrees."""
    return math.lcm(*(len(f) - 1 for f in p.delta_algebra().factors))


def _all_roots(p: Pencil, j: int) -> bool:
    """Whether all q^j + 1 points of P^1(GF(q^j)), q = 2^k, are roots of Delta:
    a factor of degree d | j has its d roots there, and a_n = 0 adds (0, 1)."""
    found = sum(len(f) - 1 for f in p.delta_algebra().factors if j % (len(f) - 1) == 0)
    return (p.half_discriminant()[p.n] == 0) + found == (1 << p.gf.degree * j) + 1


def quasi_split_over(p: Pencil) -> tuple[int, Field]:
    """Smallest extension degree j where the r-coset dies, with that
    extension, skipping levels where every point of P^1 is a root of Delta.
    One analysis, over k or over GF(2^(k b)) for the least odd b with a
    non-root, gives the d_i and t_i: the coset dies over GF(2^(k j)) exactly
    when ((j/g_i) t_i mod 2)_i is 0 or ((d_i/g_i) mod 2)_i, g_i = gcd(d_i, j).
    Summing (r e_i)^(2^s) over s < k d_i gives t_i e_i, t_i's certificate."""
    b = next(b for b in count(1, 2) if not _all_roots(p, b))
    an = pair_algebra(p.over(GF(p.gf.degree * b)))
    alg, degrees, traces = an.algebra, [len(f) - 1 for f in an.algebra.factors], []
    for d, e in zip(degrees, alg.idempotents):
        x = acc = alg.mul(an.r_value, e)
        for _ in range(alg.gf.degree * d - 1):  # acc = x + x^2 + ... + x^(2^s)
            acc = alg.add(alg.square(acc), x)
        if acc not in (alg.zero(), e):
            raise AssertionError("component trace is neither 0 nor 1")
        traces.append(int(acc == e))
    for j in range(1, 2 * math.lcm(*degrees) + 1):
        g = [math.gcd(d, j) for d in degrees]
        odd = [j // gi * t % 2 for gi, t in zip(g, traces)]
        constant = [d // gi % 2 for d, gi in zip(degrees, g)]
        if (not any(odd) or odd == constant) and not _all_roots(p, j):
            return j, GF(p.gf.degree * j)
    raise AssertionError("the coset survived j = 2^(max v2(d_i) + 1) <= 2 lcm(d_i)")


# ---------------------------------------------------------------------------
# generators


def enumerate_generators(p: Pencil, ext: Field) -> list[tuple]:
    """All 2^(2m) generators of X over ext, as the simply transitive orbit
    of one Kronecker complement under the pair automorphisms: generator i
    is its image under element i of automorphism_group (bit mask i).  A
    generator is an (m-1)-dimensional projective subspace on X, stored as
    the canonical echelon basis (rref rows) of its m-dimensional span.

    Needs ext to split Delta (so the orbit has full size) and to kill the
    r-coset (so one generator exists to start from)."""
    pe = p.over(ext)
    pe.split_roots()
    b0 = pair_algebra(pe).r0_frame
    if b0 is None:
        j, needed = quasi_split_over(p)
        raise PreconditionError(
            f"X is not quasi-split over {ext!r}; degree {j} over the base "
            f"field ({needed!r}) suffices"
        )
    gf = ext
    m, n = pe.m, pe.n
    lam = [
        [b0[r][m + 1 + j] for r in range(n)] for j in range(m)
    ]  # columns v_0..v_{m-1} of the r = 0 frame
    # only the first generator is checked: the others are its images under
    # the group that group_generators certified.  Element i is I plus the
    # xor of the N_b over the bits b of i, so the vectors of generator i are
    # those of the first plus the xor of the N_b v.
    if not (is_totally_isotropic(pe.q0, lam) and is_totally_isotropic(pe.q1, lam)):
        raise AssertionError("generator span leaves X")
    first = normalize_subspace(gf, lam)
    spans = [first]
    for g in group_generators(pe):
        moved = [[x ^ y for x, y in zip(mat_vec(gf, g.matrix, v), v)] for v in first]
        spans += [[[x ^ y for x, y in zip(u, w)] for u, w in zip(span, moved)]
                  for span in spans]
    images = [normalize_subspace(gf, span) for span in spans]
    if len(set(images)) != len(images):
        raise AssertionError("automorphism orbit of the generator collides")
    if len(images) != 1 << (2 * m):
        raise AssertionError("generator count differs from 2^(2m)")
    return images
