"""The base locus X = V(q0, q1): the canonical plane, quasi-splitness,
and the 2^(2m) generators.

Each is read off the pair's structure (the half-discriminant, the
Kronecker frame, the pair group), and the plane and the generators are
checked to lie on X.  The brute-force scans of X that check these answers
(its points, its lines, and the singular-point scan behind the regularity
criterion) live in `verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import poly
from .autos import group_generators, pair_algebra
from .errors import PreconditionError
from .field import GF, Field, find_embedding
from .linalg import mat_mul, mat_vec, normalize_subspace, nullspace, rank
from .pencil import Pencil
from .quadform import is_totally_isotropic


# ---------------------------------------------------------------------------
# the canonical (m-2)-plane


@dataclass(frozen=True)
class CanonicalPlane:
    l0: tuple  # sqrt(a_{2i}) coefficients on W
    l1: tuple  # sqrt(a_{2i+1}) coefficients on W
    point_basis: tuple  # m-1 vectors in E spanning the plane


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
    """Degree over the base field of the splitting field of Delta."""
    a = p.half_discriminant()
    f = poly.trim(list(a))
    return math.lcm(*(len(g) - 1 for g, _ in poly.factor(p.gf, f)))


def quasi_split_over(p: Pencil) -> tuple[int, tuple, Field]:
    """Smallest scanned extension degree j where the r-coset dies, with the
    Artin-Schreier witness s over that extension.  Finite fields always
    terminate: after splitting Delta, one quadratic step kills every
    absolute-trace obstruction."""
    p.require_regular()
    bound = 2 * splitting_degree(p)
    for j in range(1, bound + 1):
        ext = GF(p.gf.degree * j)
        try:
            an = pair_algebra(p.map_field(find_embedding(p.gf, ext)))
        except PreconditionError:
            continue  # every point of P^1(ext) is a root of Delta
        if an.witness is not None:
            return j, an.witness, ext
    raise AssertionError("no quasi-splitting extension within twice the "
                         "splitting degree")


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generator:
    """An (m-1)-dimensional projective subspace on X, stored as the canonical
    echelon basis of its m-dimensional linear span."""

    gf: Field
    basis: tuple  # rref rows


def enumerate_generators(p: Pencil, ext: Field) -> list[Generator]:
    """All 2^(2m) generators of X over ext, as the simply transitive orbit
    of one Kronecker complement under the pair automorphisms: generator i
    is its image under element i of automorphism_group (bit mask i).

    Needs ext to split Delta (so the orbit has full size) and to kill the
    r-coset (so one generator exists to start from)."""
    pe = p.map_field(find_embedding(p.gf, ext))
    pe.require_regular()
    if len(pe.projective_roots()) != p.n:
        raise PreconditionError(
            f"{ext!r} does not split Delta; generators would be missing"
        )
    b0 = pair_algebra(pe).r0_frame
    if b0 is None:
        j, _, needed = quasi_split_over(p)
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
    return [Generator(gf, span) for span in images]
