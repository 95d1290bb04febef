"""The base locus X = V(q0, q1): points, smoothness, canonical plane,
quasi-splitness, and the 2^(2m) generators.

The smoothness oracle never trusts the half-discriminant criterion: a point
x of X is singular iff the rows b0(x, .), b1(x, .) are dependent, i.e. x
lies in the radical of some member.  Candidate members are the projective
roots of Delta (or every member when Delta vanishes identically), so the
scan walks roots over extensions, their radicals, and small projective
spaces inside those radicals; in characteristic 2 the gradient of q at x
is b(x, .), so no symbolic differentiation is needed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import poly
from .autos import group_generators, pair_algebra
from .errors import PreconditionError
from .field import GF, Field, find_embedding
from .linalg import mat_mul, mat_vec, normalize_subspace, nullspace, rank
from .pencil import Pencil
from .quadform import is_totally_isotropic

_SCAN_LIMIT = 10**8


def proj_points(gf: Field, n: int):
    """Normalized representatives of P^(n-1)(gf): first nonzero entry 1."""
    for lead in range(n):
        tail = n - lead - 1
        for rest in itertools.product(gf.elements(), repeat=tail):
            yield [0] * lead + [1] + list(rest)


def proj_count(q: int, n: int) -> int:
    return (q**n - 1) // (q - 1)


def points_on_X(p: Pencil, ext: Field) -> list:
    """All projective points of X over ext, by exhaustive scan."""
    total = proj_count(ext.order, p.n)
    if total > _SCAN_LIMIT:
        raise PreconditionError(
            f"scan of {total} projective points exceeds the {_SCAN_LIMIT} limit"
        )
    emb = find_embedding(p.gf, ext)
    pe = p.map_field(emb)
    q0, q1 = pe.q0, pe.q1
    return [tuple(x) for x in proj_points(ext, p.n) if q0(x) == 0 and q1(x) == 0]


def smoothness_oracle(p: Pencil, max_ext_degree: int) -> bool:
    """Brute-force smoothness of X over extensions of degree <= max_ext_degree.

    Singular points sit inside radicals of degenerate members, so the scan
    visits each projective root of Delta over each extension, and inside a
    corank >= 3 radical scans the small projective space cut out there.  A
    vanishing Delta falls back to scanning every member of the pencil.
    """
    a = p.half_discriminant()
    base = p.gf
    if all(c == 0 for c in a):
        for d in range(1, max_ext_degree + 1):
            ext = GF(base.degree * d)
            if _singular_among(p, ext, None):
                return False
        return True
    for d in range(1, max_ext_degree + 1):
        ext = GF(base.degree * d)
        roots = poly.bf_projective_roots(ext, find_embedding(base, ext).map_vec(a))
        if roots and _singular_among(p, ext, roots):
            return False
    return True


def _singular_among(p: Pencil, ext: Field, members) -> bool:
    emb = find_embedding(p.gf, ext)
    pe = p.map_field(emb)
    g0, g1 = pe.q0.polar(), pe.q1.polar()
    if members is None:
        members = [(1, c) for c in ext.elements()] + [(0, 1)]
    for (l, u) in members:
        gram = [
            [ext.mul(l, x) ^ ext.mul(u, y) for x, y in zip(r0, r1)]
            for r0, r1 in zip(g0, g1)
        ]
        rad = nullspace(ext, gram)
        if not rad:
            continue
        if len(rad) == 1:
            x = rad[0]
            if pe.q0(x) == 0 and pe.q1(x) == 0:
                return True
            continue
        for coords in proj_points(ext, len(rad)):
            x = mat_mul(ext, [coords], rad)[0]
            if pe.q0(x) == 0 and pe.q1(x) == 0:
                return True
    return False


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


def brute_force_lines(p: Pencil, ext: Field) -> list[tuple]:
    """All lines on X(ext) for m = 2, from pairs of points: the line through
    two points of X lies on X iff both polar pairings vanish."""
    if p.m != 2:
        raise PreconditionError("line enumeration is the m = 2 oracle")
    emb = find_embedding(p.gf, ext)
    pe = p.map_field(emb)
    pts = points_on_X(p, ext)
    lines = set()
    for i in range(len(pts)):
        xi = list(pts[i])
        for j in range(i + 1, len(pts)):
            xj = list(pts[j])
            if pe.q0.polar_pair(xi, xj) == 0 and pe.q1.polar_pair(xi, xj) == 0:
                lines.add(normalize_subspace(ext, [xi, xj]))
    return sorted(lines)
