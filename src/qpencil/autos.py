"""Automorphisms of pairs and of the base locus X.

Additive elements s of the algebra act on a Kronecker frame through the
unipotent block matrix [[I, S], [0, I]] whose upper-right block is the
catalecticant Cat(s_0, ..., s_{2m-1}); the map phi is a homomorphism from
(A, +) with kernel exactly the constants.  Idempotents of A give the
automorphisms of the pair itself, an elementary abelian 2-group R built
from its l - 1 certified generators by that law (automorphism_group);
over a splitting field these are the n reflections at the singular points
of the degenerate members.  Aut(X) is R x| G, for G the symmetries of the
root divisor of the half-discriminant in PGL2, each read off a triple of
roots (delta_stabilizer) and lifted to GL(E); its table follows from R's
xor law, the conjugation of R by the lifts and their products (aut_x).
Each lift is a block matrix in the r = 0 frame, built from
poly.bf_substitution_matrix; it needs no correction, and substitution is
its one certificate (see _lift_one).  That frame is B U(s) for the witness
s, and it and its inverse U(s) B^-1 are read off the blocks of U(s) and
the normal form's one inverse of its basis B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import poly
from .algebra import EtaleAlgebra
from .errors import PreconditionError
from .field import Field
from .linalg import (identity, inverse, mat_mul, mat_vec, normalize_subspace, transpose,
                     vec_scale)
from .normalform import NormalForm, extract_normal_form
from .pencil import Pencil


@dataclass(frozen=True)
class AutomorphismRep:
    """phi(s) for an algebra element s: a matrix in the pencil's coordinates
    whose Kronecker-frame shape is [[I, S], [0, I]] with S catalecticant."""

    s_coeffs: tuple  # d-coordinates s_0..s_{n-2}
    matrix: tuple


def catalecticant(m: int, s: list) -> list:
    """Cat(s_0, ..., s_{2m-1}): the (m+1) x m block S[k][j] = s_{j+k}."""
    return [[s[k + j] for j in range(m)] for k in range(m + 1)]


def frame_times_u(nf: NormalForm, cat: list) -> list:
    """B U(s) = [B_w | B_v + B_w Cat(s)] for U(s) = [[I, Cat(s)], [0, I]]
    and B = nf.basis: the v-columns moved by the w-columns."""
    m = nf.m
    corr = mat_mul(nf.gf, [row[: m + 1] for row in nf.basis], cat)
    return [list(row[: m + 1]) + [x ^ y for x, y in zip(row[m + 1:], c)]
            for row, c in zip(nf.basis, corr)]


def phi(algebra: EtaleAlgebra, nf: NormalForm, s: tuple) -> AutomorphismRep:
    """phi(s) conjugated into the original coordinates of nf's pencil:
    B [[I, S], [0, I]] B^-1 = I + B_w S (B^-1)_v, with B_w the first m+1
    columns of the Kronecker basis B and (B^-1)_v the last m rows of B^-1."""
    m = nf.m
    s_coords = list(algebra.d_coords(s))[: algebra.n - 1]
    cat = catalecticant(m, s_coords)
    b_w = [row[: m + 1] for row in nf.basis]
    nil = mat_mul(nf.gf, mat_mul(nf.gf, b_w, cat), nf.inverse[m + 1:])
    return AutomorphismRep(
        tuple(s_coords),
        tuple(tuple(x ^ (r == c) for c, x in enumerate(row)) for r, row in enumerate(nil)),
    )


@dataclass(frozen=True)
class PairAnalysis:
    """The normal form (a; r) of a regular pencil in a frame with a_n != 0,
    with the algebra it lives in.  The r-invariant, the Artin-Schreier
    witness of its coset and the r = 0 frame are computed on first use."""

    pencil: Pencil  # the moved pencil: a_n != 0
    gl2: tuple  # the GL(2) move onto `pencil` from the pencil first analysed
    nf: NormalForm  # of `pencil`

    @property
    def algebra(self) -> EtaleAlgebra:
        """k[T]/(Delta(1, T)), the moved pencil's own cached algebra."""
        return self.pencil.delta_algebra()

    @cached_property
    def r_value(self) -> tuple:
        """The r-invariant sum r_i d_i as an element of the algebra."""
        return self.algebra.from_d_coords(list(self.nf.r) + [0])

    @cached_property
    def witness(self):
        """s with wp(s) + c = r_value for a constant c, or None when the
        r-coset survives over this field (X is not quasi-split)."""
        return self.algebra.solve_artin_schreier(self.r_value)

    @cached_property
    def r0_frame(self):
        """Basis matrix (columns w_0..w_m, v_0..v_{m-1}) in which the pair
        reads as the normal form with r = 0, or None without a witness.
        That is B phi(s)^-1 = B U(s), since U(s) = [[I, Cat(s)], [0, I]] is
        its own inverse in characteristic 2."""
        if self.witness is None:
            return None
        cat = catalecticant(self.nf.m, self.algebra.d_coords(self.witness))
        return frame_times_u(self.nf, cat)

    @cached_property
    def r0_frame_inverse(self):
        """r0_frame^-1 = U(s) B^-1 = [(B^-1)_w + Cat(s) (B^-1)_v ; (B^-1)_v]
        when there is a witness, from the basis's own inverse, for all the
        lifts of Aut(X)."""
        nf, m = self.nf, self.nf.m
        inv_w, inv_v = nf.inverse[: m + 1], nf.inverse[m + 1:]
        corr = mat_mul(nf.gf, catalecticant(m, self.algebra.d_coords(self.witness)), inv_v)
        return [[x ^ y for x, y in zip(r, c)] for r, c in zip(inv_w, corr)] + inv_v


def pair_algebra(p: Pencil) -> PairAnalysis:
    """The analysis of a regular pencil, built on the first call and kept on
    p and on the moved pencil.  When a_n = 0 it runs on the pencil moved by
    ensure_an_nonzero: a GL(2) change of pair basis changes neither the
    automorphisms nor the r-class."""
    if p._analysis is None:
        work, g = p.ensure_an_nonzero()
        an = PairAnalysis(work, tuple(tuple(row) for row in g), extract_normal_form(work))
        p._analysis = work._analysis = an
    return p._analysis


def group_generators(p: Pencil) -> list[AutomorphismRep]:
    """phi(eps_1), ..., phi(eps_(l-1)), for the idempotents of A but the
    first: each certified by substitution and, when there are two or more,
    the block (B^-1)_v B_w = 0 that makes their products xors is checked
    (see automorphism_group)."""
    an = pair_algebra(p)
    algebra, nf, m = an.algebra, an.nf, an.nf.m
    gens = [phi(algebra, nf, e) for e in algebra.idempotents[1:]]
    for g in gens:
        if p.q0.transform(g.matrix) != p.q0 or p.q1.transform(g.matrix) != p.q1:
            raise AssertionError("phi(idempotent) fails to preserve the pair")
    if len(gens) > 1:
        b_w = [row[: m + 1] for row in nf.basis]
        if any(any(row) for row in mat_mul(nf.gf, nf.inverse[m + 1:], b_w)):
            raise AssertionError("(B^-1)_v B_w != 0: phi is not additive")
    return gens


def automorphism_group(p: Pencil) -> list[AutomorphismRep]:
    """All automorphisms of the pair (q0, q1): phi of the idempotents of A,
    modulo the identification e ~ e + 1; the group has order 2^(l-1).

    Element i is phi of the sum of eps_(b+1) over the set bits b of the mask
    i (eps_0 is dropped to fix e ~ e + 1), so element 0 is the identity.
    The group law: phi(s) = I + N_s with N_s = B_w Cat(s) (B^-1)_v linear in
    s, and N_s N_t = 0 because (B^-1)_v B_w is an off-diagonal block of
    B^-1 B = I.  So (I + N_s)(I + N_t) = I + N_(s+t): the group is
    elementary abelian, element i is I plus the xor of the N of its bits,
    and its s-coordinates are xors as well.  Certificates:
    one substitution per generator and the block (B^-1)_v B_w = 0 checked
    once (group_generators); since q o (g h) = (q o g) o h, they certify
    every element, and the identity needs none."""
    n = p.n
    zero = (0,) * (n - 1)
    out = [AutomorphismRep(zero, tuple(tuple(r) for r in identity(n)))]
    for g in group_generators(p):
        nil = [tuple(x ^ (r == c) for c, x in enumerate(row)) for r, row in enumerate(g.matrix)]
        out += [AutomorphismRep(_xor(x.s_coeffs, g.s_coeffs), tuple(map(_xor, x.matrix, nil)))
                for x in out]
    return out


def _xor(u: tuple, v: tuple) -> tuple:
    return tuple(a ^ b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# reflections over a splitting field


@dataclass(frozen=True)
class Reflection:
    root: tuple  # (t0, t1), normalized projective root of Delta
    singular_vector: tuple
    matrix: tuple


def reflections(p: Pencil, ext: Field) -> list[Reflection]:
    """One involution per root of Delta over ext: the reflection fixing the
    polar hyperplane of the singular point z = Omega(root).

    The defining formula rho(v) = v + b_u(z, v) / q_u(z) * z uses an
    auxiliary member u; independence of that choice is checked by computing
    with two different members.  The product of all n reflections is the
    identity, and each equals phi of the idempotent of its linear factor.
    """
    pe = p.over(ext)
    out = []
    for (l, u) in pe.split_roots():
        z = pe.omega_at(l, u)
        candidates = [(1, 0), (0, 1), (1, 1)]
        mats = []
        for (lu, uu) in candidates:
            if (lu, uu) == (l, u):  # both normalized: equal iff proportional
                continue
            member = pe.member(lu, uu)
            qz = member(z)
            if qz == 0:
                raise AssertionError("singular vector lies on the base locus; "
                                     "pencil cannot be regular")
            # rho = I + z (b_u(z, .) / q_u(z)): one rank-one product
            coef = vec_scale(ext, mat_vec(ext, member.polar(), z), ext.inv(qz))
            outer = mat_mul(ext, [[x] for x in z], [coef])
            mats.append([[x ^ (r == c) for c, x in enumerate(row)]
                         for r, row in enumerate(outer)])
            if len(mats) == 2:
                break
        if mats[0] != mats[1]:
            raise AssertionError("reflection depends on the auxiliary member")
        out.append(
            Reflection((l, u), tuple(z), tuple(tuple(r) for r in mats[0]))
        )
    return out


def reflections_match_idempotents(p: Pencil, ext: Field, refl: list) -> bool:
    """phi(eps_i) = rho_i for the idempotent of each split linear factor,
    given the reflections(p, ext)."""
    by_root = {}
    for r in refl:
        if r.root[0] == 0:
            return False  # a_n = 0: no idempotent matches the infinite root
        by_root[ext.div(r.root[1], r.root[0])] = r
    an = pair_algebra(p.over(ext))
    for fi, e in zip(an.algebra.factors, an.algebra.idempotents):
        if len(fi) != 2:
            return False  # ext does not split Delta after all
        alpha = ext.div(fi[0], fi[1])
        if phi(an.algebra, an.nf, e).matrix != by_root[alpha].matrix:
            return False
    return True


# ---------------------------------------------------------------------------
# Aut(X) = R x| G over a quasi-split splitting field


@dataclass(frozen=True)
class AutXGroup:
    ext: Field
    pair_autos: tuple  # R: matrices over ext (includes the identity)
    g_elements: tuple  # 2x2 matrices over ext, normalized representatives
    g_lifts: tuple  # one lift in GL(E) per G element, pair-exact
    elements: tuple  # all |R| * |G| projective classes, deduplicated
    mult_table: tuple  # indices into elements

    @property
    def order(self) -> int:
        return len(self.elements)


def pgl2_elements(gf: Field):
    """Representatives of PGL2(gf), first nonzero entry 1, in lexicographic
    order: the oracle that verify's AX check filters for G."""
    return [[[a, b], [c, d]] for a in (0, 1) for b in (gf.elements() if a else (1,))
            for c in gf.elements() for d in gf.elements() if gf.mul(a, d) ^ gf.mul(b, c)]


def delta_stabilizer(p: Pencil, ext: Field) -> list:
    """Elements of PGL2(ext) permuting the projective roots of Delta, sorted,
    which is the order of pgl2_elements.  PGL2 is sharply 3-transitive on
    P^1, so the one map taking the first three roots p to an ordered triple
    q of distinct roots is F_q F_p^-1 (see _three_point_frame): each
    element is one of the n(n-1)(n-2) candidates, kept when it maps the
    roots onto themselves."""
    pts = p.over(ext).split_roots()
    f_p_inv = inverse(ext, _three_point_frame(ext, pts[:3]))
    cols, roots = transpose(pts), set(pts)
    out = []
    for q in itertools.permutations(pts, 3):
        m2 = _projective_key(ext, mat_mul(ext, _three_point_frame(ext, q), f_p_inv))
        if {_projective_key(ext, [x])[0] for x in zip(*mat_mul(ext, m2, cols))} == roots:
            out.append(m2)
    return sorted(out)


def _three_point_frame(gf: Field, x) -> list:
    """F_x, taking (1:0), (0:1), (1:1) to x_1, x_2, x_3: the columns l_1 x_1
    and l_2 x_2 with l_1 x_1 + l_2 x_2 = x_3, by Cramer's rule up to det."""
    (a1, a2), (b1, b2), (c1, c2) = x
    l1, l2 = gf.mul(c1, b2) ^ gf.mul(c2, b1), gf.mul(a1, c2) ^ gf.mul(a2, c1)
    return [[gf.mul(l1, a1), gf.mul(l2, b1)], [gf.mul(l1, a2), gf.mul(l2, b2)]]


def _scale_defect(gf: Field, a_form: list, m2: list) -> int:
    """c with Delta o M = c*Delta, for M a stabilizer element."""
    sub = poly.bf_substitute(gf, a_form, m2)
    c = next(gf.div(x, y) for x, y in zip(sub, a_form) if y)
    for x, y in zip(sub, a_form):
        if x != gf.mul(c, y):
            raise AssertionError("stabilizer element does not scale Delta")
    return c


def aut_x(p: Pencil, ext: Field) -> AutXGroup:
    """The automorphism group of X = V(q0, q1) over ext, assembled as
    R x| G: R the pair automorphisms, G the stabilizer of the root divisor
    in PGL2(ext), each G element lifted to GL(E) acting on the radical
    subspace by the dual symmetric power and on the complement by the
    inverse symmetric power scaled by the determinant.  Its table is read
    off the laws of R x| G, with |G| |R| conjugations and |G|^2 products.

    Requires ext to split Delta and to kill the r-coset (X quasi-split over
    ext); a_n = 0 is healed internally by a GL(2) move, which changes
    neither X nor Aut(X).
    """
    pe = p.over(ext)
    an = pair_algebra(pe)
    if an.r0_frame is None:
        raise PreconditionError(
            "X is not quasi-split over this field; extend until the r-coset "
            "dies (see quasi_split_over)"
        )
    gf = ext
    work = an.pencil
    a_form = list(work.half_discriminant())
    r_mats = [rep.matrix for rep in automorphism_group(pe)]

    g_elements = delta_stabilizer(work, ext)
    lifts, nth_roots = [], {}  # scale defect c -> the mu with mu^n = 1/c
    for m2 in g_elements:
        c = _scale_defect(gf, a_form, m2)
        if c not in nth_roots:
            nth_roots[c] = poly.roots(gf, [gf.inv(c)] + [0] * (work.n - 1) + [1])
        if not nth_roots[c]:
            raise PreconditionError(
                "no scalar over this field makes the stabilizer element "
                "preserve Delta on the nose; extend the field"
            )
        mu = nth_roots[c][0]  # the smallest: Delta(mu*M (t0, t1)) = Delta
        lifts.append(_lift_one(an, [[gf.mul(mu, x) for x in row] for row in m2]))

    # R x| G by its laws: element i|G| + j is the class of r_i L_j, and
    # (r_i L_j)(r_k L_l) = r_i (L_j r_k L_j^-1)(L_j L_l) = r_(i^c^c') L_t when
    # L_j r_k L_j^-1 = r_c exactly, L_j L_l = r_c' L_t up to a scalar and
    # r_i r_k = r_(i^k) (automorphism_group).  So row i|G| + j is, block k by
    # block k, row j of the cocycle moved by i ^ conj[j][k] in R
    size = len(lifts)
    classes = [_projective_key(gf, mat_mul(gf, rm, lm)) for rm in r_mats for lm in lifts]
    index = {key: a for a, key in enumerate(classes)}
    if len(index) != len(classes):
        raise AssertionError("semidirect product classes collide")
    r_index = {rm: k for k, rm in enumerate(r_mats)}
    conj = [[_look_up(r_index, mat_mul(gf, mat_mul(gf, lm, rm), lm_inv)) for rm in r_mats]
            for lm, lm_inv in zip(lifts, [inverse(gf, lm) for lm in lifts])]
    cocycle = [[divmod(_look_up(index, _projective_key(gf, mat_mul(gf, lj, ll))), size)
                for ll in lifts] for lj in lifts]
    blocks = [[tuple((y ^ c) * size + t for c, t in row) for y in range(len(r_mats))]
              for row in cocycle]
    table = [tuple(itertools.chain.from_iterable(blocks[j][i ^ x] for x in conj[j]))
             for i in range(len(r_mats)) for j in range(size)]
    return AutXGroup(ext, tuple(r_mats), tuple(g_elements),
                     tuple(tuple(map(tuple, g)) for g in lifts), tuple(classes), tuple(table))


def _lift_one(an: PairAnalysis, sm: list) -> list:
    """Lift one scaled stabilizer element to GL(E), exactly pair-compatible:
    q_{g(u_j)} o lift = q_{u_j}.

    It is a block matrix in the r = 0 frame of an: W goes to W by the dual
    degree-m substitution and the complement to the complement by the
    inverse degree-(m-1) substitution over det.  The model with r = 0 has no
    y-y terms, so this block matrix carries the moved pair to the pair on
    the nose and needs no correction; the substitution check is its one
    certificate."""
    work = an.pencil
    gf, m = work.gf, work.m
    det = gf.mul(sm[0][0], sm[1][1]) ^ gf.mul(sm[0][1], sm[1][0])
    h_w = transpose(poly.bf_substitution_matrix(gf, sm, m))  # dual action
    inv2 = [
        [gf.div(sm[1][1], det), gf.div(sm[0][1], det)],
        [gf.div(sm[1][0], det), gf.div(sm[0][0], det)],
    ]
    # the complement transforms by the inverse substitution, scaled by 1/det
    q_l = [vec_scale(gf, row, gf.inv(det))
           for row in poly.bf_substitution_matrix(gf, inv2, m - 1)]
    # F diag(h_w, q_l) F^-1 for the frame F: its w-columns times h_w and its
    # v-columns times q_l, then one product with the cached inverse
    f = an.r0_frame
    moved_frame = [a + b for a, b in zip(mat_mul(gf, [row[: m + 1] for row in f], h_w),
                                         mat_mul(gf, [row[m + 1:] for row in f], q_l))]
    lift = mat_mul(gf, moved_frame, an.r0_frame_inverse)

    moved = work.change_basis_gl2(sm)
    if moved.q0.transform(lift) != work.q0 or moved.q1.transform(lift) != work.q1:
        raise AssertionError("lift of a stabilizer element fails substitution")
    return lift


def _look_up(index: dict, g) -> int:
    """index of the matrix g; a miss is a failed certificate of R x| G."""
    key = tuple(map(tuple, g))
    if key not in index:
        raise AssertionError("R x| G is not closed under its product law")
    return index[key]


def _projective_key(gf: Field, g: list) -> tuple:
    """Normalize a matrix modulo scalars: first nonzero entry becomes 1."""
    flat = [x for row in g for x in row]
    lead = next((x for x in flat if x), 0)
    if not lead:
        raise ValueError("zero matrix has no projective class")
    flat = vec_scale(gf, flat, gf.inv(lead))
    width = len(g[0])
    return tuple(tuple(flat[i:i + width]) for i in range(0, len(flat), width))


def apply_to_subspace(gf: Field, g: list, span) -> tuple:
    """Image of a row-span subspace under the matrix g, canonicalized."""
    return normalize_subspace(gf, [mat_vec(gf, g, v) for v in span])
