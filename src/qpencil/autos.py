"""Automorphisms of pairs and of the base locus X.

Additive elements s of the algebra act on a Kronecker frame through the
unipotent block matrix [[I, S], [0, I]] whose upper-right block is the
catalecticant Cat(s_0, ..., s_{2m-1}); the map phi is a homomorphism from
(A, +) with kernel exactly the constants.  Idempotents of A give the
automorphisms of the pair itself, an elementary abelian 2-group built
from its l - 1 certified generators by that law (automorphism_group);
over a splitting field these are the n
reflections at the singular points of the degenerate members, and Aut(X)
is generated by them together with lifts of the projective-line symmetries
of the root divisor of the half-discriminant.  Each lift is a block matrix
in the r = 0 frame, built from poly.bf_substitution_matrix; it needs no
correction, and substitution is its one certificate (see _lift_one).  That
frame is B U(s) for the witness s, and it and its inverse U(s) B^-1 are
read off the blocks of U(s) and the Kronecker basis's one inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import poly
from .algebra import EtaleAlgebra
from .errors import PreconditionError
from .field import Field, find_embedding
from .linalg import identity, mat_mul, mat_vec, normalize_subspace, transpose, vec_scale
from .normalform import KroneckerBasis, NormalForm, extract_normal_form
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


def frame_times_u(kb: KroneckerBasis, cat: list) -> list:
    """B U(s) = [B_w | B_v + B_w Cat(s)] for U(s) = [[I, Cat(s)], [0, I]]
    and B = kb.basis_matrix: the v-columns moved by the w-columns."""
    m = kb.m
    corr = mat_mul(kb.gf, [row[: m + 1] for row in kb.basis_matrix], cat)
    return [list(row[: m + 1]) + [x ^ y for x, y in zip(row[m + 1:], c)]
            for row, c in zip(kb.basis_matrix, corr)]


def phi(algebra: EtaleAlgebra, nf: NormalForm, s: tuple) -> AutomorphismRep:
    """phi(s) conjugated into the original coordinates of nf's pencil:
    B [[I, S], [0, I]] B^-1 = I + B_w S (B^-1)_v, with B_w the first m+1
    columns of the Kronecker basis B and (B^-1)_v the last m rows of B^-1."""
    m = nf.m
    s_coords = list(algebra.d_coords(s))[: algebra.n - 1]
    cat = catalecticant(m, s_coords)
    kb = nf.basis
    b_w = [row[: m + 1] for row in kb.basis_matrix]
    nil = mat_mul(kb.gf, mat_mul(kb.gf, b_w, cat), kb.inverse[m + 1:])
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
    algebra: EtaleAlgebra  # k[T]/(Delta(1, T))
    nf: NormalForm  # of `pencil`

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
        return frame_times_u(self.nf.basis, cat)

    @cached_property
    def r0_frame_inverse(self):
        """r0_frame^-1 = U(s) B^-1 = [(B^-1)_w + Cat(s) (B^-1)_v ; (B^-1)_v]
        when there is a witness, from the basis's own inverse, for all the
        lifts of Aut(X)."""
        kb, m = self.nf.basis, self.nf.m
        inv_w, inv_v = kb.inverse[: m + 1], kb.inverse[m + 1:]
        corr = mat_mul(kb.gf, catalecticant(m, self.algebra.d_coords(self.witness)), inv_v)
        return [[x ^ y for x, y in zip(r, c)] for r, c in zip(inv_w, corr)] + inv_v


def pair_algebra(p: Pencil) -> PairAnalysis:
    """The analysis of a regular pencil, built on the first call and kept on
    p and on the moved pencil.  When a_n = 0 it runs on the pencil moved by
    ensure_an_nonzero: a GL(2) change of pair basis changes neither the
    automorphisms nor the r-class."""
    if p._analysis is None:
        work, g = p.ensure_an_nonzero()
        an = PairAnalysis(
            work,
            tuple(tuple(row) for row in g),
            EtaleAlgebra(work.gf, tuple(work.half_discriminant())),
            extract_normal_form(work),
        )
        p._analysis = work._analysis = an
    return p._analysis


def group_generators(p: Pencil) -> list[AutomorphismRep]:
    """phi(eps_1), ..., phi(eps_(l-1)), for the idempotents of A but the
    first: each certified by substitution and, when there are two or more,
    the block (B^-1)_v B_w = 0 that makes their products xors is checked
    (see automorphism_group)."""
    an = pair_algebra(p)
    algebra, kb, m = an.algebra, an.nf.basis, an.nf.m
    gens = [phi(algebra, an.nf, e) for e in algebra.idempotents[1:]]
    for g in gens:
        if p.q0.transform(g.matrix) != p.q0 or p.q1.transform(g.matrix) != p.q1:
            raise AssertionError("phi(idempotent) fails to preserve the pair")
    if len(gens) > 1:
        b_w = [row[: m + 1] for row in kb.basis_matrix]
        if any(any(row) for row in mat_mul(kb.gf, kb.inverse[m + 1:], b_w)):
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
    p.require_regular()
    pe = p.map_field(find_embedding(p.gf, ext))
    pts = pe.projective_roots()
    if len(pts) != p.n:
        raise PreconditionError(
            f"{ext!r} does not split Delta ({len(pts)} of {p.n} roots)"
        )
    out = []
    for (l, u) in pts:
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
    an = pair_algebra(p.map_field(find_embedding(p.gf, ext)))
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
    """Representatives of PGL2(gf): first nonzero entry normalized to 1."""
    out = []
    one = 1
    for a in (0, one):
        bs = gf.elements() if a else (one,)
        for b in bs:
            for c in gf.elements():
                for d in gf.elements():
                    if gf.mul(a, d) ^ gf.mul(b, c):
                        if a == 0 and b == one:
                            out.append([[0, one], [c, d]])
                        elif a == one:
                            out.append([[one, b], [c, d]])
    return out


def delta_stabilizer(p: Pencil, ext: Field) -> list:
    """Elements of PGL2(ext) permuting the projective roots of Delta."""
    pts = set(p.map_field(find_embedding(p.gf, ext)).projective_roots())
    if len(pts) != p.n:
        raise PreconditionError(f"{ext!r} does not split Delta")
    out = []
    for m2 in pgl2_elements(ext):
        image = set()
        for (l, u) in pts:
            il = ext.mul(m2[0][0], l) ^ ext.mul(m2[0][1], u)
            iu = ext.mul(m2[1][0], l) ^ ext.mul(m2[1][1], u)
            image.add(_projective_key(ext, [(il, iu)])[0])
        if image == pts:
            out.append(m2)
    return out


def _scale_to_delta_invariant(gf: Field, a_form: list, m2: list):
    """The smallest mu with Delta(mu*M (t0,t1)) = Delta, or None when the
    scale defect c (Delta o M = c*Delta) has no n-th root in gf."""
    n = len(a_form) - 1
    sub = poly.bf_substitute(gf, a_form, m2)
    c = None
    for x, y in zip(sub, a_form):
        if y:
            c = gf.div(x, y)
            break
    for x, y in zip(sub, a_form):
        if x != gf.mul(c, y):
            raise AssertionError("stabilizer element does not scale Delta")
    return min(poly.roots(gf, [gf.inv(c)] + [0] * (n - 1) + [1]), default=None)


def aut_x(p: Pencil, ext: Field) -> AutXGroup:
    """The automorphism group of X = V(q0, q1) over ext, assembled as
    R x| G: R the pair automorphisms, G the stabilizer of the root divisor
    in PGL2(ext), each G element lifted to GL(E) acting on the radical
    subspace by the dual symmetric power and on the complement by the
    inverse symmetric power scaled by the determinant.

    Requires ext to split Delta and to kill the r-coset (X quasi-split over
    ext); a_n = 0 is healed internally by a GL(2) move, which changes
    neither X nor Aut(X).
    """
    pe = p.map_field(find_embedding(p.gf, ext))
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
    lifts = []
    for m2 in g_elements:
        mu = _scale_to_delta_invariant(gf, a_form, m2)
        if mu is None:
            raise PreconditionError(
                "no scalar over this field makes the stabilizer element "
                "preserve Delta on the nose; extend the field"
            )
        lifts.append(_lift_one(an, [[gf.mul(mu, x) for x in row] for row in m2]))

    # assemble all products r * lift and the multiplication table
    classes = []
    index = {}
    for rm in r_mats:
        for lm in lifts:
            g = mat_mul(gf, rm, lm)
            key = _projective_key(gf, g)
            if key not in index:
                index[key] = len(classes)
                classes.append(key)
    if len(classes) != len(r_mats) * len(lifts):
        raise AssertionError("semidirect product classes collide")
    # g1 times every class at once: the classes side by side as one wide
    # matrix, so each product row is one kernel call
    n = len(classes[0])
    wide = [[x for k2 in classes for x in k2[i]] for i in range(n)]
    table = []
    for k1 in classes:
        prod = mat_mul(gf, k1, wide)
        table.append(tuple(
            index[_projective_key(gf, [r[c:c + n] for r in prod])]
            for c in range(0, len(wide[0]), n)))
    return AutXGroup(
        ext,
        tuple(tuple(tuple(r) for r in g) for g in r_mats),
        tuple(tuple(tuple(r) for r in g) for g in g_elements),
        tuple(tuple(tuple(r) for r in g) for g in lifts),
        tuple(classes),
        tuple(table),
    )


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
