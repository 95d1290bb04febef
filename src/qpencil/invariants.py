"""The r-invariant, the isomorphism test, and the Arf cross-check.

Two regular pairs with the same half-discriminant are isomorphic exactly
when their r-invariants agree modulo k + wp(A); pairs whose
half-discriminants differ by a nonzero scalar lam are brought to the same
one first, by diag(sqrt(lam), 1, ..., 1).  The test here not only decides
but produces a certified matrix witness (B2 U(s)) B1^-1, assembled from
the bases of the two normal forms (with B1's cached inverse) and the
unipotent U(s) = [[I, Cat(s)], [0, I]] with wp(s) matching the r-shift.

The pair also induces a quadratic form q_A = q0 + t*q1 on the free module
A^n; it splits off a one-dimensional trivial summand spanned by the image
of the radical map, and the Arf invariant of the nondegenerate remainder
reproduces the r-invariant modulo wp(A) + k.
"""

from __future__ import annotations

from .autos import PairAnalysis, catalecticant, frame_times_u, pair_algebra
from .linalg import identity, mat_mul, vec_scale
from .pencil import Pencil


def r_invariant(an: PairAnalysis) -> tuple[tuple, bool]:
    """The class of sum r_i d_i modulo k + wp(A): its canonical
    representative, and whether the class is trivial."""
    return an.algebra.coset_reduce(an.r_value)


def is_isomorphic(p1: Pencil, p2: Pencil) -> tuple[bool, list | None]:
    """Decide isomorphism of two regular pairs and produce a witness.

    Isomorphic pairs share Delta up to a nonzero scalar, since
    Delta(q o g) = det(g)^2 Delta(q); returns (False, None) at once when
    the half-discriminants are not proportional.  When Delta_2 =
    lam Delta_1, p1 is first moved by D = diag(sqrt(lam), 1, ..., 1), whose
    Delta is Delta_2 (every element of GF(2^k) is a square).  Then the
    answer is positive iff the r-invariants agree modulo k + wp(A); the
    witness g satisfies q2_i(g v) = q1_i(v) for both i, verified by
    substitution: (B2 U(s)) B1^-1 D^-1 for the normal-form bases B1 of p1
    o D and B2 of p2.
    """
    p1.require_regular()
    p2.require_regular()
    if p1.gf != p2.gf or p1.n != p2.n:
        return False, None
    gf = p1.gf
    d1, d2 = p1.half_discriminant(), p2.half_discriminant()
    i = next(i for i, c in enumerate(d1) if c)  # a regular Delta is not zero
    lam = gf.div(d2[i], d1[i])
    if vec_scale(gf, d1, lam) != d2:  # lam = 0 too: d2 is not zero
        return False, None
    root = gf.sqrt(lam)
    moved = p1
    if root != 1:
        d = identity(p1.n)
        d[0][0] = root
        moved = p1.conjugate(d)
    # equal Delta: both normal forms are taken after the same GL(2) move,
    # so they share one algebra and r-values add in d-coordinates
    an1, an2 = pair_algebra(moved), pair_algebra(p2)
    algebra = an1.algebra
    s = algebra.solve_artin_schreier(
        algebra.from_d_coords([x ^ y for x, y in zip(an1.nf.r, an2.nf.r)] + [0]))
    if s is None:
        return False, None
    # (B2 U(s)) B1^-1: the moved frame by its blocks, then one full product
    frame = frame_times_u(an2.nf, catalecticant(p1.m, algebra.d_coords(s)))
    witness = mat_mul(gf, frame, an1.nf.inverse)
    if root != 1:  # times D^-1: column 0 divided by sqrt(lam)
        inv_root = gf.inv(root)
        for row in witness:
            row[0] = gf.mul(row[0], inv_root)
    if p2.q0.transform(witness, p2.q1) != (p1.q0, p1.q1):
        raise AssertionError("isomorphism witness failed verification")
    return True, witness


class ArfData:
    qa_w: tuple  # q_A(w'_{i+1}) for i = 0..m-1 (each equals d_{2i+1})
    qa_v: tuple  # q_A(v'_i) = r_{2i} t + r_{2i+1}
    arf: tuple  # sum q_A(w'_{i+1}) q_A(v'_i) in A
    arf_class: tuple  # canonical representative modulo wp(A) + k
    matches_r: bool

    def __init__(self, qa_w: tuple, qa_v: tuple, arf: tuple, arf_class: tuple,
                 matches_r: bool):
        self.qa_w, self.qa_v, self.arf = qa_w, qa_v, arf
        self.arf_class, self.matches_r = arf_class, matches_r


def arf_invariant(an: PairAnalysis) -> ArfData:
    """Arf invariant of q_A = q0 + t q1 on A^n, checked against r.

    In the primed basis w'_i = sum_{k>=i} w_k t^(k-i), v'_i = v_i, the form
    q_A splits as <w'_0> (trivial) plus hyperbolic-like planes
    <w'_{i+1}, v'_i>.  The pairings b_A(v'_i, w'_j) = delta_{(i+1)j} hold
    for every input: the polar of q_A on the model has only the fixed
    entries x_{i+1} y_i (from q0) and t x_i y_i (from q1), so
    b_A(v'_i, w'_j) = w'_j[i+1] + t w'_j[i].  What depends on (a, r) is
    verified on the nose: q_A(w'_0) = 0, q_A(w'_{i+1}) = d_{2i+1},
    q_A(v'_i) = r_{2i} t + r_{2i+1}; matches_r compares the Arf class
    with the r-coset.
    """
    A, nf = an.algebra, an.nf
    m = nf.m
    model = nf.realized()
    # (i, j, c, shift): the model's nonzero coefficients, shift 1 for q1's t
    entries = [(i, j, c, shift) for shift, q in enumerate((model.q0, model.q1))
               for i, row in enumerate(q.rows) for j, c in enumerate(row) if c]

    def qa(exps):
        """q_A of the vector with entry t^exps[k] at each index k in exps
        and zero elsewhere: each nonzero coefficient adds itself at the
        exponent sum, one more for q1's factor t."""
        acc = [0] * (2 * m + 2)
        for i, j, c, shift in entries:
            if i in exps and j in exps:
                acc[exps[i] + exps[j] + shift] ^= c
        return A.from_poly(acc)

    # w'_i has t^(k-i) at k = i..m; v'_i has 1 at m+1+i
    if qa({k: k for k in range(m + 1)}) != A.zero():
        raise AssertionError("q_A(w'_0) must vanish (it is f(t))")

    qa_w = [qa({k: k - i - 1 for k in range(i + 1, m + 1)}) for i in range(m)]
    qa_v = [qa({m + 1 + i: 0}) for i in range(m)]
    for i in range(m):
        if qa_w[i] != A.d_basis[2 * i + 1]:
            raise AssertionError("q_A(w'_{i+1}) differs from d_{2i+1}")
        if qa_v[i] != A.element([nf.r[2 * i + 1], nf.r[2 * i]]):
            raise AssertionError("q_A(v'_i) differs from r_{2i} t + r_{2i+1}")

    arf = A.zero()
    for x, y in zip(qa_w, qa_v):
        arf = A.add(arf, A.mul(x, y))
    _, matches = A.coset_reduce(A.add(arf, an.r_value))
    rep, _ = A.coset_reduce(arf)
    return ArfData(
        tuple(qa_w), tuple(qa_v), arf, rep, matches
    )

