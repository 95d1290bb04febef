"""Pencils of quadratic forms on odd-dimensional spaces.

A pencil is an ordered non-proportional pair (q0, q1) on dimension
n = 2m+1.  The radical map Omega(l, u) collects the principal Pfaffians of
l*b0 + u*b1 as binary forms of degree m; evaluating the member at its own
radical vector gives the half-discriminant, a binary form of degree n whose
separability is exactly regularity of the pencil (the base locus is then
smooth of codimension 2).  Omega's coefficient vectors form the Kronecker
chain of the pencil, which one elimination of b0 (its Pfaffian vector
and its solve operator) solves in O(n^3) products over the pencil's own
field; only a pencil that is not regular can leave the chain
underdetermined, and its Omega is interpolated from the Pfaffian vectors
of m+1 members instead.
Delta is factored once, in its étale algebra (delta_algebra), and every
reader of its roots or factor degrees reads that factorization.  over(ext)
is the one way onto an extension field (one pencil per field, embedded by
find_embedding), and split_roots the one check that a field splits Delta.
"""

from __future__ import annotations

from . import poly
from .algebra import EtaleAlgebra
from .errors import NotRegularError, PreconditionError
from .field import GF, Field, find_embedding
from .linalg import inverse, mat_mul, rref, transpose
from .quadform import QuadraticForm, pfaffian_vector, radical_elimination


class Pencil:
    """Ordered pair (q0, q1) of quadratic forms spanning a pencil."""

    def __init__(self, q0: QuadraticForm, q1: QuadraticForm):
        if q0.gf != q1.gf:
            raise ValueError("forms live over different fields")
        if q0.n != q1.n:
            raise ValueError("forms live on spaces of different dimension")
        if q0.n % 2 != 1 or q0.n < 3:
            raise ValueError(f"pencil dimension must be odd and >= 3, got {q0.n}")
        if _proportional(q0, q1):
            raise ValueError("the two forms are proportional; not a pencil")
        self.gf = q0.gf
        self.q0 = q0
        self.q1 = q1
        self.n = q0.n
        self.m = (q0.n - 1) // 2
        self._radical_map = None
        self._half_disc = None
        self._delta_algebra = None
        self._regular = None
        self._analysis = None  # set by autos.pair_algebra
        self._mapped = {}  # extension field -> the pencil over it

    def __eq__(self, other):
        return (
            isinstance(other, Pencil) and other.q0 == self.q0 and other.q1 == self.q1
        )

    def __hash__(self):
        return hash((self.q0, self.q1))

    def __repr__(self):
        return f"Pencil(n={self.n}, {self.gf!r})"

    # -- members -------------------------------------------------------------

    def member(self, l: int, u: int) -> QuadraticForm:
        """The quadratic form l*q0 + u*q1."""
        return self.q0.scale(l).add(self.q1.scale(u))

    # -- the radical map and half-discriminant --------------------------------

    def radical_map(self) -> list:
        """Coefficient vectors w_0 .. w_m of Omega = sum l^(m-i) u^i w_i.

        Entry k of Omega is the Pfaffian of the principal submatrix of
        l*G0 + u*G1 (the Gram matrices of b0, b1) deleting row/column k, a
        binary form of degree m.  Since (l*G0 + u*G1) Omega = 0, the w_i
        form the Kronecker chain G0 w_0 = 0, G0 w_{i+1} = G1 w_i,
        G1 w_m = 0, and w_0 is the Pfaffian vector of G0 (`_chain`).  When
        the chain does not pin Omega down, the pencil is not regular, and
        Omega is interpolated from m+1 members (`_interpolated`).
        """
        if self._radical_map is None:
            grams = (self.q0.polar(), self.q1.polar())
            self._radical_map = (_chain(self.gf, *grams, self.m)
                                 or _interpolated(self.gf, grams, self.m))
        return self._radical_map

    def omega_at(self, l: int, u: int) -> list:
        """The radical vector of the member at (l, u)."""
        gf, m = self.gf, self.m
        cs = [gf.mul(gf.pow(l, m - i), gf.pow(u, i)) for i in range(m + 1)]
        return mat_mul(gf, [cs], self.radical_map())[0]

    def half_discriminant(self) -> list:
        """Coefficients (a_0, ..., a_n) of Delta = (l q0 + u q1)(Omega(l, u)).

        With W the (m+1) x n matrix of the w_i and U the upper-triangular
        coefficient matrix of q, q(Omega) = Omega^T U Omega, whose t^d
        coefficient is the sum of the entries (e, f) of W U W^T with
        e + f = d.  Two matrix products serve both forms: [U0; U1] W^T,
        the stacked rows sharing one W^T, then W [U0 W^T | U1 W^T], whose
        two blocks are W U0 W^T and W U1 W^T; O(n^3) multiplications.
        """
        if self._half_disc is None:
            gf, n, m = self.gf, self.n, self.m
            w = self.radical_map()
            uw = mat_mul(gf, self.q0.rows + self.q1.rows, transpose(w))
            blocks = mat_mul(gf, w, [r0 + r1 for r0, r1 in zip(uw[:n], uw[n:])])
            acc = [0] * (n + 1)
            for e, row in enumerate(blocks):  # l shifts the q0 block by 0, u the q1 block by 1
                for f, v in enumerate(row[:m + 1], e):
                    acc[f] ^= v
                for f, v in enumerate(row[m + 1:], e + 1):
                    acc[f] ^= v
            self._half_disc = acc
        return self._half_disc

    def delta_algebra(self) -> EtaleAlgebra:
        """k[T]/(Delta(1, T)) over the pencil's own field, for a regular
        pencil; of degree n - 1 when a_n = 0, the root at infinity.  The
        regularity verdict is the separability of this trimmed Delta (as
        poly.bf_is_separable tests it), so the algebra takes no second gcd."""
        if self._delta_algebra is None:
            self.require_regular()
            f = poly.trim(list(self.half_discriminant()))
            self._delta_algebra = EtaleAlgebra.of_separable(self.gf, tuple(f))
        return self._delta_algebra

    def projective_roots(self) -> list:
        """Normalized projective roots of Delta over the pencil's own field,
        read off the linear factors of delta_algebra."""
        return poly.bf_projective_roots(self.half_discriminant(), self.delta_algebra().factors)

    def split_roots(self) -> list:
        """All n projective roots of Delta, or PreconditionError when the
        pencil's field does not split Delta."""
        pts = self.projective_roots()
        if len(pts) != self.n:
            raise PreconditionError(
                f"{self.gf!r} does not split Delta ({len(pts)} of {self.n} roots)")
        return pts

    def is_regular(self) -> bool:
        """Delta nonzero and separable as a binary form: n distinct projective
        roots over the closure, the point at infinity included.  Decided
        once per pencil."""
        if self._regular is None:
            self._regular = poly.bf_is_separable(self.gf, self.half_discriminant())
        return self._regular

    def require_regular(self):
        if not self.is_regular():
            raise NotRegularError("pencil is not regular (half-discriminant is "
                                  "zero or has a repeated root)")

    # -- basis changes ---------------------------------------------------------

    def change_basis_gl2(self, m2: list) -> "Pencil":
        """The pencil (q_{g(u0)}, q_{g(u1)}) for g with matrix columns m2[.][j].

        Its member at (t0, t1) is this pencil's member at
        (m00 t0 + m01 t1, m10 t0 + m11 t1), so Omega and Delta transform by
        that substitution; when they are known here they are carried over
        instead of recomputed (Omega as one product with the degree-m
        substitution matrix), and so is the regularity verdict, which a
        GL(2) move keeps.
        """
        gf = self.gf
        d = gf.mul(m2[0][0], m2[1][1]) ^ gf.mul(m2[0][1], m2[1][0])
        if d == 0:
            raise ValueError("singular GL(2) matrix")
        q0p = self.q0.scale(m2[0][0]).add(self.q1.scale(m2[1][0]))
        q1p = self.q0.scale(m2[0][1]).add(self.q1.scale(m2[1][1]))
        moved = Pencil(q0p, q1p)
        if self._radical_map is not None:
            moved._radical_map = mat_mul(
                gf, poly.bf_substitution_matrix(gf, m2, self.m), self._radical_map)
        if self._half_disc is not None:
            moved._half_disc = poly.bf_substitute(gf, self._half_disc, m2)
        moved._regular = self._regular
        return moved

    def conjugate(self, g: list) -> "Pencil":
        """The pencil (q0 o g, q1 o g), both pulled back by one stacked pair
        of products (QuadraticForm.transform)."""
        return Pencil(*self.q0.transform(g, self.q1))

    def over(self, ext: Field) -> "Pencil":
        """The pencil over ext, an extension of its field, embedded by
        find_embedding: self over its own field, otherwise one pencil per
        field, so that what is cached on it is computed once.  It takes
        this pencil's regularity verdict: Delta maps coefficient by
        coefficient, and separability does not depend on the field."""
        if ext == self.gf:
            return self
        if ext not in self._mapped:
            emb = find_embedding(self.gf, ext)
            self._mapped[ext] = Pencil(self.q0.map_field(emb), self.q1.map_field(emb))
        mapped = self._mapped[ext]
        if mapped._regular is None:
            mapped._regular = self._regular
        return mapped

    def ensure_an_nonzero(self) -> tuple["Pencil", list]:
        """A GL2-equivalent pencil whose Delta has a_n != 0 (q1 nondegenerate),
        together with the matrix used; errors if every rational point of the
        projective line is a root of Delta."""
        self.require_regular()
        gf = self.gf
        a = self.half_discriminant()
        n = self.n
        if a[n] != 0:
            return self, [[1, 0], [0, 1]]
        for c in gf.elements():  # c = 0 swaps q0 and q1: a_0 != 0 suffices
            if poly.bf_eval(gf, a, 1, c) != 0:
                g = [[0, 1], [1, c]]
                return self.change_basis_gl2(g), g
        j = 2
        while (1 << (gf.degree * j)) + 1 <= n:
            j += 1
        raise PreconditionError(
            "every rational point of P^1 is a root of Delta; "
            f"a degree-{j} extension has a non-root",
            extension_degree=j,
        )


def _proportional(q0: QuadraticForm, q1: QuadraticForm) -> bool:
    """Whether q0 is zero or q1 = lam q0 for some lam, 0 included.  With
    q0 nonzero, (a, b) its first nonzero coefficient and q1's beside it,
    q1 = (b/a) q0 exactly when a x1 = b x0 at every coefficient: x1 = 0
    where x0 = 0, x1 = 0 where b = 0, and two products where neither is.
    The scan stops at the first coefficient that rules it out."""
    if not any(map(any, q0.rows)):
        return True
    mul = q0.gf.mul
    a = b = 0
    for i, (r0, r1) in enumerate(zip(q0.rows, q1.rows)):
        for x0, x1 in zip(r0[i:], r1[i:]):
            if not x0:
                if x1:
                    return False
            elif not a:
                a, b = x0, x1
            elif not (x1 and b):
                if x1 or b:
                    return False
            elif mul(a, x1) != mul(b, x0):
                return False
    return True


def _chain(gf, g0: tuple, g1: tuple, m: int):
    """Omega's coefficients from its Kronecker chain, or None.

    One elimination of G0 (radical_elimination) gives w_0, its Pfaffian
    vector, and, when w_0 != 0 (G0 has corank 1, kernel <w_0> and image
    w_0^perp), its solve operator S: S b = (p, y.b) with G0 p = b for b in
    the image, y a multiple of w_0.  The transpose of S is one prepared
    operand, and so are the rows of G1.  A particular chain p_0 = w_0, ...,
    p_m then costs two Field.combine calls per step: b = G1 p_i, then S b
    with y.b in one more slot.  Every chain starting at w_0 is
    w_i = sum_{j<=i} c_j p_{i-j} with c_0 = 1.  Omega is such a chain, so
    every step is consistent (checked all the same: y.b must be 0), and
    G1 w_m = 0 is the n x m system sum_{j>=1} c_j G1 p_{m-j} = G1 p_m,
    which Omega solves.  When it has rank m, Omega is its one solution,
    exactly: one product of the lower-triangular Toeplitz matrix of
    (1, c_1, ..., c_m) with the p_i.  Otherwise, or when w_0 = 0, the
    pencil has a kernel vector of degree below m: Omega is zero or has a
    common factor, so Delta is zero or has a square factor, and the pencil
    is not regular.  O(n^3) products in all, over gf.
    """
    n = 2 * m + 1
    w0, solver = radical_elimination(gf, g0)
    if solver is None:
        return None
    solve = gf.prepare(list(map(gf.pack, zip(*solver))), n + 1)
    times_g1 = gf.prepare(list(map(gf.pack, g1)), n)  # G1 is symmetric
    p, ps, images = w0, [w0], []  # images[i] = G1 p_i
    for _ in range(m):
        b = gf.unpack(gf.combine(times_g1, p), n)
        images.append(b)
        *p, dot = gf.unpack(gf.combine(solve, b), n + 1)
        if dot:  # b is not in the image of G0
            return None
        ps.append(p)
    images.append(gf.unpack(gf.combine(times_g1, p), n))
    # columns G1 p_{m-1}, ..., G1 p_0 for c_1 .. c_m, then G1 p_m
    rows, pivots, _ = rref(gf, transpose(images[-2::-1] + images[-1:]))
    if pivots != list(range(m)):
        return None
    cs = [1] + [row[m] for row in rows[:m]]  # c_0 .. c_m
    return mat_mul(gf, [cs[i::-1] + [0] * (m - i) for i in range(m + 1)], ps)


def _interpolated(gf, grams: tuple, m: int) -> list:
    """Omega interpolated from the Pfaffian vectors of x*G0 + G1 at the
    m+1 field elements x = 0, 1, ..., m, over the smallest extension with
    more than m elements, and pulled back to gf: m+1 eliminations, O(n^4)
    products.  Only pencils that are not regular reach it."""
    j = -(-m.bit_length() // gf.degree)  # smallest j with 2^(k*j) > m
    ext = gf
    if j > 1:  # then gf has at most m elements
        ext = GF(gf.degree * j)
        emb = find_embedding(gf, ext)
        grams = [[emb.map_vec(row) for row in g] for g in grams]
    values = [
        pfaffian_vector(ext, [ext.mat_mul([[x, 1]], [r0, r1])[0] for r0, r1 in zip(*grams)])
        for x in range(m + 1)
    ]
    vander = [[ext.pow(x, m - i) for i in range(m + 1)] for x in range(m + 1)]
    ws = mat_mul(ext, inverse(ext, vander), values)
    if j > 1:
        lift = {emb.map(a): a for a in gf.elements()}
        ws = [[lift[c] for c in w] for w in ws]
    return ws
