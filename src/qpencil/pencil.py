"""Pencils of quadratic forms on odd-dimensional spaces.

A pencil is an ordered non-proportional pair (q0, q1) on dimension
n = 2m+1.  The radical map Omega(l, u) collects the principal Pfaffians of
l*b0 + u*b1 as binary forms of degree m; evaluating the member at its own
radical vector gives the half-discriminant, a binary form of degree n whose
separability is exactly regularity of the pencil (the base locus is then
smooth of codimension 2).  Omega is interpolated from the Pfaffian vectors
of m+1 members, each one O(n^3) elimination (`quadform.pfaffian_vector`).
"""

from __future__ import annotations

from . import poly
from .errors import NotRegularError, PreconditionError
from .linalg import inverse, mat_mul, rank, transpose
from .quadform import QuadraticForm, pfaffian_vector


class Pencil:
    """Ordered pair (q0, q1) of quadratic forms spanning a pencil."""

    def __init__(self, q0: QuadraticForm, q1: QuadraticForm):
        if q0.gf != q1.gf:
            raise ValueError("forms live over different fields")
        if q0.n != q1.n:
            raise ValueError("forms live on spaces of different dimension")
        if q0.n % 2 != 1 or q0.n < 3:
            raise ValueError(f"pencil dimension must be odd and >= 3, got {q0.n}")
        if rank(q0.gf, [q0.coefficient_vector(), q1.coefficient_vector()]) != 2:
            raise ValueError("the two forms are proportional; not a pencil")
        self.gf = q0.gf
        self.q0 = q0
        self.q1 = q1
        self.n = q0.n
        self.m = (q0.n - 1) // 2
        self._radical_map = None
        self._half_disc = None
        self._roots = None
        self._analysis = None  # set by autos.pair_algebra
        self._mapped = {}  # embedding -> the pencil over its target field

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
        l*Gram(b0) + u*Gram(b1) deleting row/column k, a binary form of
        degree m.  It is interpolated from the Pfaffian vectors of
        x*Gram(b0) + Gram(b1) at the m+1 field elements x = 0, 1, ..., m,
        over the smallest extension with more than m elements, and the
        coefficients are pulled back to the pencil's field.
        """
        if self._radical_map is None:
            gf, m = self.gf, self.m
            grams = (self.q0.polar(), self.q1.polar())
            j = -(-m.bit_length() // gf.degree)  # smallest j with 2^(k*j) > m
            ext = gf
            if j > 1:  # then gf has at most m elements
                ext, emb = gf.extension(j)
                grams = [[emb.map_vec(row) for row in g] for g in grams]
            values = [
                pfaffian_vector(ext, [ext.addmul(r1, (x,), (r0,)) for r0, r1 in zip(*grams)])
                for x in range(m + 1)
            ]
            vander = [[ext.pow(x, m - i) for i in range(m + 1)] for x in range(m + 1)]
            ws = mat_mul(ext, inverse(ext, vander), values)
            if j > 1:
                lift = {emb.map(a): a for a in gf.elements()}
                ws = [[lift[c] for c in w] for w in ws]
            self._radical_map = ws
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
        e + f = d.  Two matrix products per form (U W^T, one pass over the
        coefficients, then W times it), O(n^3) multiplications.
        """
        if self._half_disc is None:
            gf, n = self.gf, self.n
            w = self.radical_map()
            wt = transpose(w)
            acc = [0] * (n + 1)
            for shift, q in enumerate((self.q0, self.q1)):  # l shifts by 0, u by 1
                g = mat_mul(gf, w, mat_mul(gf, q.upper_matrix(), wt))
                for e, row in enumerate(g):
                    for f, v in enumerate(row, e + shift):
                        acc[f] ^= v
            self._half_disc = acc
        return self._half_disc

    def projective_roots(self) -> list:
        """Normalized projective roots of Delta over the pencil's own field."""
        if self._roots is None:
            self._roots = poly.bf_projective_roots(self.gf, self.half_discriminant())
        return self._roots

    def is_regular(self) -> bool:
        """Delta nonzero and separable as a binary form: n distinct projective
        roots over the closure, the point at infinity included."""
        return poly.bf_is_separable(self.gf, self.half_discriminant())

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
        substitution matrix).
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
        return moved

    def conjugate(self, g: list) -> "Pencil":
        """The pencil (q0 o g, q1 o g)."""
        return Pencil(self.q0.transform(g), self.q1.transform(g))

    def map_field(self, emb) -> "Pencil":
        """The pencil over emb.dst: self when emb fixes every coefficient,
        otherwise one new pencil per embedding, so that what is cached on
        it is computed once."""
        if emb.dst == self.gf and all(
            emb.map(c) == c for _, c in self.q0.coeffs + self.q1.coeffs
        ):
            return self
        if emb not in self._mapped:
            self._mapped[emb] = Pencil(self.q0.map_field(emb), self.q1.map_field(emb))
        return self._mapped[emb]

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

