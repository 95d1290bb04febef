"""Quadratic forms and their polar forms in characteristic 2.

A quadratic form is q(x) = x^T U x for its upper-triangular coefficient
matrix U, q = sum a_ij x_i x_j (0-based, i <= j, a_ij = U_ij), and U is the
one form it is stored in.  Its polar form b(v, w) = q(v+w) + q(v) + q(w) has
the Gram matrix U + U^T (polar()), which is alternating because the
characteristic is 2: symmetric with zero diagonal.  On odd-dimensional
spaces the vector of principal Pfaffians spans the radical of a corank-1
alternating form, and q evaluated there is the half-discriminant, the
degree-n substitute for the vanishing determinant.  A span is totally
isotropic for q when the pull-back of q by a matrix whose columns span it
(`transform` on an n x k matrix) is the zero form.

The volume form is fixed once and for all as e_1 ^ ... ^ e_n -> 1 in the
standard basis, so Pfaffian vectors and half-discriminants are exact values,
not classes modulo squares.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from .field import Field
from .linalg import identity, mat_mul, rank, rref, transpose, vec_scale


class QuadraticForm:
    """q(x) = x^T U x, with U the upper-triangular coefficient matrix held
    as rows, a tuple of n row tuples: rows[i][j] is the coefficient of
    x_i x_j for i <= j, and every entry below the diagonal is zero.  Forms
    are equal when their fields and coefficients are."""

    gf: Field
    n: int
    rows: tuple
    _polar: tuple

    def __init__(self, gf: Field, n: int, rows: tuple):
        self.gf, self.n, self.rows = gf, n, rows
        self._polar = None

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (self.gf, self.n, self.rows) == (other.gf, other.n, other.rows)

    def __hash__(self):
        return hash((self.gf, self.n, self.rows))

    @staticmethod
    def from_table(gf: Field, n: int, table: dict) -> "QuadraticForm":
        """The form with coefficient table[(i, j)] at x_i x_j, 0 <= i <= j < n."""
        rows = [[0] * n for _ in range(n)]
        for (i, j), c in table.items():
            if not (0 <= i <= j < n):
                raise ValueError(f"coefficient index {(i, j)} out of range for n={n}")
            if not (0 <= c < gf.order):
                raise ValueError(f"{c} is not an element of {gf!r}")
            rows[i][j] = c
        return QuadraticForm(gf, n, tuple(map(tuple, rows)))

    def __call__(self, v: list) -> int:
        """q(v) = v . (U v), a row of U at a time from its diagonal (U is
        zero below it) and skipping zeros: the kernel's fixed cost per call
        would dominate at the small n of the point scans."""
        mul, rows, n = self.gf.mul, self.rows, self.n
        acc = 0
        for i in range(n):
            x = v[i]
            if x:
                row = rows[i]
                s = 0
                for j in range(i, n):
                    c = row[j]
                    if c and v[j]:
                        s ^= mul(c, v[j])
                acc ^= mul(x, s)
        return acc

    def polar(self) -> tuple:
        """The Gram matrix of b, b(v, w) = v^T G w, as a tuple of row tuples:
        G = U + U^T, built once per form."""
        if self._polar is None:
            gram = tuple(tuple(map(xor, row, col))
                         for row, col in zip(self.rows, zip(*self.rows)))
            self._polar = gram
        return self._polar

    def add(self, other: "QuadraticForm") -> "QuadraticForm":
        return QuadraticForm(self.gf, self.n, tuple(
            tuple(map(xor, r, s)) for r, s in zip(self.rows, other.rows)))

    def scale(self, c: int) -> "QuadraticForm":
        mul = self.gf.mul
        return QuadraticForm(self.gf, self.n, tuple(
            tuple(mul(c, x) if x else 0 for x in row) for row in self.rows))

    def transform(self, g: list, *others: "QuadraticForm"):
        """The pulled-back form q o g, i.e. (q o g)(v) = q(g v), for an n x k
        matrix g: on k variables, the restriction of q to the span of g's
        columns.  With other forms on the same space, the tuple of the
        pull-backs of q and of each of them by the same g.

        q o g has the matrix K = g^T U g read back to upper-triangular form:
        (q o g)_ii = K_ii and (q o g)_ij = K_ij + K_ji.  O(n^2 k)
        multiplications a form, in two matrix products whatever the number
        of forms (two kernel calls for a pair, not four): the forms'
        matrices stacked, [U; U'; ...] g, then g^T [U g | U' g | ...], whose
        blocks of k columns are the K of each form in turn.
        """
        gf, n, k = self.gf, self.n, len(g[0])
        rows = tuple(self.rows)  # a new tuple only when more forms join it
        for q in others:
            rows += tuple(q.rows)
        ug = mat_mul(gf, rows, g)
        side = ug[:n]
        for s in range(n, len(ug), n):
            side = list(map(list.__add__, side, ug[s:s + n]))
        c = mat_mul(gf, transpose(g), side)
        cols = list(zip(*c))
        images = tuple(QuadraticForm(gf, k, tuple(
            (0,) * i + (row[s + i],) + tuple(map(xor, row[s + i + 1:s + k], cols[s + i][i + 1:]))
            for i, row in enumerate(c))) for s in range(0, len(rows) // n * k, k))
        return images if others else images[0]

    def map_field(self, emb) -> "QuadraticForm":
        return QuadraticForm(emb.dst, self.n, tuple(
            tuple(map(emb.map, row)) for row in self.rows))


# ---------------------------------------------------------------------------
# Pfaffians


def pfaffian_vector(gf: Field, gram) -> list:
    """Principal Pfaffians (delete row/column i) of an odd-size alternating
    matrix; spans the radical when the corank is 1, zero when corank >= 3.
    Read off one elimination, radical_elimination."""
    return radical_elimination(gf, gram)[0]


def radical_elimination(gf: Field, gram) -> tuple:
    """(w, S) from one rref [R | E] of [G | I_n], E G = R, for G alternating
    of odd size n: w the Pfaffian vector of G, and S its (n+1) x n solve
    operator, or None when the corank is >= 3 (then w = 0).

    At corank 1 the pivots miss one column r of G, and the last row is
    [0 | y] with y G = 0, so y spans the kernel and y_r != 0.  det E = 1/P
    for P the product of the raw pivots (a row swap has determinant 1 in
    characteristic 2), so Cramer's rule on E times G with column r replaced
    by e_s gives the cofactor w_r w_s of adj(G) = w w^T as P y_s: w =
    sqrt(P / y_r) y.  S has E_t, the identity half of pivot row t, as row
    pivot_t, zeros at r and y as row n: for b in the image of G, y^perp,
    S b = (p, 0) with G p = b and p_r = 0, and (S b)_n = y.b checks that b
    is in the image.  A pivot in the identity half adds multiples of y to
    the E_t, which keeps E_t.b.
    """
    n = len(gram)
    if n % 2 != 1:
        raise ValueError("Pfaffian vector needs odd size")
    rows, pivots, scales = rref(gf, [[*row, *e] for row, e in zip(gram, identity(n))])
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return [0] * n, None
    det = reduce(gf.mul, [e for e in scales if e != 1], 1)
    y = rows[n - 1][n:]
    solver = [[0] * n] * n + [y]
    for c, row in zip(pivots, rows[:n - 1]):
        solver[c] = row[n:]
    return vec_scale(gf, y, gf.sqrt(gf.div(det, y[free[0]]))), solver


# ---------------------------------------------------------------------------
# the isotropy predicate


def is_totally_isotropic(q: QuadraticForm, vectors: list) -> bool:
    """q vanishes identically on the span of independent vectors: its
    pull-back by the matrix with these columns is the zero form."""
    if rank(q.gf, vectors) != len(vectors):
        raise ValueError("spanning set is linearly dependent")
    return not any(map(any, q.transform(transpose(vectors)).rows))
