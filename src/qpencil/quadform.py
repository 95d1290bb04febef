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

from dataclasses import dataclass, field
from operator import xor

from .field import Field
from .linalg import mat_mul, rank, transpose, vec_dot, vec_scale


@dataclass(frozen=True)
class QuadraticForm:
    """q(x) = x^T U x, with U the upper-triangular coefficient matrix held
    as rows, a tuple of n row tuples: rows[i][j] is the coefficient of
    x_i x_j for i <= j, and every entry below the diagonal is zero."""

    gf: Field
    n: int
    rows: tuple
    _polar: tuple = field(default=None, init=False, compare=False, repr=False)

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
            object.__setattr__(self, "_polar", gram)
        return self._polar

    def add(self, other: "QuadraticForm") -> "QuadraticForm":
        return QuadraticForm(self.gf, self.n, tuple(
            tuple(map(xor, r, s)) for r, s in zip(self.rows, other.rows)))

    def scale(self, c: int) -> "QuadraticForm":
        mul = self.gf.mul
        return QuadraticForm(self.gf, self.n, tuple(
            tuple(mul(c, x) if x else 0 for x in row) for row in self.rows))

    def transform(self, g: list) -> "QuadraticForm":
        """The pulled-back form q o g, i.e. (q o g)(v) = q(g v), for an n x k
        matrix g: on k variables, the restriction of q to the span of g's
        columns.

        q o g has the matrix K = g^T U g read back to upper-triangular form:
        (q o g)_ii = K_ii and (q o g)_ij = K_ij + K_ji.  Two matrix products,
        O(n^2 k) multiplications.
        """
        k = len(g[0])
        c = mat_mul(self.gf, transpose(g), mat_mul(self.gf, self.rows, g))
        return QuadraticForm(self.gf, k, tuple(
            (0,) * i + (row[i],) + tuple(map(xor, row[i + 1:], col[i + 1:]))
            for i, (row, col) in enumerate(zip(c, zip(*c)))))

    def map_field(self, emb) -> "QuadraticForm":
        return QuadraticForm(emb.dst, self.n, tuple(
            tuple(map(emb.map, row)) for row in self.rows))


# ---------------------------------------------------------------------------
# Pfaffians


def pfaffian_vector(gf: Field, gram) -> list:
    """Principal Pfaffians (delete row/column i) of an odd-size alternating
    matrix; spans the radical when the corank is 1, zero when corank >= 3.

    Fraction-free elimination, O(n^3) multiplications and one inversion: a
    pivot p = a_ij turns the other rows R into S = p*A_RR + x y^T + y x^T
    (x, y: rows i, j on R), p times the Schur complement.  Back-substitution
    sets omega_R = p*omega(S) and, from A omega = 0 (no signs in
    characteristic 2), omega_i = y.omega(S), omega_j = x.omega(S); at the end
    everything is divided by the product of the p^((|R|-1)/2).
    """
    s = len(gram)
    if s % 2 != 1:
        raise ValueError("Pfaffian vector needs odd size")
    mul = gf.mul
    a = [list(row) for row in gram]
    alive = list(range(s))
    pivots = []
    scale = 1
    while len(alive) > 1:
        pivot = next(((i, j) for i in alive for j in alive if i < j and a[i][j]), None)
        if pivot is None:
            return [0] * s  # a zero block of size >= 3: corank >= 3
        i, j = pivot
        p = a[i][j]
        alive = [t for t in alive if t != i and t != j]
        for k, u in enumerate(alive):
            row, xu, yu = a[u], a[i][u], a[j][u]
            for v in alive[k + 1 :]:
                row[v] = a[v][u] = mul(p, row[v]) ^ mul(xu, a[j][v]) ^ mul(yu, a[i][v])
        pivots.append((i, j, p))
        scale = mul(scale, gf.pow(p, (len(alive) - 1) // 2))
    omega = [0] * s
    omega[alive[0]] = 1
    for i, j, p in reversed(pivots):
        # entries outside omega(S) are still zero, so whole rows can be dotted
        wi, wj = vec_dot(gf, a[j], omega), vec_dot(gf, a[i], omega)
        omega = vec_scale(gf, omega, p)
        omega[i], omega[j] = wi, wj
    return vec_scale(gf, omega, gf.inv(scale))


# ---------------------------------------------------------------------------
# the isotropy predicate


def is_totally_isotropic(q: QuadraticForm, vectors: list) -> bool:
    """q vanishes identically on the span of independent vectors: its
    pull-back by the matrix with these columns is the zero form."""
    if rank(q.gf, vectors) != len(vectors):
        raise ValueError("spanning set is linearly dependent")
    return not any(map(any, q.transform(transpose(vectors)).rows))
