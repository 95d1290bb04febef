"""Quadratic forms and their polar forms in characteristic 2.

A quadratic form is an upper-triangular coefficient table q = sum a_ij x_i x_j
(0-based, i <= j); its polar form b(v, w) = q(v+w) + q(v) + q(w) is alternating
because the characteristic is 2, and polar() returns its Gram matrix, which is
symmetric with zero diagonal by construction.  On odd-dimensional spaces the
vector of principal Pfaffians spans the radical of a corank-1 alternating
form, and q evaluated there is the half-discriminant, the degree-n substitute
for the vanishing determinant.

The volume form is fixed once and for all as e_1 ^ ... ^ e_n -> 1 in the
standard basis, so Pfaffian vectors and half-discriminants are exact values,
not classes modulo squares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field
from .linalg import mat_mul, rank, transpose, vec_dot, vec_scale


@dataclass(frozen=True)
class QuadraticForm:
    """q = sum over i <= j of coeffs[(i,j)] x_i x_j, stored sparsely."""

    gf: Field
    n: int
    coeffs: tuple  # sorted ((i, j), c) with i <= j and c != 0

    @staticmethod
    def from_table(gf: Field, n: int, table) -> "QuadraticForm":
        merged: dict = {}
        items = table.items() if isinstance(table, dict) else table
        for key, c in items:
            i, j = key
            if not (0 <= i <= j < n):
                raise ValueError(f"coefficient index {(i, j)} out of range for n={n}")
            if not (0 <= c < gf.order):
                raise ValueError(f"{c} is not an element of {gf!r}")
            if c:
                k = (i, j)
                merged[k] = merged.get(k, 0) ^ c
        cleaned = tuple(sorted((k, c) for k, c in merged.items() if c))
        return QuadraticForm(gf, n, cleaned)

    def table(self) -> dict:
        return {k: c for k, c in self.coeffs}

    def __call__(self, v: list) -> int:
        mul = self.gf.mul
        acc = 0
        for (i, j), c in self.coeffs:
            p = mul(v[i], v[j])
            if p:
                acc ^= mul(c, p)
        return acc

    def polar(self) -> tuple:
        """The Gram matrix of b, b(v, w) = v^T G w, as a tuple of row tuples."""
        n = self.n
        gram = [[0] * n for _ in range(n)]
        for (i, j), c in self.coeffs:
            if i != j:
                gram[i][j] ^= c
                gram[j][i] ^= c
        return tuple(tuple(r) for r in gram)

    def polar_pair(self, v: list, w: list) -> int:
        """b(v, w) without materializing the Gram matrix."""
        mul = self.gf.mul
        acc = 0
        for (i, j), c in self.coeffs:
            if i != j:
                p = mul(v[i], w[j]) ^ mul(v[j], w[i])
                if p:
                    acc ^= mul(c, p)
        return acc

    def add(self, other: "QuadraticForm") -> "QuadraticForm":
        t = self.table()
        for k, c in other.coeffs:
            t[k] = t.get(k, 0) ^ c
        return QuadraticForm.from_table(self.gf, self.n, t)

    def scale(self, c: int) -> "QuadraticForm":
        mul = self.gf.mul
        return QuadraticForm.from_table(
            self.gf, self.n, {k: mul(c, v) for k, v in self.coeffs}
        )

    def transform(self, g: list) -> "QuadraticForm":
        """The pulled-back form q o g, i.e. (q o g)(v) = q(g v).

        With U the upper-triangular coefficient matrix, q(x) = x^T U x, so
        q o g has the matrix K = g^T U g read back to upper-triangular form:
        (q o g)_ii = K_ii and (q o g)_ij = K_ij + K_ji.  Two matrix products,
        O(n^3) multiplications.
        """
        n = self.n
        k = mat_mul(self.gf, transpose(g), mat_mul(self.gf, self.upper_matrix(), g))
        return QuadraticForm.from_table(self.gf, n, {
            (i, j): k[i][j] ^ (k[j][i] if i != j else 0)
            for i in range(n) for j in range(i, n)
        })

    def upper_matrix(self) -> list:
        """The upper-triangular U with q(x) = x^T U x."""
        u = [[0] * self.n for _ in range(self.n)]
        for (i, j), c in self.coeffs:
            u[i][j] = c
        return u

    def map_field(self, emb) -> "QuadraticForm":
        return QuadraticForm.from_table(
            emb.dst, self.n, {k: emb.map(c) for k, c in self.coeffs}
        )

    def coefficient_vector(self) -> list:
        """Dense length n(n+1)/2 vector in (i, j) lexicographic order."""
        t = self.table()
        return [t.get((i, j), 0) for i in range(self.n) for j in range(i, self.n)]


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
    """q vanishes identically on the span: zero on basis vectors and on
    pairwise sums (which is exactly q(v_i) = 0 and b(v_i, v_j) = 0)."""
    if rank(q.gf, vectors) != len(vectors):
        raise ValueError("spanning set is linearly dependent")
    for v in vectors:
        if q(v):
            return False
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            if q.polar_pair(vectors[a], vectors[b]):
                return False
    return True
