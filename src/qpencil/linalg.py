"""Dense exact linear algebra over GF(2^k) contexts.

Vectors are sequences of ints and a matrix is any sequence of row
sequences (lists or tuples); results are lists.  Inputs are never
modified: the eliminations copy the rows they update.  Pivoting is always
on the lowest-index column and free variables are set to zero, so every
routine is deterministic.  Every product of vectors is one call of the
field's packed product, Field.mat_mul: mat_vec and vec_scale are one-row
products.  There is no factorization to keep: a caller that solves with
one matrix many times (the Kronecker chain, pencil._chain) reads a solve
operator off one rref of the matrix beside the identity and applies it as
a prepared operand, one Field.combine per right-hand side.  The GF(2)
elimination of the etale algebra's subspace k + wp(A) lives in algebra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .field import Field


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def mat_vec(gf: Field, a: list, v: list) -> list:
    """a v, as the one-row product v^T a^T: the combination of the columns
    of a with the entries of v."""
    return gf.mat_mul([v], list(zip(*a)))[0]


def mat_mul(gf: Field, a: list, b: list) -> list:
    """a b, by the field's packed matrix-product kernel, Field.mat_mul."""
    return gf.mat_mul(a, b)


def vec_scale(gf: Field, v: list, c: int) -> list:
    return gf.mat_mul([[c]], [v])[0]


def rref(gf: Field, a: list) -> tuple[list, list, list]:
    """Reduced row echelon form; returns (rows, pivot column indices, the
    raw pivot each pivot row was divided by).  The raw pivots multiply to
    det(a) for a square a of full rank; only radical_elimination reads them.

    Each row is one packed int (Field.pack) from entry to exit.  Per pivot
    one Field.column call reads the pivot column of every row, the pivot
    row is reduced and scaled, and one Field.eliminate call adds its
    multiple, from the pivot column on, to every other row, unreduced.
    One Field.unpack_rows of all the rows at the end."""
    m = list(map(gf.pack, a))
    nrows = len(m)
    ncols = len(a[0]) if nrows else 0
    bits = gf.slot_bits
    pivots = []
    scales = []
    r = 0
    for c in range(ncols):
        col = gf.column(m, c)
        for sel in range(r, nrows):
            if col[sel]:
                break
        else:
            continue
        m[r], m[sel] = m[sel], m[r]
        e = col[sel]
        col[sel] = col[r]
        col[r] = 0
        p = gf.reduce(m[r], ncols)
        if e != 1:
            p = gf.reduce(gf.combine(gf.prepare((p,), ncols), (gf.inv(e),)), ncols)
        m[r] = p
        # columns before c are zero in row r
        shift = c * bits
        gf.eliminate(m, p >> shift, ncols - c, col, shift)
        pivots.append(c)
        scales.append(e)
        r += 1
        if r == nrows:
            break
    return gf.unpack_rows(m, ncols), pivots, scales


def rank(gf: Field, a: list) -> int:
    return len(rref(gf, a)[1])


def solve(gf: Field, a: list, bs: list):
    """One solution of a x = b for each right-hand side b in bs, free
    variables zero, from one rref of a augmented with all of them; None
    when any of them is inconsistent."""
    if not a:
        return None
    ncols = len(a[0])
    aug = [[*row, *rhs] for row, rhs in zip(a, zip(*bs))]
    m, pivots, _ = rref(gf, aug)
    if pivots and pivots[-1] >= ncols:
        return None  # a pivot in an augmented column: inconsistent
    xs = [[0] * ncols for _ in bs]
    for row, c in zip(m, pivots):
        for x, v in zip(xs, row[ncols:]):
            x[c] = v
    return xs


def nullspace(gf: Field, a: list) -> list:
    """Deterministic basis of {x : a x = 0} (one vector per free column)."""
    if not a:
        return []
    m, pivots, _ = rref(gf, a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = m[r][fc]  # char 2: -x = x
        basis.append(v)
    return basis


def inverse(gf: Field, a: list) -> list:
    n = len(a)
    aug = [[*row, *e] for row, e in zip(a, identity(n))]
    m, pivots, _ = rref(gf, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def normalize_subspace(gf: Field, vectors: list) -> tuple:
    """Canonical (rref, zero rows dropped) representation of a span."""
    m, pivots, _ = rref(gf, vectors)
    return tuple(tuple(row) for row in m[: len(pivots)])


def intersect_dim(gf: Field, span_a, span_b) -> int:
    """Linear dimension of the intersection of two row spans."""
    return rank(gf, span_a) + rank(gf, span_b) - rank(gf, [*span_a, *span_b])
