"""Dense exact linear algebra over GF(2^k) contexts.

Vectors are sequences of ints and a matrix is any sequence of row
sequences (lists or tuples); results are lists.  Inputs are never
modified: the eliminations copy the rows they update.  Pivoting is always
on the lowest-index column and free variables are set to zero, so every
routine is deterministic.  A bit-packed GF(2) toolkit for subspace
work inside etale algebras lives at the bottom.
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
    """a v, as the combination of the columns of a with the entries of v."""
    return gf.addmul([0] * len(a), v, zip(*a))


def mat_mul(gf: Field, a: list, b: list) -> list:
    """a b, by the field's packed matrix-product kernel, Field.mat_mul."""
    return gf.mat_mul(a, b)


def vec_dot(gf: Field, u: list, v: list) -> int:
    acc = 0
    mul = gf.mul
    for x, y in zip(u, v):
        if x and y:
            acc ^= mul(x, y)
    return acc


def vec_scale(gf: Field, v: list, c: int) -> list:
    return gf.addmul([0] * len(v), (c,), (v,))


def rref(gf: Field, a: list) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = gf.inv(m[r][c])
        if inv != 1:
            m[r] = vec_scale(gf, m[r], inv)
        # columns before c are zero in row r
        pivot_row = (m[r][c:],)
        for i in range(nrows):
            if i != r and m[i][c]:
                m[i][c:] = gf.addmul(m[i][c:], (m[i][c],), pivot_row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


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
    m, pivots = rref(gf, aug)
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
    m, pivots = rref(gf, a)
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
    m, pivots = rref(gf, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def lu_solver(gf: Field, a: list):
    """For a nonsingular square a, the function b -> x with a x = b.

    One row-pivoted elimination P a = L U, O(n^3) products, is kept; each
    solve then applies L and U column by column through the kernel, n^2
    products.  Pivoting is on the lowest-index row, so the solves are
    deterministic.
    """
    n = len(a)
    m = [list(row) for row in a]
    order = list(range(n))
    for k in range(n):
        sel = next((i for i in range(k, n) if m[i][k]), None)
        if sel is None:
            raise ValueError("matrix is singular")
        m[k], m[sel] = m[sel], m[k]
        order[k], order[sel] = order[sel], order[k]
        inv = gf.inv(m[k][k])
        m[k][k + 1:] = vec_scale(gf, m[k][k + 1:], inv)  # U has a unit diagonal
        m[k][k] = inv
        pivot_row = (m[k][k + 1:],)
        for i in range(k + 1, n):
            if m[i][k]:  # kept below the diagonal as L's multiplier
                m[i][k + 1:] = gf.addmul(m[i][k + 1:], (m[i][k],), pivot_row)
    # column k: U above the diagonal, the pivot's inverse on it, L below
    cols = [(col[:k], col[k], col[k + 1:]) for k, col in enumerate(zip(*m))]

    def solve_one(b):
        x = [b[i] for i in order]
        for k, (_, inv, low) in enumerate(cols):
            x[k] = c = gf.mul(x[k], inv)
            if c and low:
                x[k + 1:] = gf.addmul(x[k + 1:], (c,), (low,))
        for k in range(n - 1, 0, -1):
            if x[k]:
                x[:k] = gf.addmul(x[:k], (x[k],), (cols[k][0],))
        return x

    return solve_one


def normalize_subspace(gf: Field, vectors: list) -> tuple:
    """Canonical (rref, zero rows dropped) representation of a span."""
    m, pivots = rref(gf, vectors)
    return tuple(tuple(row) for row in m[: len(pivots)])


def intersect_dim(gf: Field, span_a, span_b) -> int:
    """Linear dimension of the intersection of two row spans."""
    return rank(gf, span_a) + rank(gf, span_b) - rank(gf, [*span_a, *span_b])


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-packed vectors (ints)


def gf2_pivots(columns: list[int]) -> list[tuple[int, int]]:
    """(value, combination) pairs spanning the columns, with distinct
    leading bits in descending order; bit j of a combination is column j."""
    by_lead: dict[int, tuple[int, int]] = {}
    leads = 0  # the pivots' leading bits
    for j, col in enumerate(columns):
        combo = 1 << j
        # the pivot to use next is the one whose leading bit is the
        # highest bit of col among the leads; the reduction is unique
        while hit := col & leads:
            val, cmb = by_lead[hit.bit_length()]
            col ^= val
            combo ^= cmb
        if col:
            by_lead[col.bit_length()] = col, combo
            leads |= 1 << (col.bit_length() - 1)
    return [by_lead[b] for b in sorted(by_lead, reverse=True)]


def gf2_reduce(v: int, pivots) -> tuple[int, int]:
    """The remainder of v with none of the pivots' leading bits set, and
    the combination of columns whose xor is v + remainder."""
    combo = 0
    for val, cmb in pivots:
        if v ^ val < v:
            v ^= val
            combo ^= cmb
    return v, combo
