"""Kronecker bases and the (a; r) normal form of a regular pencil.

For a regular pair the associated alternating forms (b0, b1) admit a basis
(w_0..w_m, v_0..v_{m-1}) with

    b0(w_i, w_j) = b0(v_i, v_j) = 0,   b0(w_i, v_j) = delta_{i(j+1)},
    b1(w_i, w_j) = b1(v_i, v_j) = 0,   b1(w_i, v_j) = delta_{ij}.

The w-part is canonical: it consists of the coefficient vectors of the
radical map, so we never need the general minimal-indices machinery for
singular matrix pencils.  The v-part is produced by one deterministic
linear solve for the pairing conditions, then a correction inside span(w)
that kills the v-v pairings (corrections by w leave the w-v pairings
untouched because span(w) is totally isotropic).  The correction system
has 0/1 coefficients and two unknowns per equation, so it is solved by
back-substitution, without elimination.

In such a basis the pair reads

    q0 = sum a_{2i} x_i^2 + sum x_{i+1} y_i + sum r_{2i+1} y_i^2,
    q1 = sum a_{2i+1} x_i^2 + sum x_i y_i + sum r_{2i} y_i^2,

with (a_0..a_n) equal to the half-discriminant coefficients.  A NormalForm
holds (a; r), the basis matrix itself and, on first use, its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .field import Field
from .linalg import inverse, mat_mul, solve, transpose
from .pencil import Pencil
from .quadform import QuadraticForm


@dataclass(frozen=True)
class NormalForm:
    """The tuple (a_0..a_n; r_0..r_{n-2}) plus the basis realizing it: the
    columns of basis are (w_0, ..., w_m, v_0, ..., v_{m-1})."""

    gf: Field
    a: tuple
    r: tuple
    basis: tuple

    @property
    def n(self) -> int:
        return len(self.a) - 1

    @property
    def m(self) -> int:
        return (self.n - 1) // 2

    @cached_property
    def inverse(self) -> list:
        """basis^-1, inverted once per normal form."""
        return inverse(self.gf, self.basis)

    def realized(self) -> Pencil:
        """The model pencil with exactly these coefficient tables."""
        return realize(self.gf, list(self.a), list(self.r))


def complete_kronecker(p: Pencil, ws: list) -> tuple:
    """Extend the canonical w-vectors to a full Kronecker basis, returned
    as the basis matrix with columns (w_0, ..., w_m, v_0, ..., v_{m-1}).
    ws is only read: extract_normal_form passes the pencil's cached
    radical map itself.

    The m v-solves share one condition matrix (the rows of W G1, then of
    W G0), so one `solve` with all m right-hand sides gives every v_j: one
    rref, and RREF is unique, so each v_j is what a separate solve returns.
    The v-v pairings are the upper triangles of V G1 V^T and V G0 V^T, and
    the correction inside span(w) is a 0/1 system solved by
    back-substitution (`_vv_correction`).  O(n^3) multiplications.

    Nothing here checks the result: the round trip in extract_normal_form
    is its certificate, since q o B equals the realized model exactly when
    the Kronecker equations hold.  On a regular pencil the radical map
    makes the pairing system consistent, so an inconsistent one (from
    dependent w-vectors, say) is a failed certificate, not an irregular
    input."""
    gf, m = p.gf, p.m
    g0, g1 = p.q0.polar(), p.q1.polar()

    # b(w_i, x) = (w_i G) . x, so the condition rows are those of W G; v_j
    # has b1(w_i, v_j) = delta_ij and b0(w_i, v_j) = delta_{i(j+1)}
    v0 = solve(gf, mat_mul(gf, ws, g1) + mat_mul(gf, ws, g0), [
        [int(i == j) for i in range(m + 1)] + [int(i == j + 1) for i in range(m + 1)]
        for j in range(m)
    ])
    if v0 is None:
        raise AssertionError("Kronecker pairing system is inconsistent on "
                             "a regular pencil")

    # Correct v_j by elements of span(w) to kill the v-v pairings b(v_i, v_j),
    # i < j: the upper triangle of V G V^T without row m-1 and column 0
    right = transpose(v0[1:])
    c1, c0 = ([x for i, row in enumerate(mat_mul(gf, mat_mul(gf, v0[:-1], g), right))
               for x in row[i:]] for g in (g1, g0))
    sol = _vv_correction(m, c1, c0)
    corr = mat_mul(gf, [sol[j * (m + 1):(j + 1) * (m + 1)] for j in range(m)], ws)
    v0 = [[x ^ y for x, y in zip(v, c)] for v, c in zip(v0, corr)]

    return tuple(map(tuple, transpose(ws + v0)))


def _vv_correction(m: int, c1: list, c0: list) -> list:
    """The corrections l_jk (flat, index j*(m+1) + k) with
    l_ij + l_ji = c1 and l_{j(i+1)} + l_{i(j+1)} = c0 for the pairs i < j
    in the order (0,1), (0,2), ..., (m-2,m-1).

    Each row has two unknowns, and its lowest column is its pivot.  The c0
    row of (i, j) owns l_{i(j+1)}.  The c1 row of (i, j) owns l_ij when
    j = i + 1; otherwise l_ij is the c0 pivot of (i, j-1), and the sum of
    the two rows, l_{(j-1)(i+1)} + l_ji, owns l_{(j-1)(i+1)}.  These
    pivots are distinct, so the rows are independent for every m and a
    solution always exists.  Each pivot is its right-hand side plus one
    later unknown: solved from the highest pivot down, with the free
    unknowns zero, this is linalg.solve's solution."""
    def var(j, k):
        return j * (m + 1) + k

    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    b0 = dict(zip(pairs, c0))
    rows = []  # (pivot, the other unknown, right-hand side)
    for (i, j), r1, r0 in zip(pairs, c1, c0):
        rows.append((var(i, j + 1), var(j, i + 1), r0))
        rows.append((var(j - 1, i + 1), var(j, i), r1 ^ b0.get((i, j - 1), 0)))
    x = [0] * (m * (m + 1))
    for pivot, other, b in sorted(rows, reverse=True):
        x[pivot] = b ^ x[other]
    return x


def extract_normal_form(p: Pencil) -> NormalForm:
    """Normal-form data (a, r, basis) of a regular pencil.

    a_{2i} = q0(w_i), a_{2i+1} = q1(w_i), r_{2i+1} = q0(v_i), r_{2i} = q1(v_i);
    the extracted a always equals the half-discriminant coefficients.

    Both forms are pulled back by the basis once: q(B e_i) is the diagonal
    of q o B, so a and r are read off it.  Two certificates: a equals the
    half-discriminant, and the round trip q o B = model.  The model's
    off-diagonal entries are the Kronecker pairings and its diagonal is
    q on the same basis vectors, so the round trip holds exactly when the
    Kronecker equations do.

    The round trip also certifies that B is invertible, so the w-vectors
    need no rank test of their own.  If q o B equals the model, then
    b1(w_i, w_j) = 0, b1(w_i, v_j) = delta_ij and b0(w_i, v_{m-1}) =
    delta_{im}.  In a relation sum c_i w_i + sum d_j v_j = 0, pairing
    with w_j under b1 gives d_j = 0.  Then pairing sum c_i w_i = 0 with
    v_j under b1 gives c_j = 0 for j < m, and with v_{m-1} under b0 gives
    c_m = 0.  A dependent radical map therefore fails a certificate: the
    pairing system in complete_kronecker, or else the round trip.
    """
    p.require_regular()
    b = complete_kronecker(p, p.radical_map())
    n, m = p.n, p.m
    pulled = (p.q0.transform(b), p.q1.transform(b))
    d0, d1 = ([q.rows[i][i] for i in range(n)] for q in pulled)
    a = [c for pair in zip(d0[:m + 1], d1[:m + 1]) for c in pair]
    r = [c for pair in zip(d1[m + 1:], d0[m + 1:]) for c in pair]
    if a != p.half_discriminant():
        raise AssertionError("extracted coefficients disagree with the "
                             "half-discriminant")
    # realized directly, so this certificate stays independent of
    # NormalForm.realized, which the T1.1 check tests on its own
    model = realize(p.gf, a, r)
    if pulled != (model.q0, model.q1):
        raise AssertionError("normal form does not reproduce the pencil")
    return NormalForm(p.gf, tuple(a), tuple(r), b)


def realize(gf: Field, a: list, r: list) -> Pencil:
    """The pencil with the exact normal-form tables for data (a, r).  It is
    regular exactly when Delta = a is separable; nothing checks that here."""
    n = len(a) - 1
    if n % 2 != 1 or n < 3:
        raise ValueError(f"need n odd and >= 3, got n={n}")
    if len(r) != n - 1:
        raise ValueError(f"need {n - 1} r-coefficients, got {len(r)}")
    m = (n - 1) // 2
    u0 = [[0] * n for _ in range(n)]
    u1 = [[0] * n for _ in range(n)]
    for i in range(m + 1):
        u0[i][i] = a[2 * i]
        u1[i][i] = a[2 * i + 1]
    for i in range(m):
        y = m + 1 + i
        u0[i + 1][y] = 1  # x_{i+1} y_i
        u1[i][y] = 1  # x_i y_i
        u0[y][y] = r[2 * i + 1]
        u1[y][y] = r[2 * i]
    return Pencil(*(QuadraticForm(gf, n, tuple(map(tuple, u))) for u in (u0, u1)))

