"""Univariate and binary-homogeneous polynomial arithmetic over GF(2^k).

Univariate polynomials are lists of field elements indexed by degree with
trailing zeros trimmed (the zero polynomial is []).  Binary forms of
degree d are lists of length d+1, index i holding the coefficient of
t0^(d-i) t1^i.

Factorization takes squarefree polynomials only (checked by the gcd with
the derivative) and runs distinct-degree, then equal-degree splitting by
Artin-Schreier trace maps; the usual odd characteristic power trick fails
at p = 2.  Equal-degree splitting draws candidates from a generator seeded
by the input, so runs are reproducible.
Roots are the constant terms of the linear factors; no field is scanned.

Both splitting stages spend their time squaring modulo a polynomial, and
in characteristic 2 that map is additive: h^2 = sum h_i^2 T^(2i) mod m,
the fact behind Berlekamp's Q-matrix (1970).  So each modulus gets one squaring table, the
rows T^(2i) mod m (square_table), and a squaring is one kernel call with
the coefficients h_i^2 (square_mod).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .linalg import mat_vec, vec_scale

if TYPE_CHECKING:
    from .field import Field


# ---------------------------------------------------------------------------
# basics


def trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(c: list) -> int:
    return len(c) - 1


def add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, x in enumerate(b):
        out[i] ^= x
    return trim(out)


def mul(gf: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    return trim(bf_mul(gf, a, b))


def monic(gf: Field, a: list) -> list:
    if not a:
        return []
    lead = a[-1]
    if lead == 1:
        return a[:]
    return vec_scale(gf, a, gf.inv(lead))


def divmod_(gf: Field, a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = a[:]
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = gf.inv(b[-1])
    db = degree(b)
    while len(r) - 1 >= db and r:
        d = len(r) - 1 - db
        coef = gf.mul(r[-1], inv_lead)
        q[d] = coef
        r[d:] = gf.addmul(r[d:], (coef,), (b,))
        if r[-1]:  # the only exit needs each step to cancel the top
            raise AssertionError("a division step left the leading coefficient")
        trim(r)
    return trim(q), r


def mod(gf: Field, a: list, b: list) -> list:
    return divmod_(gf, a, b)[1]


def divexact(gf: Field, a: list, b: list) -> list:
    q, r = divmod_(gf, a, b)
    if r:
        raise ValueError("polynomial division is not exact")
    return q


def gcd(gf: Field, a: list, b: list) -> list:
    """Monic gcd; gcd(p, 0) = monic(p); both zero is an error."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, mod(gf, a, b)
    return monic(gf, a)


def extended_gcd(gf: Field, a: list, b: list) -> tuple[list, list, list]:
    """(g, u, v) with u*a + v*b = g monic."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_(gf, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, mul(gf, q, s1))
        t0, t1 = t1, add(t0, mul(gf, q, t1))
    if not r0:
        raise ValueError("gcd(0, 0) is undefined")
    c = gf.inv(r0[-1])
    return vec_scale(gf, r0, c), vec_scale(gf, s0, c), vec_scale(gf, t0, c)


def derivative(gf: Field, a: list) -> list:
    """Formal derivative; in char 2 only odd-degree terms survive."""
    return trim([a[i] if i % 2 == 1 else 0 for i in range(1, len(a))])


def square_table(gf: Field, m: list) -> list:
    """The rows T^(2i) mod m for i < deg m, each of length deg m.  Row i+1
    is row i times T twice, reduced after each step: O(deg m) kernel work
    per row."""
    d = degree(m)
    low, inv_lead = m[:d], gf.inv(m[-1])
    rows = [[1] + [0] * (d - 1)]
    while len(rows) < d:
        row = rows[-1]
        for _ in range(2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = gf.addmul(row, (gf.mul(top, inv_lead),), (low,))
        rows.append(row)
    return rows


def square_mod(gf: Field, h: list, table: list) -> list:
    """h^2 mod m = sum h_i^2 T^(2i) mod m, with table = square_table(gf, m);
    h must already be reduced below deg m."""
    if len(h) > len(table):
        raise ValueError("square_mod needs h reduced below the modulus degree")
    return trim(gf.addmul([0] * len(table), [gf.mul(c, c) for c in h], table))


def is_separable(gf: Field, p: list) -> bool:
    """gcd(p, p') = 1, i.e. distinct roots in the algebraic closure."""
    if not p:
        raise ValueError("separability of the zero polynomial is undefined")
    d = derivative(gf, p)
    if not d:
        return degree(p) == 0
    return gcd(gf, p, d) == [1]


# ---------------------------------------------------------------------------
# factorization


def _seed_from(gf: Field, p: list, salt: int) -> int:
    s = salt
    for c in p:
        s = (s * 1315423911 + c + 7) % (1 << 61)
    return s ^ gf.modulus


def _distinct_degree(gf: Field, p: list) -> list[tuple[list, int]]:
    """Split a squarefree monic p into (product of irreducibles of degree d, d)."""
    out = []
    table = square_table(gf, p)
    h = [0, 1]  # T, then T^(q^d) mod p; gcd(h + T, v) only needs h mod v
    v = p[:]
    d = 0
    while degree(v) > 0:
        d += 1
        if 2 * d > degree(v):
            out.append((v, degree(v)))
            break
        for _ in range(gf.degree):
            h = square_mod(gf, h, table)
        g = gcd(gf, add(h, [0, 1]), v)
        if degree(g) > 0:
            out.append((g, d))
            v = divexact(gf, v, g)
    return out


def _equal_degree_split(gf: Field, p: list, d: int, rng: random.Random) -> list:
    """All monic irreducible factors of p, each of degree d (Artin-Schreier
    trace splitting in characteristic 2)."""
    if degree(p) == d:
        return [p]
    bits = gf.degree * d  # factors have 2^bits elements
    table = square_table(gf, p)
    while True:
        h = [rng.randrange(gf.order) for _ in range(degree(p))]
        trim(h)
        if degree(h) < 1:
            continue
        # absolute trace map of h modulo p: h + h^2 + h^4 + ... (bits terms)
        tr = h[:]
        sq = h[:]
        for _ in range(bits - 1):
            sq = square_mod(gf, sq, table)
            tr = add(tr, sq)
        g = gcd(gf, tr, p) if tr else []
        if g and 0 < degree(g) < degree(p):
            return _equal_degree_split(gf, g, d, rng) + _equal_degree_split(
                gf, divexact(gf, p, g), d, rng
            )


def factor(gf: Field, p: list) -> list[list]:
    """The monic irreducible factors of a squarefree, non-constant p, sorted
    by degree and then by coefficients; their product is monic(p).

    A constant or a polynomial with a repeated factor raises ValueError:
    every polynomial the package factors (Delta of a regular pencil, the
    algebra's f, field moduli, T^n + c with n odd) is squarefree."""
    if degree(p) < 1:
        raise ValueError("cannot factor a constant polynomial")
    if not is_separable(gf, p):
        raise ValueError("cannot factor a polynomial with a repeated factor")
    rng = random.Random(_seed_from(gf, p, 0x5EED))
    out = []
    for part, d in _distinct_degree(gf, monic(gf, p)):
        out.extend(_equal_degree_split(gf, part, d, rng))
    return sorted(out, key=lambda f: (len(f), f))


def roots(gf: Field, p: list) -> list[int]:
    """The roots of a squarefree p in gf itself, sorted: the constant terms
    of the monic linear factors (in characteristic 2, -a = a).  A constant
    has none; a repeated factor raises ValueError, as in factor."""
    if not p:
        raise ValueError("every element is a root of the zero polynomial")
    if degree(p) == 0:
        return []
    return sorted(f[0] for f in factor(gf, p) if len(f) == 2)


# ---------------------------------------------------------------------------
# binary forms: homogeneous in (t0, t1), index i <-> t0^(d-i) t1^i


def bf_mul(gf: Field, a: list, b: list) -> list:
    """The product of two nonempty coefficient lists, untrimmed: a binary
    form of degree deg a + deg b.  One kernel call: the sum, over the
    nonzero a_i of the list with fewer of them, of a_i times the other
    list shifted by i."""
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, b = b, a
    la = len(a)
    width = la + len(b) - 1
    padded = [0] * (la - 1) + b + [0] * (la - 1)
    shifts = [i for i, c in enumerate(a) if c]
    return gf.addmul([0] * width, [a[i] for i in shifts],
                     [padded[la - 1 - i:la - 1 - i + width] for i in shifts])


def bf_eval(gf: Field, c: list, t0: int, t1: int) -> int:
    d = degree(c)
    mul_ = gf.mul
    acc = 0
    p0 = [1]
    for _ in range(d):
        p0.append(mul_(p0[-1], t0))
    p1 = 1
    for i in range(d + 1):
        if c[i]:
            acc ^= mul_(c[i], mul_(p0[d - i], p1))
        p1 = mul_(p1, t1)
    return acc


def bf_substitution_matrix(gf: Field, m2: list, d: int) -> list:
    """Matrix of the substitution t0 -> m00*t0 + m01*t1, t1 -> m10*t0 + m11*t1
    on binary forms of degree d: column i holds the coefficients of
    (m00*t0 + m01*t1)^(d-i) (m10*t0 + m11*t1)^i."""
    l0 = [m2[0][0], m2[0][1]]
    l1 = [m2[1][0], m2[1][1]]
    pow0 = [[1]]
    pow1 = [[1]]
    for _ in range(d):
        pow0.append(bf_mul(gf, pow0[-1], l0))
        pow1.append(bf_mul(gf, pow1[-1], l1))
    cols = [bf_mul(gf, pow0[d - i], pow1[i]) for i in range(d + 1)]
    return [list(row) for row in zip(*cols)]


def bf_substitute(gf: Field, c: list, m2: list) -> list:
    """Coefficients of form(m00*t0 + m01*t1, m10*t0 + m11*t1)."""
    return mat_vec(gf, bf_substitution_matrix(gf, m2, degree(c)), c)


def bf_is_separable(gf: Field, c: list) -> bool:
    """Distinct projective roots over the closure, the root at infinity
    included: the dehomogenization must be squarefree and t0^2 must not
    divide the form."""
    if all(x == 0 for x in c):
        return False
    f = trim(c[:])  # form(1, T): the coefficient list reads off directly
    if degree(c) - degree(f) > 1:
        return False  # [1:0] is a multiple root
    return is_separable(gf, f)


def bf_projective_roots(c: list, factors) -> list[tuple[int, int]]:
    """Normalized projective roots (t0, t1) of a nonzero form, given the
    factors of its dehomogenization form(1, T) as factor returns them: the
    affine roots (1, x) in increasing order, then (0, 1) if t0 divides."""
    if not any(c):
        raise ValueError("the zero form vanishes everywhere")
    return [(1, f[0]) for f in factors if len(f) == 2] + ([] if c[-1] else [(0, 1)])
