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

Both splitting stages take powers modulo a polynomial m, and on
k[T]/(m), k = GF(q), the map h -> h^q is k-linear: h^q = sum h_i T^(qi)
mod m, Berlekamp's Q-matrix (1970).  Squaring is additive too, so each
modulus gets one squaring table, the rows T^(2i) mod m (square_table), and
a squaring is one kernel call with the coefficients h_i^2 (square_mod).
The first distinct-degree step takes T^q by k squarings; when a second
step runs, Q's rows T^(qi) mod m become one prepared operand, and every
later step is one combination of them instead of k squarings.  Equal-
degree splitting takes the absolute trace as Tr_{q/2} of Tr_{q^d/q}: d - 1
q-th powers, then k - 1 squarings.  Below the field degree _Q_DEGREE the
k squarings cost less than Q's rows, and a q-th power stays squarings.
The tables carry their rows as prepared operands of the field
(Field.prepare), built with them and dropped with them, and the h_i^2 come
from one packed Frobenius (Field.squares); a division prepares its divisor
once and keeps the remainder packed (divmod_).
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
    """(quotient, remainder).  The divisor is prepared once and the
    remainder stays one packed row, read one top entry per step, until a
    single unpack."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a[:]
    bits, db = gf.slot_bits, degree(b)
    divisor = gf.prepare((gf.pack(b),), len(b))
    inv_lead = gf.inv(b[-1])
    r = gf.pack(a)
    q = [0] * (len(a) - db)
    top = len(a) - 1
    while top >= db:
        lead = gf.entry(r, top)
        if lead:
            d = top - db
            q[d] = coef = gf.mul(lead, inv_lead)
            r ^= gf.combine(divisor, (coef,)) << d * bits
        top -= 1
    # each step must cancel its top coefficient; a step leaves the entries
    # above its top alone, so one check covers them all (cancelled, on the
    # wide kernel they may still hold multiples of the modulus)
    low = (top + 1) * bits
    if gf.reduce(r >> low, len(a) - 1 - top):
        raise AssertionError("a division step left the leading coefficient")
    return trim(q), trim(gf.unpack(r & ((1 << low) - 1), top + 1))


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


def inverse_mod(gf: Field, a: list, m: list) -> list | None:
    """The inverse of a modulo m, of degree below deg m, or None when a and
    m are not coprime.  Euclid on (m, a mod m) keeps only a's cofactor:
    t a = r modulo m for each remainder r, so at the last nonzero r, a
    constant when they are coprime, t / r is the inverse."""
    r0, r1 = m[:], mod(gf, a, m)
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_(gf, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, add(t0, mul(gf, q, t1))
    if degree(r0) > 0:
        return None
    return vec_scale(gf, t0, gf.inv(r0[0]))


def derivative(gf: Field, a: list) -> list:
    """Formal derivative; in char 2 only odd-degree terms survive."""
    return trim([a[i] if i % 2 == 1 else 0 for i in range(1, len(a))])


def _times_t(gf: Field, m: list, row: int, count: int, step: int) -> list:
    """The packed rows row T^(step i) mod m, i < count, each reduced, for a
    packed row of deg m entries, one multiply-by-T-and-reduce step at a
    time: O(deg m) kernel work per step."""
    d = degree(m)
    inv_lead = gf.inv(m[-1])
    # times T moves every entry of a packed row up one slot, and the one
    # that leaves the row, reduced, brings its multiple of low back
    bits, below = gf.slot_bits, (1 << d * gf.slot_bits) - 1
    low = gf.prepare((gf.pack(m[:d]),), d)
    out = [gf.reduce(row, d)]
    while len(out) < count:
        for _ in range(step):
            row <<= bits
            top = gf.entry(row, d)
            row &= below
            if top:
                row ^= gf.combine(low, (gf.mul(top, inv_lead),))
        out.append(gf.reduce(row, d))
    return out


def square_table(gf: Field, m: list) -> tuple:
    """The rows T^(2i) mod m for i < deg m, each of length deg m, and the
    same rows as one prepared operand (Field.prepare).  Row i+1 is row i
    times T twice, reduced after each step."""
    d = degree(m)
    packed = _times_t(gf, m, 1, d, 2)
    return gf.unpack_rows(packed, d), gf.prepare(packed, d)


def square_mod(gf: Field, h: list, table: tuple) -> list:
    """h^2 mod m = sum h_i^2 T^(2i) mod m, with table = square_table(gf, m);
    h must already be reduced below deg m.  One kernel call: the squares of
    the h_i in one Field.squares, then a combination of the table's
    prepared rows."""
    rows, prepared = table
    if len(h) > len(rows):
        raise ValueError("square_mod needs h reduced below the modulus degree")
    return trim(gf.unpack(gf.combine(prepared, gf.squares(h)), len(rows)))


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


# Berlekamp's Q pays for its rows from this field degree on: below it a
# q-th power stays k squarings (the cut-over is measured in CHANGES.md)
_Q_DEGREE = 6


def _squarings(gf: Field, h: list, table: tuple, count: int) -> list:
    """h^(2^count) mod m, with table = square_table(gf, m)."""
    for _ in range(count):
        h = square_mod(gf, h, table)
    return h


def _frobenius_matrix(gf: Field, m: list, xq: list) -> tuple:
    """Berlekamp's Q for a monic m, given xq = T^q mod m: the rows T^(qi)
    mod m, i < deg m, as one prepared operand, so that h^q = sum h_i
    T^(qi) mod m (h_i^q = h_i) is one combination of them (_qth_power).
    The rows T^i xq mod m come one from the last by the step of
    square_table, and then row i of Q is row i-1 times xq, one combination
    of them."""
    d = degree(m)
    shifted = gf.prepare(_times_t(gf, m, gf.pack(xq), d, 1), d)
    rows, h = [1], [1]
    while len(rows) < d:
        rows.append(gf.reduce(gf.combine(shifted, h), d))
        h = gf.unpack(rows[-1], d)
    return gf.prepare(rows, d)


def _qth_power(gf: Field, h: list, frob: tuple) -> list:
    """h^q mod m for h reduced below deg m, with frob = _frobenius_matrix(gf, m, .)."""
    return trim(gf.unpack(gf.combine(frob, h), frob[1]))


def _distinct_degree(gf: Field, p: list, table: tuple) -> tuple:
    """Split a squarefree monic p into (product of irreducibles of degree d,
    d), with table = square_table(gf, p); also returns p's Q, or None when
    it was not built.  The first step takes T^q by k squarings, and from
    _Q_DEGREE on each later one is one product with Q, built at the
    second step."""
    out = []
    h = [0, 1]  # T, then T^(q^d) mod p; gcd(h + T, v) only needs h mod v
    v = p[:]
    d = 0
    frob = None
    while degree(v) > 0:
        d += 1
        if 2 * d > degree(v):
            out.append((v, degree(v)))
            break
        if d > 1 and gf.degree >= _Q_DEGREE:
            if frob is None:
                frob = _frobenius_matrix(gf, p, xq)
            h = _qth_power(gf, h, frob)
        else:
            h = _squarings(gf, h, table, gf.degree)
            if d == 1:
                xq = h
        g = gcd(gf, add(h, [0, 1]), v)
        if degree(g) > 0:
            out.append((g, d))
            v = divexact(gf, v, g)
    return out, frob


def _equal_degree_split(gf: Field, part: list, d: int, p: list, table: tuple, frob,
                        rng: random.Random) -> list:
    """All monic irreducible factors of part, each of degree d, for a
    divisor of p that _distinct_degree split off, with p's squaring table
    and its Q or None (Artin-Schreier trace splitting in characteristic
    2).  The absolute trace of a random h modulo part is Tr_{q/2} of
    Tr_{q^d/q}(h) = h + h^q + ... + h^(q^(d-1)): d - 1 q-th powers, by Q
    modulo p or else by k squarings modulo part, then k - 1 squarings
    modulo part, by a table built for each part but p; it is 0 or 1 modulo
    each factor, so its gcd with part splits part with probability at
    least 1/2."""
    if degree(part) == d:
        return [part]
    sub = table if part == p else square_table(gf, part)
    while True:
        h = trim([rng.randrange(gf.order) for _ in range(degree(part))])
        if degree(h) < 1:
            continue
        t = tr = h
        for _ in range(d - 1):
            t = _squarings(gf, t, sub, gf.degree) if frob is None else _qth_power(gf, t, frob)
            tr = add(tr, t)
        if frob is not None:  # Q's powers are reduced modulo p only
            tr = mod(gf, tr, part)
        sq = tr
        for _ in range(gf.degree - 1):
            sq = square_mod(gf, sq, sub)
            tr = add(tr, sq)
        g = gcd(gf, tr, part)
        if 0 < degree(g) < degree(part):
            return (_equal_degree_split(gf, g, d, p, table, frob, rng)
                    + _equal_degree_split(gf, divexact(gf, part, g), d, p, table, frob, rng))


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
    m = monic(gf, p)
    table = square_table(gf, m)
    parts, frob = _distinct_degree(gf, m, table)
    out = []
    for part, d in parts:
        out.extend(_equal_degree_split(gf, part, d, m, table, frob, rng))
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
    form of degree deg a + deg b.  One one-row product: the sum, over the
    nonzero a_i of the list with fewer of them, of a_i times the other
    list shifted by i (a_0 alone when a is zero, so the row has its width)."""
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, b = b, a
    la = len(a)
    width = la + len(b) - 1
    padded = [0] * (la - 1) + b + [0] * (la - 1)
    shifts = [i for i, c in enumerate(a) if c] or [0]
    return gf.mat_mul([[a[i] for i in shifts]],
                      [padded[la - 1 - i:la - 1 - i + width] for i in shifts])[0]


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
