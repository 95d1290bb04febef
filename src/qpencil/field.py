"""Exact arithmetic in GF(2^k).

Field elements are plain Python ints: bit i is the coefficient of t^i in
the power basis of GF(2)[T]/(modulus).  Addition is xor, and the zero and
one elements are the ints 0 and 1.  A Field object carries the modulus and
its kernel's tables; it is immutable after construction, so contexts can
be shared freely between threads (its two caches, of the wide kernel's
slot masks and of the ceil(k/8) byte tables of square roots that sqrt
reads, at most 2048 ints, are bounded, built on first use and hold values
that depend on the field alone).

Products of vectors are packed: a vector becomes one int, entry j in the
j-th slot of slot_bits bits (Field.pack, Field.unpack), and the kernel
entries work on whole packed rows.  Field.mat_mul(a, b) = a b forms every
product of vectors; a sum of c*v over pairs (c, v) is its one-row product
mat_mul([cs], vs)[0], which on the byte kernel xors the translated rows
straight into the result.  One of two kernels serves a field, chosen by its
degree when it is built:

- the byte-slot kernel, k <= 8: an entry takes one byte, and _rows[c] is
  the 256-byte table of x -> c x, so c times a packed row is one
  bytes.translate of the row's bytes and needs no reduction (the
  split-table method of Plank, Greenan and Miller, FAST 2013, with
  CPython's byte shuffle).  mul is _rows[a][b], inv a 256-entry table and
  squares one translate.  The tables are built by linearity, 256 rows of
  256 bytes at k = 8.
- the wide kernel, k >= 9: a slot of 32, 64 or 128 bits holds 2k bits,
  room for an unreduced product.  A packed row has its 4-bit table of
  multiples (a nibble of a coefficient picks one entry, shifted into
  place, whatever the length of the row), and a combination of rows is
  reduced by one Barrett step for every slot at once (Field._reduce), by
  mu = T^2k // modulus (exact for products of degree below 2k).  mul is
  the windowed carry-less product p2_mul reduced as one slot, and inv the
  binary extended Euclidean algorithm.  Squares packs a vector at half
  the slot width and spreads every byte to two, since squaring in GF(2)[T]
  doubles the exponents.

Packing and unpacking cost time linear in the length (int.from_bytes and
int.to_bytes, through array on the wide kernel), but on the wide kernel
each unpack also pays a fixed cost of a Barrett pass, a to_bytes, an array
and a tolist.  So Field.unpack_rows unpacks many rows together: it joins
them end to end into one int (up to _MASKS_KEPT slots a join) and pays
those costs once a join, then slices; a product of several rows
(Field.mat_mul) and an elimination's result (linalg.rref) come out of it.
The byte kernel's rows need no reduction, and joining them took 1.4-1.8x
the time of one to_bytes a row (5 x 5 to 31 x 31, k = 1 and 8), so there
each row is converted on its own.  The eliminations of linalg and the
division and squaring of poly keep their rows packed from entry to exit.
A prepared operand, Field.prepare, is reduced packed rows ready for any
number of Field.combine calls (their bytes, or their 4-bit tables): a
pivot row for every other row, a divisor for every quotient term, the rows
of a squaring table for every squaring.  A working row is a packed int
that sums such combinations, unreduced on the wide kernel, shifted to a
slot offset; Field.entry reads one slot reduced, and Field.reduce or
Field.unpack reduces every slot once at the end.  One elimination step is
two calls: Field.column reads the pivot column of every row, and
Field.eliminate adds each row's multiple of the pivot row; a multiplier of
1 is one xor, and the pivot row is prepared only for another multiplier.
On the wide kernel the column's entries are packed into one row and
reduced by one Barrett pass, and a multiple of the pivot row is read off
its 4-bit table inline, nibble by nibble.

Use the cached factories GF(k) / field_from_modulus(m) so that repeated
requests return the same context (and the same tables).  GF(k) takes its
modulus from a committed table, the smallest irreducible of each degree,
and a degree above MAX_FIELD_DEGREE = 64 is refused with a
PreconditionError before any irreducibility test.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from . import poly
from .errors import PreconditionError

_BYTE_DEGREE = 8  # the byte-slot kernel serves the degrees up to this one
# the irreducibility test grows with the degree without bound, so larger
# fields are refused before it runs
MAX_FIELD_DEGREE = 64
# array formats by item size; the packed slot is the first wide enough
_FORMATS = sorted("BHILQ", key=lambda f: array(f).itemsize)
_SWAP = sys.byteorder != "little"  # array holds items in machine order
_from_bytes = int.from_bytes  # bound once: the kernels call it per row
_MASKS_KEPT = 256  # slot masks kept per field, up to rows of this many entries
# each byte's bits moved to the even places of two bytes, the low and the
# high byte: the square of a byte in GF(2)[T]
_SPREAD = [int(f"{b:b}", 4) for b in range(256)]
_SPREAD_LOW = bytes(s & 255 for s in _SPREAD)
_SPREAD_HIGH = bytes(s >> 8 for s in _SPREAD)


# ---------------------------------------------------------------------------
# polynomials over GF(2) packed as ints (bit i = coefficient of T^i)


def p2_degree(p: int) -> int:
    """Degree of a GF(2)[T] polynomial packed as an int (-1 for zero)."""
    return p.bit_length() - 1


def _nibble_table(a: int) -> tuple:
    """The carry-less products of a with the sixteen 4-bit polynomials."""
    a2 = a << 1
    a4 = a << 2
    a8 = a << 3
    a3 = a2 ^ a
    a5 = a4 ^ a
    a6 = a4 ^ a2
    a7 = a6 ^ a
    return (0, a, a2, a3, a4, a5, a6, a7,
            a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)


def p2_mul(a: int, b: int) -> int:
    """Carry-less product of two packed GF(2)[T] polynomials, four bits of
    b at a time: t[c] is the product of a with the nibble c."""
    t = _nibble_table(a)
    r = 0
    s = (b.bit_length() + 3) & -4
    while s:
        s -= 4
        r = (r << 4) ^ t[(b >> s) & 15]
    return r


def _nibble_combine(tables: list, cs) -> int:
    """The packed sum of c*v over the pairs of cs and the 4-bit tables t of
    the packed v: t[c & 15] shifted into place for each nibble of c.  The
    first two nibbles are unrolled, so a 0 or 1 of any field, or an entry
    below 256, takes one or two lookups."""
    p = 0
    for c, t in zip(cs, tables):
        if c < 16:
            p ^= t[c]
        elif c < 256:
            p ^= t[c & 15] ^ t[c >> 4] << 4
        else:
            s = 0
            while c:
                p ^= t[c & 15] << s
                c >>= 4
                s += 4
    return p


def _byte_combine(rows: list, prepared: list, cs) -> int:
    """The packed sum of c*v over the pairs of cs and the byte kernel's
    prepared rows (v as an int, v's bytes): a c = 1 adds v itself, any
    other c the bytes of v translated by rows[c], the table of x -> c x."""
    p = 0
    for c, (v, data) in zip(cs, prepared):
        if c == 1:
            p ^= v
        elif c:
            p ^= _from_bytes(data.translate(rows[c]), "little")
    return p


def _linear_map(images, a: int) -> int:
    """The image of a under the GF(2)-linear map that takes bit i to
    images[i]: the xor of the images of the set bits of a."""
    r = 0
    while a:
        low = a & -a
        r ^= images[low.bit_length() - 1]
        a ^= low
    return r


def _linear_byte_map(images) -> list:
    """The values of the GF(2)-linear map that takes bit i to images[i] at
    every int below 2^len(images): with eight images, one entry per byte."""
    out = [0]
    for v in images:
        out += [x ^ v for x in out]
    return out


def p2_mod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[T]."""
    dm = p2_degree(m)
    da = p2_degree(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = p2_degree(a)
    return a


def p2_mulmod(a: int, b: int, m: int) -> int:
    return p2_mod(p2_mul(a, b), m)


def p2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, p2_mod(a, b)
    return a


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p2_is_irreducible(m: int) -> bool:
    """Rabin irreducibility test over GF(2)."""
    n = p2_degree(m)
    if n <= 0:
        return False
    if n == 1:
        return True
    t = p2_mod(2, m)  # the polynomial T
    frob = [t]  # frob[i] = T^(2^i) mod m
    for _ in range(n):
        frob.append(p2_mulmod(frob[-1], frob[-1], m))
    if frob[n] != t:
        return False
    for p in _prime_divisors(n):
        if p2_gcd(frob[n // p] ^ t, m) != 1:
            return False
    return True


# the terms below T^k of the smallest irreducible of each degree
# k = 1..MAX_FIELD_DEGREE, at index k - 1 (eight degrees a row): the first
# m >= 2^k that passes the Rabin test
_DEFAULT_LOW_TERMS = (
      0,   3,   3,   3,   5,   3,   3,  27,
      3,   9,   5,   9,  27,  33,   3,  43,
      9,   9,  39,   9,   5,   3,  33,  27,
      9,  27,  39,   3,   5,   3,   9, 141,
     75,  27,   5,  53,  63,  99,  17,  57,
      9,  39,  89,  33,  27,   3,  33,  45,
    113,  29,  75,   9,  71, 125,  71, 149,
     17,  99, 123,   3,  39, 105,   3,  27,
)


def default_modulus(k: int) -> int:
    """Smallest irreducible degree-k modulus, giving a fixed canonical GF(2^k)."""
    if not 1 <= k <= MAX_FIELD_DEGREE:
        raise ValueError(f"field degree must be between 1 and {MAX_FIELD_DEGREE}, got {k}")
    return 1 << k | _DEFAULT_LOW_TERMS[k - 1]


# ---------------------------------------------------------------------------
# field contexts


class Field:
    """The field GF(2^k) presented as GF(2)[T]/(modulus)."""

    __slots__ = ("degree", "modulus", "order", "slot_bits", "_rows", "_inverses", "_squares",
                 "_roots", "_barrett", "_slot", "_slot_mask", "_half", "_masks")

    def __init__(self, degree: int | None = None, modulus: int | None = None):
        if degree is None and modulus is None:
            raise ValueError("need a degree or a modulus")
        size = degree if modulus is None else p2_degree(modulus)
        if size > MAX_FIELD_DEGREE:
            raise PreconditionError(
                f"field degree {size} is above the limit {MAX_FIELD_DEGREE}",
                limit=MAX_FIELD_DEGREE, degree=size)
        if modulus is None:
            modulus = default_modulus(degree)
        if modulus < 0:
            raise ValueError(f"modulus {modulus} is not a polynomial over GF(2)")
        if degree is None:
            degree = p2_degree(modulus)
        if p2_degree(modulus) != degree:
            raise ValueError(f"modulus {bin(modulus)} does not have degree {degree}")
        if not p2_is_irreducible(modulus):
            raise ValueError(f"modulus {bin(modulus)} is not irreducible over GF(2)")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        # the kernel is chosen here, once (see the module docstring)
        self._rows = self._inverses = self._squares = self._roots = None
        if degree <= _BYTE_DEGREE:
            self._build_byte_kernel()
        else:
            self._build_wide_kernel()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("GF2k", self.modulus))

    def __repr__(self):
        return f"GF(2^{self.degree}; mod={bin(self.modulus)})"

    # -- the two kernels ------------------------------------------------------

    def _build_byte_kernel(self):
        """One byte per entry.  _rows[c] is the 256-byte table of x -> c x,
        _inverses[a] = 1/a and _squares[x] = x^2 (256 bytes, for translate).
        The tables are built by linearity: the row of T^(i+1) is the row of
        T^i translated by the row of T, and the row of any other c is the
        xor of the rows of its bits.  A byte x at or above the order (k < 8)
        is read as the polynomial it spells, reduced."""
        k, m = self.degree, self.modulus
        self.slot_bits = 8
        self._slot_mask = 255
        powers = [1]  # T^i mod m for i <= 8
        for _ in range(8):
            v = powers[-1] << 1
            powers.append(v ^ m if v >> k else v)
        one, times_t = bytes(_linear_byte_map(powers[:8])), bytes(_linear_byte_map(powers[1:]))
        basis = [one]  # the rows of T^i, i < k
        for _ in range(k - 1):
            basis.append(basis[-1].translate(times_t))
        rows = [0]
        for b in basis:
            v = int.from_bytes(b, "little")
            rows += [x ^ v for x in rows]
        rows = self._rows = [x.to_bytes(256, "little") for x in rows]
        # the first 1 in a row is at the inverse: a byte above the order
        # reads as its remainder, which is smaller
        self._inverses = bytes(r.index(1) if c else 0 for c, r in enumerate(rows))
        self._squares = bytes(r[x] for x, r in enumerate(rows)).ljust(256, b"\0")

    def _build_wide_kernel(self):
        """The wide kernel's constants.  _slot is (array format, items per
        slot, bytes per slot): the format with the smallest items of at
        least 2k bits, or two items of the largest above k = 32; slot_bits
        is its width in bits, _slot_mask the 2k bits of an unreduced
        product, and _half the format of half the slot width, which squares
        packs at.  _barrett holds the exponents of the terms below T^k of
        mu = T^2k // modulus and of the modulus."""
        k, m = self.degree, self.modulus
        fmt = next((f for f in _FORMATS if array(f).itemsize * 8 >= 2 * k), None)
        step = 1 if fmt else 2
        fmt = fmt or _FORMATS[-1]
        size = array(fmt).itemsize * step
        self._slot = (fmt, step, size)
        self._masks = {}
        self.slot_bits = 8 * size
        self._slot_mask = (1 << 2 * k) - 1
        self._half = next(f for f in _FORMATS if 2 * array(f).itemsize == size)
        mu, r = 0, 1 << 2 * k  # mu = T^2k // m, by long division
        while r >> k:
            s = p2_degree(r) - k
            mu ^= 1 << s
            r ^= m << s
        self._barrett = tuple(tuple(i for i in range(k) if x >> i & 1) for x in (mu, m))

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        rows = self._rows
        if rows is not None:
            return rows[a][b]
        if a == 0 or b == 0:
            return 0
        return self._reduce(p2_mul(a, b), self.order - 1)

    def mat_mul(self, a, b) -> list:
        """The matrix product a b, packed: every row of b becomes one int
        (and, on the wide kernel, its 4-bit table) once, then each row of a
        is one combination of them, and the rows are unpacked together
        (unpack_rows).  A one-row product on the byte kernel sets nothing
        up: it xors the translated rows of b straight into the result, one
        int.from_bytes per nonzero coefficient.  Every row of b has the
        width of b[0] and every row of a has len(b) entries (a shorter row
        of b would be read as padded with zeros)."""
        width = len(b[0]) if b else 0
        rows = self._rows
        if rows is not None:
            if len(a) == 1:
                p = 0
                for c, v in zip(a[0], b):
                    if c == 1:
                        p ^= _from_bytes(bytes(v), "little")
                    elif c:
                        p ^= _from_bytes(bytes(v).translate(rows[c]), "little")
                return [list(p.to_bytes(width, "little"))]
            prepared = [(_from_bytes(v, "little"), v) for v in map(bytes, b)]
            return [list(_byte_combine(rows, prepared, row).to_bytes(width, "little"))
                    for row in a]
        tables = [_nibble_table(self.pack(v)) for v in b]
        if len(a) == 1:
            return [self.unpack(_nibble_combine(tables, a[0]), width)]
        return self.unpack_rows([_nibble_combine(tables, row) for row in a], width)

    # -- the packed representation (see the module docstring) ---------------

    def pack(self, v) -> int:
        """v as one int, entry j in the j-th slot of slot_bits bits."""
        if self._rows is not None:
            return _from_bytes(bytes(v), "little")
        fmt, step, _ = self._slot
        if step == 2:
            w = [0] * (2 * len(v))
            w[::2] = v
            v = w
        items = array(fmt, v)
        if _SWAP:
            items.byteswap()
        return _from_bytes(items.tobytes(), "little")

    def _mask(self, n: int) -> int:
        """The bits below T^k of each of n slots; kept for n up to
        _MASKS_KEPT, so the masks a field keeps are bounded."""
        mask = self._masks.get(n)
        if mask is None:
            mask = int.from_bytes(((1 << self.degree) - 1).to_bytes(self._slot[2], "little") * n,
                                  "little")
            if n <= _MASKS_KEPT:
                self._masks[n] = mask
        return mask

    def _reduce(self, p: int, mask: int) -> int:
        """p with every slot that mask selects reduced modulo the modulus,
        each slot holding a product of degree below 2k; a scalar is one
        slot, mask 2^k - 1.  The Barrett reduction does every slot at once:
        h is the part of a slot at T^k and above, q = (h mu) >> k its
        quotient by the modulus and p + q m the remainder; the T^k terms of
        mu and m are the q = h start and the bits that the last mask
        clears.  A packed slot holds at least 2k bits, so the bits that
        h << i >> k moves into the slot below land above its low k bits,
        and the mask clears them too."""
        k = self.degree
        h = p >> k & mask
        if h:
            mu_bits, m_bits = self._barrett
            q = h
            for i in mu_bits:
                q ^= h << i >> k
            q &= mask
            for i in m_bits:
                p ^= q << i
            p &= mask
        return p

    def unpack(self, p: int, n: int) -> list:
        """The n entries of the packed row p, each slot reduced modulo the
        modulus first."""
        if self._rows is not None:
            return list(p.to_bytes(n, "little"))
        p = self._reduce(p, self._mask(n))
        fmt, step, size = self._slot
        items = array(fmt, p.to_bytes(n * size, "little"))
        if _SWAP:
            items.byteswap()
        return items.tolist() if step == 1 else items[::2].tolist()

    def unpack_rows(self, ps, n: int) -> list:
        """The entries of each packed row of the list ps, n a row, each slot
        reduced modulo the modulus first.  On the wide kernel the rows are
        joined end to end into one int, up to _MASKS_KEPT slots at a time
        (so the slot mask is a kept one), which one unpack reduces and
        reads, and the entries are sliced into rows; on the byte kernel
        each row is its own to_bytes, which is faster than joining."""
        if self._rows is not None or not n:
            return [list(p.to_bytes(n, "little")) for p in ps]
        width = n * self.slot_bits
        per = max(1, _MASKS_KEPT // n)  # rows joined at a time
        out = []
        for start in range(0, len(ps), per):
            chunk = ps[start:start + per]
            joined = t = 0
            for p in chunk:
                joined |= p << t
                t += width
            count = len(chunk) * n
            flat = self.unpack(joined, count)
            out += [flat[i:i + n] for i in range(0, count, n)]
        return out

    # -- packed rows, prepared operands and the elimination step -------------
    # A packed row from pack may be added to freely.  On the byte kernel
    # every slot is reduced at all times; on the wide kernel every slot
    # stays a polynomial of degree below 2k, and the Barrett reduction waits
    # until an entry is read (entry, column) or the row is reduced or
    # unpacked once.

    def reduce(self, p: int, n: int) -> int:
        """The packed row p of n entries with every slot reduced."""
        if self._rows is not None:
            return p
        return self._reduce(p, self._mask(n))

    def entry(self, p: int, j: int) -> int:
        """Entry j of the packed row p, reduced."""
        x = p >> j * self.slot_bits & self._slot_mask
        return self._reduce(x, self.order - 1) if x >> self.degree else x

    def column(self, ps, j: int) -> list:
        """Entry j of each packed row of ps, reduced: the column that an
        elimination step reads its pivot and multipliers from.  On the wide
        kernel the entries are packed into one row, slot i for row i, and
        reduced in one Barrett pass by unpack."""
        bits = self.slot_bits
        s, mask = j * bits, self._slot_mask
        if self._rows is not None:
            col = []
            for p in ps:  # a loop: a comprehension costs more on short columns
                col.append(p >> s & mask)
            return col
        packed = t = 0
        for p in ps:
            packed |= (p >> s & mask) << t
            t += bits
        return self.unpack(packed, len(ps))

    def prepare(self, ps, n: int) -> tuple:
        """The prepared operand of reduced packed rows ps of n entries each,
        built once for any number of combine calls, and n: each row's
        4-bit table on the wide kernel, each row with its bytes on the
        byte kernel."""
        rows = []
        if self._rows is not None:
            for p in ps:
                rows.append((p, p.to_bytes(n, "little")))
        else:
            for p in ps:
                rows.append(_nibble_table(p))
        return rows, n

    def combine(self, prepared, cs) -> int:
        """The packed sum of c times row i of a prepared operand over the
        pairs (c, row i), unreduced; shifted left by j * slot_bits it
        lands at entry j of a longer row."""
        rows = self._rows
        if rows is not None:
            return _byte_combine(rows, prepared[0], cs)
        return _nibble_combine(prepared[0], cs)

    def eliminate(self, ps, pivot: int, n: int, cs, shift: int) -> None:
        """One elimination step, in place: row i of the list ps of packed
        rows plus cs[i] times the reduced packed row pivot of n entries,
        shifted left by shift, unreduced.  A row with c = 0 is kept and
        c = 1 is one xor; the pivot row is prepared at the first other c."""
        rows = self._rows
        one = pivot << shift
        prepared = None
        for i, c in enumerate(cs):
            if c == 1:
                ps[i] ^= one
            elif c:
                if rows is not None:
                    if prepared is None:
                        prepared = pivot.to_bytes(n, "little")
                    ps[i] ^= _from_bytes(prepared.translate(rows[c]), "little") << shift
                else:  # c times the pivot row, as _nibble_combine forms it
                    if prepared is None:
                        prepared = _nibble_table(one)
                    if c < 16:
                        ps[i] ^= prepared[c]
                    elif c < 256:
                        ps[i] ^= prepared[c & 15] ^ prepared[c >> 4] << 4
                    else:
                        x = s = 0
                        while c:
                            x ^= prepared[c & 15] << s
                            c >>= 4
                            s += 4
                        ps[i] ^= x

    def squares(self, v) -> list:
        """The square of every entry of v, the Frobenius on vectors: one
        translate on the byte kernel.  On the wide kernel the square of a
        GF(2)[T] polynomial has its bits at twice their places, so v is
        packed at half the slot width, every byte is spread to two bytes
        and the slots are reduced and unpacked once (the slots there are 4
        bytes or more, so the half width holds an entry)."""
        table = self._squares
        if table is not None:
            return list(bytes(v).translate(table))
        items = array(self._half, v)
        if _SWAP:
            items.byteswap()
        data = items.tobytes()
        spread = bytearray(2 * len(data))
        spread[::2] = data.translate(_SPREAD_LOW)
        spread[1::2] = data.translate(_SPREAD_HIGH)
        return self.unpack(_from_bytes(spread, "little"), len(v))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + repr(self))
        inverses = self._inverses
        if inverses is not None:
            return inverses[a]
        # binary extended Euclid: g1 a = u and g2 a = v modulo the modulus
        u, v = a, self.modulus
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.order - 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def sqrt(self, a: int) -> int:
        """The unique square root (GF(2^k) is perfect).  It is GF(2)-linear,
        sqrt(T^2j) = T^j and sqrt(T^(2j+1)) = sqrt(T) T^j with sqrt(T) =
        T^(2^(k-1)), so the root of a is the xor of the roots of its bytes:
        one lookup per byte, in a table of the roots of that byte's 256
        values.  The ceil(k/8) tables are built on the first call, and kept
        as the low byte's table and those of the bytes above it."""
        tables = self._roots
        if tables is None:
            s = self.pow(2, self.order >> 1)  # sqrt(T), unused at k = 1
            roots = [self.mul(s, 1 << i // 2) if i & 1 else 1 << i // 2
                     for i in range(self.degree)]
            low, *above = (_linear_byte_map(roots[i:i + 8]) for i in range(0, self.degree, 8))
            tables = self._roots = low, tuple(above)
        low, above = tables
        r = low[a & 255]
        for table in above:
            a >>= 8
            r ^= table[a & 255]
        return r

    # -- element iteration ---------------------------------------------------

    def elements(self) -> range:
        return range(self.order)


@lru_cache(maxsize=None)
def GF(degree: int) -> Field:
    """Shared GF(2^degree) with the fixed default modulus."""
    return Field(degree)


@lru_cache(maxsize=None)
def field_from_modulus(modulus: int) -> Field:
    return Field(modulus=modulus)


# ---------------------------------------------------------------------------
# embeddings between contexts


class Embedding:
    """Ring embedding GF(2^k) -> GF(2^(k*j)), determined by a root of the
    source modulus in the target field."""

    dst: Field
    root: int
    _pows: tuple

    def __init__(self, src: Field, dst: Field, root: int):
        self.dst, self.root = dst, root
        pows = []  # the images of the power basis of src
        v = 1
        for _ in range(src.degree):
            pows.append(v)
            v = dst.mul(v, root)
        self._pows = tuple(pows)

    def map(self, a: int) -> int:
        return _linear_map(self._pows, a)

    def map_vec(self, v) -> list:
        return [self.map(a) for a in v]


@lru_cache(maxsize=None)
def find_embedding(src: Field, dst: Field) -> Embedding:
    """Deterministic embedding: the smallest root of src.modulus in dst."""
    if src == dst:
        return Embedding(src, dst, p2_mod(2, src.modulus))  # identity: t -> t
    if dst.degree % src.degree != 0:
        raise ValueError(f"no embedding {src!r} -> {dst!r}: degree does not divide")
    bits = [(src.modulus >> i) & 1 for i in range(src.degree + 1)]
    return Embedding(src, dst, poly.roots(dst, bits)[0])
