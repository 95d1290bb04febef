"""Exact arithmetic in GF(2^k).

Field elements are plain Python ints: bit i is the coefficient of t^i in
the power basis of GF(2)[T]/(modulus).  Addition is xor, and the zero and
one elements are the ints 0 and 1.  A Field object carries the modulus and
multiplication tables; it is immutable after construction, so contexts can
be shared freely between threads.

Two representations serve the arithmetic, chosen by the field order:

- order <= 2^16 (k <= 16): exp/log tables of a primitive element; mul and
  inv are table lookups, and every product is reduced by construction.
- order > 2^16: no tables of elements.  mul is the 4-bit windowed
  carry-less product p2_mul, reduced as one slot of the packed kernel
  below; inv is the binary extended Euclidean algorithm on packed
  GF(2)[T] ints.

Linear algebra and polynomial products go through two kernel entries
instead of one mul call per product: Field.addmul(acc, cs, vs) = acc + sum
of c*v over the pairs, and Field.mat_mul(a, b) = a b.  With log tables
addmul takes the log of each c once and does one exp lookup per nonzero
entry of v.  Every other product is packed.  A vector becomes one int,
entry j in the j-th byte-aligned slot of 8, 16, 32, 64 or 128 bits, the
narrowest that holds 2k bits: room for the unreduced product of two
elements.  Packing and unpacking go through array and int.from_bytes /
int.to_bytes, so both cost time linear in the length.  A row of the
result is a combination of packed rows, each with its 4-bit table of
multiples: a nibble of a coefficient picks one entry of its row's table,
shifted into place, whatever the length of the rows.  Each result row
ends with one Barrett reduction of every slot at once (Field._reduce),
by mu = T^2k // modulus (fixed per field; exact for products of degree
below 2k), and one unpack.  mat_mul packs each row of b and builds its
table once for the whole product; addmul above GF(2^16) is one such
result row.

Use the cached factories GF(k) / field_from_modulus(m) so that repeated
requests return the same context (and the same lookup tables).  A degree
above MAX_FIELD_DEGREE = 64 is refused with a PreconditionError before
any modulus search or irreducibility test.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache

from . import poly
from .errors import PreconditionError

_TABLE_LIMIT = 1 << 16  # build exp/log tables up to this field order
# the default-modulus search and the irreducibility test grow with the
# degree without bound, so larger fields are refused before either runs
MAX_FIELD_DEGREE = 64
# array formats by item size; the packed slot is the first wide enough
_FORMATS = sorted("BHILQ", key=lambda f: array(f).itemsize)
_SWAP = sys.byteorder != "little"  # array holds items in machine order


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


def _combine(tables: list, cs) -> int:
    """The packed sum of c*v over the pairs of cs and the 4-bit tables t of
    the packed v: t[c & 15] shifted into place for each nibble of c.  The
    first two nibbles are unrolled, so an entry of a field up to GF(2^8),
    or a 0 or 1 of any field, takes one or two lookups."""
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


def p2_powmod(a: int, e: int, m: int) -> int:
    """a^e modulo m in GF(2)[T], by square and multiply."""
    r = 1
    while e:
        if e & 1:
            r = p2_mulmod(r, a, m)
        a = p2_mulmod(a, a, m)
        e >>= 1
    return r


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


@lru_cache(maxsize=None)
def default_modulus(k: int) -> int:
    """Smallest irreducible degree-k modulus, giving a fixed canonical GF(2^k)."""
    if k < 1:
        raise ValueError(f"field degree must be >= 1, got {k}")
    for m in range(1 << k, 1 << (k + 1)):
        if p2_is_irreducible(m):
            return m
    raise AssertionError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------
# field contexts


class Field:
    """The field GF(2^k) presented as GF(2)[T]/(modulus)."""

    __slots__ = ("degree", "modulus", "order", "_exp", "_log", "_barrett", "_slot")

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
        self._exp = None
        self._log = None
        self._build_packing()
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("GF2k", self.modulus))

    def __repr__(self):
        return f"GF(2^{self.degree}; mod={bin(self.modulus)})"

    # -- arithmetic ---------------------------------------------------------

    def _build_packing(self):
        """The packed kernel's constants, for every field.  _slot is (array
        format, items per slot, bytes per slot): the format with the
        smallest items of at least 2k bits, or two items of the largest
        above k = 32.  _barrett holds the exponents of the terms below T^k
        of mu = T^2k // modulus and of the modulus."""
        k, m = self.degree, self.modulus
        fmt = next((f for f in _FORMATS if array(f).itemsize * 8 >= 2 * k), None)
        step = 1 if fmt else 2
        fmt = fmt or _FORMATS[-1]
        self._slot = (fmt, step, array(fmt).itemsize * step)
        mu, r = 0, 1 << 2 * k  # mu = T^2k // m, by long division
        while r >> k:
            s = p2_degree(r) - k
            mu ^= 1 << s
            r ^= m << s
        self._barrett = tuple(tuple(i for i in range(k) if x >> i & 1) for x in (mu, m))

    def _build_tables(self):
        """exp/log tables of the smallest primitive g (1 in GF(2), else the
        first g >= 2 with g^((q-1)/p) != 1 for every prime p | q-1).  The
        powers of g are stepped through the linear map x -> g x, applied as
        two byte tables."""
        order, m, k = self.order, self.modulus, self.degree
        g = 1 if k == 1 else 2
        while any(p2_powmod(g, (order - 1) // p, m) == 1
                  for p in _prime_divisors(order - 1)):
            g += 1
        images = [g]  # g * T^i
        for _ in range(k - 1):
            v = images[-1] << 1
            images.append(v ^ m if v >> k else v)
        lo, hi = [0], [0]
        for i, v in enumerate(images):
            half = lo if i < 8 else hi
            half += [x ^ v for x in half]
        exp = [0] * (2 * order)  # exp[i] = g^(i mod q-1)
        log = [0] * order
        v = 1
        for i in range(order - 1):
            exp[i] = exp[i + order - 1] = v
            log[v] = i
            v = lo[v & 255] ^ hi[v >> 8]
        exp[2 * order - 2 :] = exp[:2]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._reduce(p2_mul(a, b), self.order - 1)

    def addmul(self, acc: list, cs, vs) -> list:
        """acc + sum of c*v over the pairs (c, v) of cs and vs, entrywise:
        the multiply-accumulate kernel.  Every v has the length of acc
        (above the log tables a shorter v would be read as padded with
        zeros).  acc is not modified, but it may be returned itself.  With
        log tables it is a pass of exp lookups per two pairs; above them it
        is one packed row of mat_mul (see the module docstring)."""
        exp, log = self._exp, self._log
        if exp is not None:
            # pairs with c != 0, 1 go two to a pass, which halves the
            # per-pass overhead that dominates at n around 13
            held = None
            for c, v in zip(cs, vs):
                if c == 1:
                    acc = [x ^ y for x, y in zip(acc, v)]
                elif c and held is None:
                    held = log[c], v
                elif c:
                    lb, u = held
                    held = None
                    lc = log[c]
                    acc = [x ^ (exp[lb + log[y]] if y else 0) ^ (exp[lc + log[z]] if z else 0)
                           for x, y, z in zip(acc, u, v)]
            if held is not None:
                lb, u = held
                acc = [x ^ exp[lb + log[y]] if y else x for x, y in zip(acc, u)]
            return acc
        tables, used = [], []
        for c, v in zip(cs, vs):
            if c:
                tables.append(_nibble_table(self._pack(v)))
                used.append(c)
        n = len(acc)
        return self._unpack(self._pack(acc) ^ _combine(tables, used), self._mask(n), n)

    def mat_mul(self, a, b) -> list:
        """The matrix product a b, packed: every row of b becomes one int and
        its 4-bit table once, then each row of a is one combination of
        them, one Barrett reduction and one unpack.  Every row of b has the
        width of b[0] and every row of a has len(b) entries (a shorter row
        of b would be read as padded with zeros)."""
        width = len(b[0]) if b else 0
        tables = [_nibble_table(self._pack(v)) for v in b]
        mask = self._mask(width)
        return [self._unpack(_combine(tables, row), mask, width) for row in a]

    # -- the packed representation (see the module docstring) ---------------

    def _pack(self, v) -> int:
        fmt, step, _ = self._slot
        if step == 2:
            w = [0] * (2 * len(v))
            w[::2] = v
            v = w
        items = array(fmt, v)
        if _SWAP:
            items.byteswap()
        return int.from_bytes(items.tobytes(), "little")

    def _mask(self, n: int) -> int:
        """The bits below T^k of each of n slots."""
        return int.from_bytes(((1 << self.degree) - 1).to_bytes(self._slot[2], "little") * n,
                              "little")

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

    def _unpack(self, p: int, mask: int, n: int) -> list:
        """The n entries of p, each slot reduced modulo the modulus first."""
        p = self._reduce(p, mask)
        fmt, step, size = self._slot
        items = array(fmt, p.to_bytes(n * size, "little"))
        if _SWAP:
            items.byteswap()
        return items.tolist() if step == 1 else items[::2].tolist()

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + repr(self))
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
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
        """The unique square root, a^(2^(k-1)); GF(2^k) is perfect."""
        for _ in range(self.degree - 1):
            a = self.mul(a, a)
        return a

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


@dataclass(frozen=True)
class Embedding:
    """Ring embedding GF(2^k) -> GF(2^(k*j)), determined by a root of the
    source modulus in the target field."""

    src: Field
    dst: Field
    root: int
    _pows: tuple = None

    def __post_init__(self):
        pows = []
        v = 1
        for _ in range(self.src.degree):
            pows.append(v)
            v = self.dst.mul(v, self.root)
        object.__setattr__(self, "_pows", tuple(pows))

    def map(self, a: int) -> int:
        r = 0
        pows = self._pows
        i = 0
        while a:
            if a & 1:
                r ^= pows[i]
            a >>= 1
            i += 1
        return r

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
