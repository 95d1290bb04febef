"""Exact arithmetic in GF(2^k).

Field elements are plain Python ints: bit i is the coefficient of t^i in
the power basis of GF(2)[T]/(modulus).  Addition is xor, and the zero and
one elements are the ints 0 and 1.  A Field object carries the modulus and
multiplication tables; it is immutable after construction, so contexts can
be shared freely between threads.

Use the cached factories GF(k) / field_from_modulus(m) so that repeated
requests return the same context (and the same lookup tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import poly

_TABLE_LIMIT = 1 << 16  # build exp/log tables up to this field order


# ---------------------------------------------------------------------------
# polynomials over GF(2) packed as ints (bit i = coefficient of T^i)


def p2_degree(p: int) -> int:
    """Degree of a GF(2)[T] polynomial packed as an int (-1 for zero)."""
    return p.bit_length() - 1


def p2_mul(a: int, b: int) -> int:
    """Carry-less product of two packed GF(2)[T] polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


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

    __slots__ = ("degree", "modulus", "order", "_exp", "_log")

    def __init__(self, degree: int | None = None, modulus: int | None = None):
        if modulus is None:
            if degree is None:
                raise ValueError("need a degree or a modulus")
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

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def _mul_raw(self, a: int, b: int) -> int:
        m = self.modulus
        top = 1 << self.degree
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= m
        return r

    def _build_tables(self):
        order = self.order
        g = 1 if self.degree == 1 else 2
        while True:
            exp = [0] * (2 * order)
            log = [0] * order
            v = 1
            ok = True
            for i in range(order - 1):
                if v == 1 and i > 0:
                    ok = False  # g has order i < order-1, not primitive
                    break
                exp[i] = v
                log[v] = i
                v = self._mul_raw(v, g)
            if ok and v == 1:
                break
            g += 1
        for i in range(order - 1, 2 * order):
            exp[i] = exp[i - (order - 1)]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + repr(self))
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow(a, self.order - 2)

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

    def trace(self, a: int) -> int:
        """Absolute trace down to GF(2): a + a^2 + ... + a^(2^(k-1))."""
        acc = a
        x = a
        for _ in range(self.degree - 1):
            x = self.mul(x, x)
            acc ^= x
        return acc

    # -- element iteration ---------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    # -- extensions ----------------------------------------------------------

    def extension(self, j: int) -> tuple["Field", "Embedding"]:
        """GF(2^(k*j)) in absolute representation plus the embedding map."""
        dst = GF(self.degree * j)
        return dst, find_embedding(self, dst)


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

    def map_poly(self, coeffs) -> list:
        return [self.map(a) for a in coeffs]


@lru_cache(maxsize=None)
def find_embedding(src: Field, dst: Field) -> Embedding:
    """Deterministic embedding: the smallest root of src.modulus in dst."""
    if src == dst:
        return Embedding(src, dst, p2_mod(2, src.modulus))  # identity: t -> t
    if dst.degree % src.degree != 0:
        raise ValueError(f"no embedding {src!r} -> {dst!r}: degree does not divide")
    bits = [(src.modulus >> i) & 1 for i in range(src.degree + 1)]
    return Embedding(src, dst, poly.roots(dst, bits)[0])
