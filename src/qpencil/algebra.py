"""The etale algebra A = k[T]/(f(T)) behind the r-invariant.

f is separable of degree n with f[n] != 0 but not necessarily monic:
reduction works with the monicization while the distinguished basis

    d_i = a_{i+1} + a_{i+2} t + ... + a_n t^{n-1-i}

keeps the original coefficients, satisfying
f(X) = (X - t)(d_0 + d_1 X + ... + d_{n-1} X^{n-1}) with d_{n-1} = a_n
spanning the constants.  d_i has degree n-1-i and leading coefficient
a_n, so d-coordinates come from a triangular back-substitution.  The
elements t^j / f'(t) are dual to the d-basis under the trace form,
Tr(d_i t^j / f'(t)) = delta_ij; verify's T5.3 checks the coordinates
against that projection, computed from the definition of the trace, and
its T5.4 checks squares against the rule r_k = sum_j s_j^2 a_{2j+1-k} in
d-coordinates.

Elements are coordinate tuples in the power basis 1, t, ..., t^{n-1}.
Squaring is additive in characteristic 2 (as in Berlekamp's Q-matrix), so
a square is one combination of the rows t^(2i) of a squaring table of f
built once per algebra (poly.square_table); wp, the idempotent test and
the pivots below all square that way.  The subgroup k + im(wp),
wp(s) = s^2 + s, is a GF(2)-subspace; reduction against one cached set of
its pivots gives canonical representatives (so equality of
representatives decides isomorphism) and the Artin-Schreier witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import poly
from .field import Field
from .linalg import gf2_pivots, gf2_reduce


@dataclass(frozen=True)
class EtaleAlgebra:
    gf: Field
    f: tuple  # coefficients a_0..a_n, a_n != 0, separable

    def __post_init__(self):
        fl = list(self.f)
        if len(fl) < 2 or fl[-1] == 0:
            raise ValueError("f must have degree >= 1 with nonzero leading "
                             "coefficient")
        if not poly.is_separable(self.gf, fl):
            raise ValueError("f is not separable; the quotient is not etale")

    @property
    def n(self) -> int:
        return len(self.f) - 1

    @cached_property
    def monic_f(self) -> tuple:
        return tuple(poly.monic(self.gf, list(self.f)))

    @cached_property
    def factors(self) -> tuple:
        """Irreducible factors in canonical order."""
        return tuple(tuple(g) for g in poly.factor(self.gf, list(self.f)))

    @property
    def num_components(self) -> int:
        return len(self.factors)

    # -- elements ------------------------------------------------------------

    def element(self, coeffs) -> tuple:
        c = list(coeffs)
        if len(c) > self.n and any(c[self.n :]):
            raise ValueError("coordinates exceed the power basis; reduce first")
        c = c[: self.n] + [0] * max(0, self.n - len(c))
        return tuple(c)

    def zero(self) -> tuple:
        return tuple([0] * self.n)

    def one(self) -> tuple:
        return self.element([1])

    def t_power(self, i: int) -> tuple:
        """t^i as an element (reduced when i >= n)."""
        return self.element(poly.mod(self.gf, [0] * i + [1], list(self.monic_f)))

    def from_poly(self, coeffs: list) -> tuple:
        return self.element(poly.mod(self.gf, list(coeffs), list(self.monic_f)))

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple(a ^ b for a, b in zip(x, y))

    def mul(self, x: tuple, y: tuple) -> tuple:
        prod = poly.mul(self.gf, poly.trim(list(x)), poly.trim(list(y)))
        return self.element(poly.mod(self.gf, prod, list(self.monic_f)))

    @cached_property
    def _square_table(self) -> list:
        return poly.square_table(self.gf, list(self.monic_f))

    def square(self, x: tuple) -> tuple:
        """x^2 as one combination of the rows t^(2i) of the squaring table."""
        return self.element(poly.square_mod(self.gf, list(x), self._square_table))

    def artin_schreier(self, x: tuple) -> tuple:
        """wp(x) = x^2 + x; additive, kernel = the idempotents."""
        return self.add(self.square(x), x)

    def is_idempotent(self, x: tuple) -> bool:
        return self.square(x) == x

    # -- the d-basis ------------------------------------------------------------

    @cached_property
    def d_basis(self) -> tuple:
        """d_i = a_{i+1} + a_{i+2} t + ... + a_n t^{n-1-i}, i = 0..n-1."""
        return tuple(self.element(list(self.f[i + 1 :])) for i in range(self.n))

    def d_coords(self, x: tuple) -> tuple:
        """Coordinates of x in the d-basis, by back-substitution: d_i has
        degree n-1-i and leading coefficient a_n, so the coefficient of
        t^(n-1-j) in sum s_i d_i is a_n s_j + sum_{i<j} a_{n-j+i} s_i."""
        gf, f, n = self.gf, self.f, self.n
        inv_an = gf.inv(f[n])
        s = []
        for j in range(n):
            acc = x[n - 1 - j]
            for i, si in enumerate(s):
                if si:
                    acc ^= gf.mul(f[n - j + i], si)
            s.append(gf.mul(acc, inv_an))
        return tuple(s)

    def from_d_coords(self, s: list) -> tuple:
        return tuple(self.gf.addmul([0] * self.n, s, self.d_basis))

    # -- idempotents -------------------------------------------------------------

    @cached_property
    def idempotents(self) -> tuple:
        """Primitive orthogonal idempotents, one per irreducible factor,
        built by extended gcd of f_i and f/f_i; their sum is 1."""
        gf = self.gf
        mf = list(self.monic_f)
        eps = []
        for fi in self.factors:
            gi = poly.divexact(gf, mf, list(fi))
            g, u, v = poly.extended_gcd(gf, list(fi), gi)
            if g != [1]:
                raise AssertionError("separable factors are not coprime")
            e = self.from_poly(poly.mul(gf, v, gi))
            if not self.is_idempotent(e):
                raise AssertionError("CRT element is not idempotent")
            eps.append(e)
        total = self.zero()
        for e in eps:
            total = self.add(total, e)
        if total != self.one():
            raise AssertionError("idempotents do not sum to 1")
        for i in range(len(eps)):
            for j in range(i + 1, len(eps)):
                if self.mul(eps[i], eps[j]) != self.zero():
                    raise AssertionError("idempotents are not orthogonal")
        return tuple(eps)

    # -- the subspace k + wp(A) and coset reduction -------------------------------

    def _pack(self, x: tuple) -> int:
        k = self.gf.degree
        acc = 0
        for j, c in enumerate(x):
            acc |= c << (j * k)
        return acc

    def _unpack(self, bits: int) -> tuple:
        k = self.gf.degree
        mask = (1 << k) - 1
        return tuple((bits >> (j * k)) & mask for j in range(self.n))

    @cached_property
    def _coset_pivots(self) -> tuple:
        """GF(2) pivots of k + wp(A), spanned by the columns wp(t^j x^b)
        (bit b + j*k of a combination) followed by the constants x^b.
        Column (j, b) is x^(2b) T_j + x^b t^j, with T_j = t^(2j) row j of
        the squaring table, so one kernel call per b over the table's rows
        laid end to end gives that column for every j."""
        gf, n, k = self.gf, self.n, self.gf.degree
        flat = [c for row in self._square_table for c in row]
        mask = (1 << n * k) - 1
        cols = [0] * (n * k)
        for b in range(k):
            x = 1 << b
            squares = self._pack(gf.addmul([0] * len(flat), (gf.mul(x, x),), (flat,)))
            for j in range(n):
                cols[j * k + b] = (squares >> j * n * k & mask) ^ x << j * k
        return tuple(gf2_pivots(cols + [1 << b for b in range(k)]))

    def coset_reduce(self, x: tuple) -> tuple[tuple, bool]:
        """Canonical representative of x modulo k + wp(A), and triviality."""
        red, _ = gf2_reduce(self._pack(x), self._coset_pivots)
        return self._unpack(red), red == 0

    def solve_artin_schreier(self, r: tuple):
        """s with wp(s) + c = r for some constant c, or None.

        None means r is not in k + wp(A) over this base field;
        geometry.quasi_split_over finds the extension that repairs it.
        """
        red, combo = gf2_reduce(self._pack(r), self._coset_pivots)
        if red:
            return None
        k = self.gf.degree
        s = self._unpack(combo & ((1 << (self.n * k)) - 1))
        check = self.add(self.artin_schreier(s), r)
        if any(check[1:]):
            raise AssertionError("Artin-Schreier witness fails verification")
        return s
