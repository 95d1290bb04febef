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
built once per algebra (poly.square_table); wp and the columns below
all square that way.  The subgroup W = k + im(wp),
wp(s) = s^2 + s, is a GF(2)-subspace.  Its canonical representatives (so
equality of representatives decides isomorphism) and Artin-Schreier
witnesses are those of one elimination of all its spanning columns, but
most of W is read off its structure instead: the even coordinates fall
to lower ones by square roots (Field.sqrt), the constant one to its
trace, and one GF(2) elimination is left, over about half of the
columns and so a quarter of the work (the coset section below says why
the answers do not change).  Its GF(2) vectors are elements packed as
the field packs vectors (Field.pack), entry j in the j-th slot, so a
squaring result joins the elimination as it comes out of the kernel.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import poly
from .field import Field


class EtaleAlgebra:
    gf: Field
    f: tuple  # coefficients a_0..a_n, a_n != 0, separable

    def __init__(self, gf: Field, f: tuple):
        fl = list(f)
        if len(fl) < 2 or fl[-1] == 0:
            raise ValueError("f must have degree >= 1 with nonzero leading "
                             "coefficient")
        if not poly.is_separable(gf, fl):
            raise ValueError("f is not separable; the quotient is not etale")
        self.gf, self.f = gf, f

    @classmethod
    def of_separable(cls, gf: Field, f: tuple) -> "EtaleAlgebra":
        """The algebra of an f of degree >= 1 with f[n] != 0 that the caller
        already knows to be separable, with no second gcd: Pencil's
        delta_algebra, whose regularity verdict is that fact."""
        algebra = cls.__new__(cls)
        algebra.gf, algebra.f = gf, f
        return algebra

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
    def _square_table(self) -> tuple:
        return poly.square_table(self.gf, list(self.monic_f))

    def square(self, x: tuple) -> tuple:
        """x^2 as one combination of the rows t^(2i) of the squaring table."""
        return self.element(poly.square_mod(self.gf, list(x), self._square_table))

    def artin_schreier(self, x: tuple) -> tuple:
        """wp(x) = x^2 + x; additive, kernel = the idempotents."""
        return self.add(self.square(x), x)

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
        return tuple(self.gf.mat_mul([s], self.d_basis)[0])

    # -- idempotents -------------------------------------------------------------

    @cached_property
    def idempotents(self) -> tuple:
        """Primitive orthogonal idempotents, one per irreducible factor f_i
        of the monic f: e_i = g_i h_i, with g_i = f / f_i and h_i the
        inverse of g_i modulo f_i (one Euclid, poly.inverse_mod, that keeps
        one cofactor).  The certificate forms no product in the algebra:
        each h_i exists, each e_i has degree below deg f and is a multiple
        of g_i (one exact division), and the e_i sum to 1.  That makes e_i
        the CRT idempotent: f_j divides g_i for j != i, so e_i = 0 modulo
        f_j, and then the sum leaves e_i = 1 modulo f_i (a factor missing
        from the list would divide every g_i, and the sum would be 0
        modulo it).  So e_i^2 = e_i and e_i e_j = 0 modulo every factor,
        and so modulo f."""
        gf, n = self.gf, self.n
        mf = list(self.monic_f)
        eps = []
        for fi in self.factors:
            gi = poly.divexact(gf, mf, list(fi))
            hi = poly.inverse_mod(gf, gi, list(fi))
            if hi is None:
                raise AssertionError("separable factors are not coprime")
            e = poly.mul(gf, gi, hi)
            if len(e) > n or poly.mod(gf, e, gi):
                raise AssertionError("CRT element is not a multiple of its cofactor below deg f")
            eps.append(self.element(e))
        total = self.zero()
        for e in eps:
            total = self.add(total, e)
        if total != self.one():
            raise AssertionError("idempotents do not sum to 1")
        return tuple(eps)

    # -- the subspace k + wp(A) and coset reduction -------------------------------
    # Bit b of slot j of a packed element is the coefficient of x^b t^j, and
    # W is spanned by the columns wp(x^b t^j), j-major, then the constants
    # x^b.  A class's canonical representative has none of W's leading
    # bits; the witness of r in W is its one combination of the columns
    # that an elimination in this order keeps.  For j <= M = (n-1)//2,
    # wp(c t^j) = c^2 t^(2j) + c t^j needs no reduction by f, so these easy
    # columns make every bit of slots 0, 2, ..., 2M a leading bit of W, and
    # the quotient by them moves slot 2i down to sqrt(y) at slot i, i = M..1,
    # and keeps slot 0 as its trace (the wp(x^b) span ker Tr).  E eliminates
    # the hard columns (j > M) and the constants in that quotient.  Its
    # leads and the easy ones are W's, and every column it keeps (and every
    # easy one but wp(1) = 0) is one the full elimination keeps, so the
    # representatives and witnesses are the full elimination's.

    @cached_property
    def _coset_pivots(self) -> tuple:
        """(leads, pivots) of E over the quotient of each hard column and
        each constant (_quotient).  Column (j, b) is x^(2b) T_j + x^b t^j,
        with T_j = t^(2j) row j of the squaring table, so one product, of
        the column of the x^(2b) with the hard rows laid end to end, gives
        that column for every hard j and every b."""
        gf, n, k = self.gf, self.n, self.gf.degree
        hard = self._square_table[0][(n - 1) // 2 + 1 :]
        first = n - len(hard)
        trace = _slot_zero(gf)[0]
        xs = [1 << b for b in range(k)]
        cols = [0] * (len(hard) * k)
        if hard:
            flat = [c for row in hard for c in row]
            products = gf.mat_mul([[c] for c in gf.squares(xs)], [flat])
            for b, (x, squares) in enumerate(zip(xs, products)):
                for h in range(len(hard)):
                    e, w = squares[h * n : h * n + n], [0] * n
                    e[first + h] ^= x
                    w[first + h] = x
                    cols[h * k + b] = _quotient(gf, trace, e, w)
        cols += [_quotient(gf, trace, [x] + [0] * (n - 1), [0] * n) for x in xs]
        return _pivots(cols, (1 << (1 + n // 2) * gf.slot_bits) - 1)

    def coset_reduce(self, x: tuple) -> tuple[tuple, bool]:
        """Canonical representative of x modulo k + wp(A), and triviality.
        It has no even slot: its odd slots are those of the reduction."""
        gf, n = self.gf, self.n
        red = _reduce(_quotient(gf, _slot_zero(gf)[0], list(x), [0] * n), *self._coset_pivots)
        rep = [0] * n
        rep[1::2] = gf.unpack(red & (1 << (1 + n // 2) * gf.slot_bits) - 1, 1 + n // 2)[1:]
        return tuple(rep), not any(rep)

    def solve_artin_schreier(self, r: tuple):
        """s with wp(s) + c = r for some constant c, or None.

        None means r is not in k + wp(A) over this base field;
        geometry.quasi_split_over finds the extension that repairs it.
        """
        gf, n, k = self.gf, self.n, self.gf.degree
        width = (1 + n // 2) * gf.slot_bits
        red = _reduce(_quotient(gf, _slot_zero(gf)[0], list(r), [0] * n), *self._coset_pivots)
        if red & (1 << width) - 1:
            return None
        s = gf.unpack(red >> width, n)
        s[0] = _reduce(s[0], *_slot_zero(gf)[1]) >> k  # slot 0 has trace 0 here
        s = tuple(s)
        check = self.add(self.artin_schreier(s), r)
        if any(check[1:]):
            raise AssertionError("Artin-Schreier witness fails verification")
        return s


# ---------------------------------------------------------------------------
# the quotient by the easy columns, and the one GF(2) elimination (on packed
# ints, a vector's leading bit its highest set bit)


def _quotient(gf: Field, trace: int, e: list, w: list) -> int:
    """E's packed vector for the element e with witness w, lists of n
    entries that it moves in place.  The even slots 2M, ..., 2 move down
    by square roots, y t^(2i) = sqrt(y) t^i + wp(sqrt(y) t^i), into e and
    w; the vector holds Tr(e_0) (the parity of e_0 & trace), the odd slots
    of e and then w with e_0 in its slot 0, whose wp preimage
    solve_artin_schreier takes once, for the sum."""
    sqrt = gf.sqrt
    for i in range((len(e) - 1) // 2, 0, -1):
        y = e[2 * i]
        if y:
            root = sqrt(y)
            e[i] ^= root
            w[i] ^= root
    w[0] = e[0]
    return gf.pack([(e[0] & trace).bit_count() & 1, *e[1::2], *w])


def _reduce(c: int, leads: int, pivots: list) -> int:
    """c with none of the leads set: while c has one, the pivot of the
    highest is added (pivots[i] is the pivot whose lead has bit_length i)."""
    while hit := c & leads:
        c ^= pivots[hit.bit_length()]
    return c


def _pivots(columns, mask: int) -> tuple:
    """(leads, pivots) spanning the columns, each column reduced by the
    pivots before it and kept, led by its highest bit in mask, when its
    bits in mask do not all vanish; the bits above mask of a column ride
    along in every sum.  This and _reduce are the package's one GF(2)
    elimination."""
    leads, pivots = 0, [0] * (mask.bit_length() + 1)
    for c in columns:
        c = _reduce(c, leads, pivots)
        if c & mask:
            lead = (c & mask).bit_length()
            pivots[lead] = c
            leads |= 1 << lead - 1
    return leads, pivots


@lru_cache(maxsize=None)
def _slot_zero(gf: Field) -> tuple:
    """What slot 0 needs, once per field: the absolute trace of GF(2^k) as a
    mask (Tr(a) is the parity of a & mask), and the pivots of wp(k) =
    ker Tr, each wp(a) | a << k for a a sum of the x^b, b >= 1 (wp(1) = 0),
    so that reducing y of trace 0 leaves a << k, wp(a) = y with bit 0
    clear."""
    k, low = gf.degree, (1 << gf.degree) - 1
    xs = [1 << b for b in range(1, k)]
    wp = _pivots([square ^ x | x << k for x, square in zip(xs, gf.squares(xs))], low)
    # x^b reduces to zero exactly when it lies in ker Tr
    return sum(x for x in [1, *xs] if _reduce(x, *wp) & low), wp
