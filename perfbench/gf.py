"""The benchmark's own small GF(2^k) toolkit.

Everything the benchmark needs to build documents and check answers is
written here again, without importing the package under test: field
arithmetic, polynomials over GF(2^k), quadratic forms given as coefficient
tables, and a few matrix routines.  Field elements are ints whose bit i is
the coefficient of t^i, the wire format of pencil documents.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# GF(2)[T] packed into ints


def _p2_mulmod(a: int, b: int, m: int) -> int:
    top = 1 << (m.bit_length() - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= m
    return r


def _p2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _p2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _p2_mod(a, b)
    return a


def _prime_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p2_irreducible(m: int) -> bool:
    """Rabin's test: T^(2^k) = T mod m, and T^(2^(k/p)) - T coprime to m."""
    k = m.bit_length() - 1
    if k <= 1:
        return k == 1
    frob = [2]
    for _ in range(k):
        frob.append(_p2_mulmod(frob[-1], frob[-1], m))
    if _p2_mod(frob[k] ^ 2, m) != 0:
        return False
    return all(_p2_gcd(_p2_mod(frob[k // p] ^ 2, m), m) == 1 for p in _prime_factors(k))


def smallest_irreducible(k: int) -> int:
    """The smallest irreducible degree-k modulus (the documented default)."""
    for m in range(1 << k, 1 << (k + 1)):
        if p2_irreducible(m):
            return m
    raise AssertionError("irreducible polynomials exist in every degree")


# ---------------------------------------------------------------------------
# the field


class Field:
    """GF(2)[t]/(modulus) with log tables when the order is at most 2^16."""

    def __init__(self, k: int, modulus: int | None = None):
        self.k = k
        self.modulus = smallest_irreducible(k) if modulus is None else modulus
        if self.modulus.bit_length() - 1 != k or not p2_irreducible(self.modulus):
            raise ValueError(f"{self.modulus} is not an irreducible of degree {k}")
        self.order = 1 << k
        self._exp = self._log = None
        if k <= 16:
            self._tables()

    def _tables(self):
        q1 = self.order - 1
        g = 2 if self.k > 1 else 1
        while True:
            exp, log, v = [0] * (2 * q1 + 1), [0] * self.order, 1
            for i in range(q1):
                if v == 1 and i:
                    break
                exp[i], log[v] = v, i
                v = _p2_mulmod(v, g, self.modulus)
            else:
                if v == 1:
                    break
            g += 1
        for i in range(q1, 2 * q1 + 1):
            exp[i] = exp[i - q1]
        self._exp, self._log = exp, log

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return _p2_mulmod(a, b, self.modulus)

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("zero has no inverse")
        return self.pow(a, self.order - 2)


def embedding_root(src: Field, dst: Field) -> int:
    """The smallest root of src's modulus in dst, which fixes the embedding
    src -> dst (t -> root) that the CLI documents for extension fields."""
    if src.k == 1:
        return 1
    for x in range(dst.order):
        acc = 0
        for i in range(src.k, -1, -1):
            acc = dst.mul(acc, x) ^ ((src.modulus >> i) & 1)
        if acc == 0:
            return x
    raise ValueError("the target field does not contain the source field")


def embed(dst: Field, root: int, a: int) -> int:
    """Image of a (bits of a power-basis element) under t -> root."""
    r, p = 0, 1
    while a:
        if a & 1:
            r ^= p
        p = dst.mul(p, root)
        a >>= 1
    return r


# ---------------------------------------------------------------------------
# polynomials over GF(2^k): coefficient lists, lowest degree first


def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def pmul(F: Field, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                if y:
                    out[i + j] ^= F.mul(x, y)
    return trim(out)


def pmod(F: Field, f: list, g: list) -> list:
    f = trim(list(f))
    inv = F.inv(g[-1])
    dg = len(g) - 1
    while len(f) - 1 >= dg:
        c = F.mul(f[-1], inv)
        shift = len(f) - 1 - dg
        for i, y in enumerate(g):
            if y:
                f[shift + i] ^= F.mul(c, y)
        trim(f)
    return f


def pgcd(F: Field, f: list, g: list) -> list:
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, pmod(F, f, g)
    if not f:
        return f
    inv = F.inv(f[-1])
    return [F.mul(inv, c) for c in f]


def irreducible(F: Field, f: list) -> bool:
    """Ben-Or's test over GF(q) for a monic f of degree d: f has no factor
    of degree i <= d/2, i.e. gcd(T^(q^i) - T, f) = 1 for each such i."""
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        for _ in range(F.k):  # h <- h^q
            h = pmod(F, pmul(F, h, h), f)
        if pgcd(F, f, _padd(h, [0, 1])) != [1]:
            return False
    return True


def _padd(f: list, g: list) -> list:
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] ^= c
    for i, c in enumerate(g):
        out[i] ^= c
    return trim(out)


def random_irreducible(F: Field, d: int, rng, taken: set) -> list:
    """A monic irreducible of degree d over F that is not in `taken`."""
    for _ in range(100 * d * d + 100):
        f = [rng.randrange(F.order) for _ in range(d)] + [1]
        if tuple(f) not in taken and irreducible(F, f):
            taken.add(tuple(f))
            return f
    raise ValueError(f"too few irreducibles of degree {d} over GF(2^{F.k})")


# ---------------------------------------------------------------------------
# quadratic forms as {(i, j): c} tables with 0 <= i <= j < n


def qeval(F: Field, q: dict, v: list) -> int:
    acc = 0
    for (i, j), c in q.items():
        if v[i] and v[j]:
            acc ^= F.mul(c, F.mul(v[i], v[j]))
    return acc


def polar(F: Field, q: dict, v: list, w: list) -> int:
    acc = 0
    for (i, j), c in q.items():
        if i != j:
            p = F.mul(v[i], w[j]) ^ F.mul(v[j], w[i])
            if p:
                acc ^= F.mul(c, p)
    return acc


def transform(F: Field, q: dict, g: list) -> dict:
    """The table of q o g, (q o g)(v) = q(g v)."""
    n = len(g)
    cols = [[g[r][c] for r in range(n)] for c in range(n)]
    out = {}
    for i in range(n):
        c = qeval(F, q, cols[i])
        if c:
            out[(i, i)] = c
        for j in range(i + 1, n):
            c = polar(F, q, cols[i], cols[j])
            if c:
                out[(i, j)] = c
    return out


def vanishes_on_span(F: Field, q: dict, vectors: list) -> bool:
    """q is identically zero on the span: zero on the vectors, and the polar
    form is zero on every pair of them."""
    if any(qeval(F, q, v) for v in vectors):
        return False
    return not any(
        polar(F, q, vectors[a], vectors[b])
        for a in range(len(vectors))
        for b in range(a + 1, len(vectors))
    )


def map_table(F: Field, root: int, q: dict) -> dict:
    return {key: embed(F, root, c) for key, c in q.items()}


# ---------------------------------------------------------------------------
# matrices: lists of rows


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(F: Field, a: list, b: list) -> list:
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc ^= F.mul(x, y)
            out_row.append(acc)
        out.append(out_row)
    return out


def rank(F: Field, rows: list) -> int:
    m = [list(r) for r in rows]
    rk = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = F.inv(m[rk][c])
        m[rk] = [F.mul(inv, x) for x in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c]:
                f = m[i][c]
                m[i] = [x ^ F.mul(f, y) for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk
