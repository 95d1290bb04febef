"""Theorem-tagged verification harness, and the package's brute-force oracles.

Every structural claim the package relies on is re-checked here against an
independent brute-force route: explicit coordinate formulas, exhaustive
GL-orbit and stabilizer scans, point/line enumeration, and coset
enumeration.  `run_suite("small")` keeps within a minute; "full" runs the
acceptance-scale counts.

The oracles and samplers the checks share live here and nowhere else: no
production module imports this one, and an oracle reads nothing of the
path it checks (the smoothness scan, for one, never sees Delta).
tests/test_boundaries.py holds both rules, with the one list of
production names the oracles may use.

Each check is a generator over its cases that yields how many cases it has
just checked.  `run_check` is the one runner: it times the check, adds up
`checked`, and stops the check at its first failed case, whose message
becomes the result's `detail`.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import poly
from .algebra import EtaleAlgebra
from .autos import (
    apply_to_subspace,
    automorphism_group,
    aut_x,
    pair_algebra,
    pgl2_elements,
    phi,
    reflections,
    reflections_match_idempotents,
)
from .cli import SCALES
from .errors import PreconditionError
from .field import GF, Field
from .geometry import canonical_plane, enumerate_generators
from .invariants import arf_invariant, is_isomorphic, r_invariant
from .lattice import cartan_d, intersection_number, lattice_for
from .linalg import identity, mat_mul, mat_vec, normalize_subspace, nullspace, rank
from .normalform import extract_normal_form, realize
from .pencil import Pencil
from .quadform import QuadraticForm, pfaffian_vector


@dataclass
class VerifyResult:
    tag: str
    description: str
    passed: bool
    checked: int
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" -- {self.detail}" if self.detail else ""
        return (f"[{status}] {self.tag:5s} {self.description} "
                f"(n={self.checked}, {self.seconds:.1f}s){tail}")


class _Fail(Exception):
    """The first failed case of a check; its message is the result's detail."""


def _expect(ok, detail: str) -> None:
    if not ok:
        raise _Fail(detail)


# ---------------------------------------------------------------------------
# shared brute-force material


def all_forms(gf: Field, n: int) -> list:
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    return [
        QuadraticForm.from_table(gf, n, dict(zip(keys, bits)))
        for bits in itertools.product(gf.elements(), repeat=len(keys))
    ]


def all_pencils_n3_gf2():
    g2 = GF(1)
    forms = all_forms(g2, 3)
    out = []
    for q0 in forms:
        for q1 in forms:
            try:
                out.append(Pencil(q0, q1))
            except ValueError:
                continue
    return out


def gl_elements(gf: Field, n: int, projective: bool = False) -> list:
    """All invertible n x n matrices, in the lexicographic order of their
    row-major entries: each next row is any vector outside the span of the
    rows before it.  With projective, only those whose first nonzero entry
    is 1, one per class of PGL_n, in the same order."""
    vectors = list(itertools.product(gf.elements(), repeat=n))
    firsts = [v for v in vectors
              if not projective or next((x for x in v if x), 1) == 1]
    out = []

    def extend(rows: list, span: set):
        for v in vectors if rows else firsts:
            if v in span:
                continue
            if len(rows) + 1 == n:
                out.append([list(r) for r in rows] + [list(v)])
            else:
                grown = {
                    tuple(a ^ gf.mul(c, b) for a, b in zip(w, v))
                    for w in span
                    for c in gf.elements()
                }
                extend(rows + [v], grown)

    extend([], {(0,) * n})
    return out


def random_pencil(gf: Field, n: int, rng, regular: bool = True):
    """Deterministic-by-seed random pencil sampler (rejection)."""
    for _ in range(5000):
        t0 = {}
        t1 = {}
        for i in range(n):
            for j in range(i, n):
                t0[(i, j)] = rng.randrange(gf.order)
                t1[(i, j)] = rng.randrange(gf.order)
        q0 = QuadraticForm.from_table(gf, n, t0)
        q1 = QuadraticForm.from_table(gf, n, t1)
        try:
            p = Pencil(q0, q1)
        except ValueError:
            continue
        if not regular or p.is_regular():
            return p
    raise RuntimeError("no pencil found within the retry budget")


def random_separable_poly(gf: Field, deg: int, rng) -> list:
    while True:
        f = [rng.randrange(gf.order) for _ in range(deg)]
        f.append(rng.randrange(1, gf.order))
        if poly.is_separable(gf, f):
            return f


def random_regular_nf_pencil(gf: Field, m: int, rng) -> Pencil:
    """Regular pencil sampled as a conjugated normal form (always succeeds)."""
    n = 2 * m + 1
    while True:
        a = [rng.randrange(gf.order) for _ in range(n + 1)]
        if not poly.bf_is_separable(gf, a):
            continue
        r = [rng.randrange(gf.order) for _ in range(n - 1)]
        p = realize(gf, a, r)
        g = _random_gl(gf, n, rng)
        return p.conjugate(g)


def _random_gl(gf: Field, n: int, rng) -> list:
    while True:
        g = [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]
        if rank(gf, g) == n:
            return g


def random_comparable_pencil(gf: Field, m: int, rng) -> Pencil:
    """Regular pencil with at least one nondegenerate rational member, so
    that ensure_an_nonzero works over the base field."""
    while True:
        p = random_regular_nf_pencil(gf, m, rng)
        a = p.half_discriminant()
        if poly.bf_eval(gf, a, 0, 1) or any(
            poly.bf_eval(gf, a, 1, c) for c in gf.elements()
        ):
            return p


def pulls_back(q: QuadraticForm, g: list, target: QuadraticForm) -> bool:
    """Whether q o g == target, i.e. q(g v) = target(v) for every v.

    Decided from the definitions, coefficient by coefficient: the diagonal
    coefficient j of q o g is q(g e_j), and the (i, j) one is the polar value
    b(g e_i, g e_j) = q(g e_i + g e_j) + q(g e_i) + q(g e_j).  Returns at the
    first coefficient that differs from target's.  Deliberately independent
    of `QuadraticForm.transform`, which it checks.
    """
    n = q.n
    want = target.rows
    cols, values = [], []
    for j in range(n):
        col = [row[j] for row in g]
        value = q(col)
        if value != want[j][j]:
            return False
        cols.append(col)
        values.append(value)
    for i, j in itertools.combinations(range(n), 2):
        both = q([x ^ y for x, y in zip(cols[i], cols[j])])
        if both ^ values[i] ^ values[j] != want[i][j]:
            return False
    return True


# ---------------------------------------------------------------------------
# points, lines and singular points of X, by exhaustive scan

_SCAN_LIMIT = 10**8


def proj_points(gf: Field, n: int):
    """Normalized representatives of P^(n-1)(gf): first nonzero entry 1."""
    for lead in range(n):
        tail = n - lead - 1
        for rest in itertools.product(gf.elements(), repeat=tail):
            yield [0] * lead + [1] + list(rest)


def proj_count(q: int, n: int) -> int:
    return (q**n - 1) // (q - 1)


def points_on_X(p: Pencil, ext: Field) -> list:
    """All projective points of X over ext, by exhaustive scan."""
    total = proj_count(ext.order, p.n)
    if total > _SCAN_LIMIT:
        raise PreconditionError(
            f"scan of {total} projective points exceeds the {_SCAN_LIMIT} limit"
        )
    pe = p.over(ext)
    q0, q1 = pe.q0, pe.q1
    return [tuple(x) for x in proj_points(ext, p.n) if q0(x) == 0 and q1(x) == 0]


def smoothness_oracle(p: Pencil, max_ext_degree: int) -> bool:
    """Brute-force smoothness of X over extensions of degree <= max_ext_degree.

    A point x of X is singular iff the rows b0(x, .), b1(x, .) are
    dependent, i.e. x lies in the radical of some member (in characteristic
    2 the gradient of q at x is b(x, .)).  So the scan visits every member
    over each extension, and the projective space spanned by its radical.
    It reads nothing of Delta, whose separability it checks.
    """
    for d in range(1, max_ext_degree + 1):
        if _singular_among(p, GF(p.gf.degree * d)):
            return False
    return True


def _singular_among(p: Pencil, ext: Field) -> bool:
    """Whether the radical of some member l q0 + u q1 over ext, (1, c) for
    every c and then (0, 1), holds a point of X."""
    pe = p.over(ext)
    q0, q1 = pe.q0, pe.q1
    n = p.n
    # the two Gram matrices laid end to end: one kernel call per member
    grams = [[x for row in q.polar() for x in row] for q in (q0, q1)]
    for lu in [(1, c) for c in ext.elements()] + [(0, 1)]:
        gram = ext.addmul([0] * (n * n), lu, grams)
        rad = nullspace(ext, [gram[i:i + n] for i in range(0, n * n, n)])
        for coords in proj_points(ext, len(rad)):
            x = ext.addmul([0] * n, coords, rad)
            if q0(x) == 0 and q1(x) == 0:
                return True
    return False


def brute_force_lines(p: Pencil, ext: Field) -> list[tuple]:
    """All lines on X(ext) for m = 2, from pairs of points: the line through
    two points x, y of X lies on X iff both polar pairings vanish, and
    b(x, y) = q(x + y) there since q(x) = q(y) = 0."""
    if p.m != 2:
        raise PreconditionError("line enumeration is the m = 2 oracle")
    pe = p.over(ext)
    pts = points_on_X(p, ext)
    lines = set()
    for i in range(len(pts)):
        xi = list(pts[i])
        for j in range(i + 1, len(pts)):
            xj = list(pts[j])
            both = [x ^ y for x, y in zip(xi, xj)]
            if pe.q0(both) == 0 and pe.q1(both) == 0:
                lines.add(normalize_subspace(ext, [xi, xj]))
    return sorted(lines)


# ---------------------------------------------------------------------------
# the etale algebra and the transformation law, from their definitions


def algebra_trace(A: EtaleAlgebra, x: tuple) -> int:
    """Tr(x): the trace of multiplication by x, sum_j (x t^j)_j in the
    power basis."""
    acc = 0
    for j in range(A.n):
        acc ^= A.mul(x, A.t_power(j))[j]
    return acc


def trace_projection(A: EtaleAlgebra, x: tuple) -> tuple:
    """(Tr(x t^j / f'(t)))_j, with 1/f'(t) from the extended gcd: the
    d-coordinates of x, since the t^j / f'(t) are trace-dual to the
    d-basis."""
    gf, f = A.gf, list(A.f)
    g, inv, _ = poly.extended_gcd(gf, poly.derivative(gf, f), list(A.monic_f))
    _expect(g == [1], f"f'(t) is not invertible for f={f}")
    y = A.mul(x, A.from_poly(inv))
    return tuple(algebra_trace(A, A.mul(y, A.t_power(j))) for j in range(A.n))


def square_in_d_basis(A: EtaleAlgebra, s: list) -> list:
    """d-coordinates of (sum s_j d_j)^2: r_k = sum_j s_j^2 a_{2j+1-k}, with
    a_i = 0 outside 0..n."""
    gf, f, n = A.gf, A.f, A.n
    out = []
    for k in range(n):
        acc = 0
        for j, sj in enumerate(s):
            i = 2 * j + 1 - k
            if sj and 0 <= i <= n and f[i]:
                acc ^= gf.mul(gf.mul(sj, sj), f[i])
        out.append(acc)
    return out


def transformation_law_check(p: Pencil, s: tuple) -> bool:
    """Conjugating by phi(s) shifts the extracted r by wp(s) modulo the
    constants, with exact coefficient equality in positions 0..n-2."""
    an = pair_algebra(p)
    algebra, nf = an.algebra, an.nf
    conj = an.pencil.conjugate(phi(algebra, nf, algebra.element(s)).matrix)
    nf2 = extract_normal_form(conj)
    if nf2.a != nf.a:
        return False
    wp = algebra.artin_schreier(algebra.element(s))
    expected = algebra.d_coords(wp)[: algebra.n - 1]
    got = [x ^ y for x, y in zip(nf2.r, nf.r)]
    return list(expected) == got


# ---------------------------------------------------------------------------
# the checks: generators that yield how many cases they have just checked


def _split_m3_pencil() -> Pencil:
    """n = 7 over GF(8), r = 0, with Delta split by seven rational roots."""
    g8 = GF(3)
    f = [1]
    for root in range(7):
        f = poly.mul(g8, f, [root, 1])
    return realize(g8, f, [0] * 6)


def check_half_disc(scale: str):
    """HD: q(omega), q evaluated on the Pfaffian vector of its polar form,
    equals the explicit n = 3 half-discriminant polynomial."""
    count = 1000 if scale == "full" else 100
    rng = random.Random(2201)
    for gf in (GF(1), GF(2)):
        for _ in range(count // 2):
            t = {
                (i, j): rng.randrange(gf.order)
                for i in range(3)
                for j in range(i, 3)
            }
            q = QuadraticForm.from_table(gf, 3, t)
            a11, a22, a33 = t[(0, 0)], t[(1, 1)], t[(2, 2)]
            a12, a13, a23 = t[(0, 1)], t[(0, 2)], t[(1, 2)]
            mul = gf.mul
            explicit = (
                mul(a11, mul(a23, a23))
                ^ mul(a22, mul(a13, a13))
                ^ mul(a33, mul(a12, a12))
                ^ mul(a12, mul(a23, a13))
            )
            omega = pfaffian_vector(gf, q.polar())
            _expect(q(omega) == explicit, f"mismatch at {t}")
            yield 1


def check_regularity_oracle(scale: str):
    """REG: separability of Delta agrees with the brute-force singular-point
    scan, exhaustively at n = 3 over GF(2) plus random n = 5 pencils."""
    if scale == "full":
        pencils = all_pencils_n3_gf2()
    else:
        rng0 = random.Random(7)
        pencils = [random_pencil(GF(1), 3, rng0, regular=False) for _ in range(150)]
    for p in pencils:
        _expect(p.is_regular() == smoothness_oracle(p, 4),
                f"disagree at {p.q0.rows}|{p.q1.rows}")
        yield 1
    rng = random.Random(1105)
    per_field = 250 if scale == "full" else 20
    for gfdeg in (1, 2):
        gf = GF(gfdeg)
        for _ in range(per_field):
            p = random_pencil(gf, 5, rng, regular=False)
            _expect(p.is_regular() == smoothness_oracle(p, 4), "n=5 disagreement")
            yield 1


def check_normal_form(scale: str):
    """T1.1: extraction satisfies the Kronecker equations exactly, the a's
    equal the half-discriminant, and the realized model is isomorphic to
    the pencil, by a witness verified by substitution."""
    count = 500 if scale == "full" else 60
    rng = random.Random(311)
    combos = [(GF(1), 1), (GF(1), 2), (GF(1), 3), (GF(2), 1), (GF(2), 2),
              (GF(2), 3), (GF(3), 1), (GF(3), 2)]
    for i in range(count):
        gf, m = combos[i % len(combos)]
        p = random_regular_nf_pencil(gf, m, rng)
        nf = extract_normal_form(p)  # raises if Kronecker equations fail
        _expect(list(nf.a) == p.half_discriminant(), "a differs from half-discriminant")
        model = nf.realized()
        try:
            iso, _ = is_isomorphic(p, model)
        except PreconditionError as err:
            # every rational point is a root of Delta; compare over the
            # reported extension instead
            j = err.info["extension_degree"]
            ext = GF(p.gf.degree * j)
            iso, _ = is_isomorphic(p.over(ext), model.over(ext))
        _expect(iso, "the realized normal form is not isomorphic to the pencil")
        yield 1


def check_dual_basis(scale: str):
    """T5.3: Tr(y t^j / f'(t)) is the j-th d-coordinate of y, for every d_i
    and a random y, with the trace and 1/f' taken from their definitions."""
    count = 100 if scale == "full" else 20
    rng = random.Random(53)
    rng_y = random.Random(530)
    fields = [GF(1), GF(2), GF(3)]
    for k in range(count):
        gf = fields[k % 3]
        deg = rng.randrange(2, 10)
        f = random_separable_poly(gf, deg, rng)
        A = EtaleAlgebra(gf, tuple(f))
        for i, d in enumerate(A.d_basis):
            unit = tuple(int(j == i) for j in range(A.n))
            _expect(trace_projection(A, d) == unit == A.d_coords(d), f"f={f} d_{i}")
        y = A.element([rng_y.randrange(gf.order) for _ in range(A.n)])
        _expect(trace_projection(A, y) == A.d_coords(y), f"f={f} y={y}")
        yield 1


def check_squaring(scale: str):
    """T5.4: the d-basis squaring rule equals direct multiplication, and
    the squaring table, each followed by the d-coordinates."""
    count = 100 if scale == "full" else 20
    rng = random.Random(54)
    fields = [GF(1), GF(2), GF(3)]
    for i in range(count):
        gf = fields[i % 3]
        deg = rng.randrange(2, 10)
        f = random_separable_poly(gf, deg, rng)
        A = EtaleAlgebra(gf, tuple(f))
        s = [rng.randrange(gf.order) for _ in range(A.n)]
        elem = A.from_d_coords(s)
        formula = square_in_d_basis(A, s)
        for way, sq in (("mul", A.mul(elem, elem)), ("square", A.square(elem))):
            _expect(list(A.d_coords(sq)) == formula, f"{way}: f={f} s={s}")
        yield 1


def check_transformation_law(scale: str):
    """T5.6: conjugation by phi(s) shifts r by wp(s) mod constants, exactly."""
    count = 200 if scale == "full" else 30
    rng = random.Random(56)
    combos = [(GF(1), 1), (GF(1), 2), (GF(1), 3), (GF(2), 1), (GF(2), 2),
              (GF(2), 3)]
    for i in range(count):
        gf, m = combos[i % len(combos)]
        n = 2 * m + 1
        p = random_comparable_pencil(gf, m, rng)
        s = tuple(rng.randrange(gf.order) for _ in range(n))
        _expect(transformation_law_check(p, s), f"failed at m={m} over {gf!r}")
        yield 1


def check_classification(scale: str):
    """T1.5: over GF(2), n = 3, the GL3(F2)-orbit partition of regular pairs
    with a fixed Delta (a_3 != 0) equals the r-coset partition."""
    g2 = GF(1)
    gl32 = gl_elements(g2, 3)
    by_delta: dict = {}
    for p in all_pencils_n3_gf2():
        if not p.is_regular():
            continue
        a = tuple(p.half_discriminant())
        if a[3] == 0:
            continue
        by_delta.setdefault(a, []).append(p)
    if scale != "full":
        by_delta = dict(sorted(by_delta.items())[:2])
    for a, pencils in sorted(by_delta.items()):
        coset_parts: dict = {}
        index = {}
        for p in pencils:
            key = (p.q0.rows, p.q1.rows)
            index[key] = p
            rep, _ = r_invariant(pair_algebra(p))
            coset_parts.setdefault(rep, set()).add(key)
        unvisited = set(index)
        orbits = []
        while unvisited:
            seed = index[next(iter(unvisited))]
            orbit = {(seed.q0.transform(g).rows, seed.q1.transform(g).rows)
                     for g in gl32}
            _expect(orbit <= index.keys(), "orbit left its Delta class")
            unvisited -= orbit
            orbits.append(frozenset(orbit))
        _expect(set(frozenset(s) for s in coset_parts.values()) == set(orbits),
                f"partitions differ for Delta={a}")
        yield len(pencils)


def check_automorphism_count(scale: str):
    """T7.1: |Aut(q0,q1)| = 2^(l-1), equal to the exhaustive GL-stabilizer."""
    g2, g4 = GF(1), GF(2)
    gl = {g2: gl_elements(g2, 3)}
    # (field, a, r, the case as the |Aut| failure names it)
    cases = [
        (g2, list(a), list(r), f"at a={a}")
        for a, r in [((0, 1, 1, 1), (0, 0)), ((0, 1, 1, 1), (0, 1)),
                     ((1, 0, 0, 1), (0, 0)), ((1, 1, 0, 1), (0, 0))]
    ]
    if scale == "full":
        gl[g4] = gl_elements(g4, 3)
        split = poly.mul(g4, poly.mul(g4, [0, 1], [1, 1]), [2, 1])
        cases += [
            (g4, f, [0, 0], f"over GF(4), f={f}")
            for f in (split, [0, 2, 1, 1], [2, 3, 0, 1])
            if poly.is_separable(g4, f)
        ]
    for gf, a, r, where in cases:
        p = realize(gf, a, r)
        order = len(automorphism_group(p))
        _expect(order == 1 << (pair_algebra(p).algebra.num_components - 1),
                f"|Aut| != 2^(l-1) {where}")
        stab = sum(
            1
            for g in gl[gf]
            if pulls_back(p.q0, g, p.q0) and pulls_back(p.q1, g, p.q1)
        )
        # over GF(4), a is the cubic f itself
        _expect(stab == order,
                f"GL3(F2) stabilizer {stab} != {order}" if gf == g2
                else f"GL3(F4) stabilizer mismatch, f={a}")
        yield 1


def check_reflections(scale: str):
    """T7.3: n reflections over a splitting field: involutions, commuting,
    product = identity, and equal to phi of the matching idempotents."""
    cases = [
        (GF(1), [0, 1, 1, 1], [0, 0], GF(2)),
        (GF(1), [0, 1, 1, 1, 1, 1], [0] * 4, GF(4)),
    ]
    for gf, a, r, ext in cases:
        p = realize(gf, a, r)
        refl = reflections(p, ext)
        _expect(len(refl) == p.n, "wrong count")
        ident = prod = identity(p.n)
        mats = [rf.matrix for rf in refl]
        for mat in mats:
            _expect(mat_mul(ext, mat, mat) == ident, "not an involution")
            prod = mat_mul(ext, prod, mat)
        _expect(prod == ident, "product is not the identity")
        _expect(all(mat_mul(ext, x, y) == mat_mul(ext, y, x)
                    for x, y in itertools.combinations(mats, 2)),
                "reflections do not commute")
        _expect(reflections_match_idempotents(p, ext, refl), "phi(eps_i) != rho_i")
        yield 1


def check_generators(scale: str):
    """C7.4: exactly 2^(2m) generators in a simply transitive orbit; at m=1
    they are the points of X, at m=2 the brute-force line count is 16."""
    g2 = GF(1)
    p1 = realize(g2, [0, 1, 1, 1], [0, 0])
    ext1 = GF(2)
    gens = enumerate_generators(p1, ext1)
    pts = set(g[0] for g in gens)
    _expect(len(gens) == 4 and pts == set(points_on_X(p1, ext1)),
            "m=1 generators differ from the points of X")
    yield 1
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    ext2 = GF(4)
    gens2 = enumerate_generators(dp, ext2)
    _expect(len(gens2) == 16, "m=2 count != 16")
    if scale == "full":
        lines = brute_force_lines(dp, ext2)
        _expect(len(lines) == 16 and set(lines) == set(gens2),
                "line scan disagrees with the orbit")
    yield 1


def check_canonical_plane(scale: str):
    """CP: the canonical plane lies on X with projective dimension m-2."""
    g2 = GF(1)
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    cp = canonical_plane(dp)
    _expect(cp.point_basis == ((0, 1, 1, 0, 0),),
            f"expected [0:1:1:0:0], got {cp.point_basis}")
    yield 1
    g4 = GF(2)
    rng = random.Random(10)
    for _ in range(3):
        p = random_regular_nf_pencil(g4, 2, rng)
        cp4 = canonical_plane(p)  # internal containment asserts
        _expect(len(cp4.point_basis) == 1, "wrong dimension at m=2 over GF(4)")
        yield 1
    cp3 = canonical_plane(_split_m3_pencil())
    _expect(len(cp3.point_basis) == 2, "wrong dimension at m=3")
    yield 1


def check_arf(scale: str):
    """T6.1: Arf(q_A) = r modulo wp(A) + k for all tested normal forms."""
    count = 60 if scale == "full" else 15
    rng = random.Random(61)
    combos = [(GF(1), 1), (GF(1), 2), (GF(2), 1), (GF(2), 2), (GF(1), 3)]
    for i in range(count):
        gf, m = combos[i % len(combos)]
        data = arf_invariant(pair_algebra(random_comparable_pencil(gf, m, rng)))
        _expect(data.matches_r, f"mismatch at m={m} over {gf!r}")
        yield 1


def check_lattice(scale: str):
    """L8: the cycle lattice: line classes square to -1 and K^2 = 4 at m=2,
    with the alpha Gram equal to (-1)^(m-1) Cartan(D_{2m+1})."""
    g2 = GF(1)
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    ext = GF(4)
    lat2 = lattice_for(dp, ext, reflections(dp, ext))
    neg = [[-x for x in row] for row in cartan_d(2)]
    _expect([list(r) for r in lat2.gram_alpha] == neg,
            "m=2 alpha Gram is not -Cartan(D5)")
    _expect(all(lat2.line_gram[i][i] == -1 for i in range(16)),
            "a line class does not square to -1")
    _expect(all(
        sorted(lat2.line_gram[i][j] for j in range(16) if j != i)
        == [0] * 10 + [1] * 5
        for i in range(16)
    ), "line intersection graph is not 5-regular")
    k_class = [-3, 1, 1, 1, 1, 1]
    k2 = sum(
        k_class[i] * lat2.gram[i][j] * k_class[j]
        for i in range(6)
        for j in range(6)
    )
    _expect(k2 == 4, f"K^2 = {k2} != 4")
    _expect(lat2.lam_empty_in_e == (2, -1, -1, -1, -1, -1),
            "conic class has wrong coordinates")
    yield 1
    if scale == "full":
        p3 = _split_m3_pencil()
        lat3 = lattice_for(p3, p3.gf, reflections(p3, p3.gf))
        _expect([list(r) for r in lat3.gram_alpha] == cartan_d(3),
                "m=3 alpha Gram is not +Cartan(D7)")
        # Aut-permutation invariance of the full line Gram
        gens = enumerate_generators(dp, ext)
        span_index = {g: i for i, g in enumerate(gens)}
        gram = [[intersection_number(ext, x, y) for y in gens] for x in gens]
        for rep in automorphism_group(dp.over(ext)):
            perm = [span_index[apply_to_subspace(ext, rep.matrix, x)]
                    for x in gens]
            _expect(all(gram[perm[i]][perm[j]] == gram[i][j]
                        for i in range(len(gens)) for j in range(len(gens))),
                    "automorphisms break the intersection matrix")
        yield 1


def check_aut_x(scale: str):
    """AX: Aut(X) = R x| G at m=1 (G by a PGL2 scan) equals the brute-force
    PGL3 stabilizer of the four points of X over the splitting field."""
    g2 = GF(1)
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    ext = GF(2)
    ax = aut_x(p, ext)
    _expect(len(ax.pair_autos) == 4, "R has wrong order")
    _expect(ax.order == len(ax.pair_autos) * len(ax.g_elements), "|Aut| != |R| * |G|")
    # closure sanity: the multiplication table only references group elements
    _expect(all(x < ax.order for row in ax.mult_table for x in row), "table escapes")
    # G is every element of PGL2 whose substitution scales Delta
    delta = pair_algebra(p.over(ext)).pencil.half_discriminant()
    scan = [tuple(map(tuple, m2)) for m2 in pgl2_elements(ext)
            if rank(ext, [delta, poly.bf_substitute(ext, delta, m2)]) == 1]
    _expect(tuple(scan) == ax.g_elements, "G is not the PGL2 scan")
    yield 1
    if scale == "full":
        stab = _pgl_point_stabilizer_order(ext, points_on_X(p, ext))
        _expect(stab == ax.order, f"PGL3 stabilizer {stab} != {ax.order}")
        yield 1


def _pgl_point_stabilizer_order(gf: Field, pts: list) -> int:
    def norm(v):
        for x in v:
            if x:
                inv = gf.inv(x)
                return tuple(gf.mul(inv, y) for y in v)
        raise ValueError

    target = set(norm(list(p)) for p in pts)
    # one matrix per projective class (first nonzero entry 1); an invertible
    # m is injective on points, so mapping target into itself maps it onto it
    return sum(
        1
        for m in gl_elements(gf, len(pts[0]), projective=True)
        if all(norm(mat_vec(gf, m, list(pt))) in target for pt in target)
    )


# the one table: tag -> (description, check), in report order; the
# description is reported whether the check passes or fails
CHECKS = {
    "HD": ("half-discriminant formula (n=3 explicit polynomial)", check_half_disc),
    "REG": ("regularity criterion vs singular-point scan", check_regularity_oracle),
    "T1.1": ("Kronecker normal form and round trip", check_normal_form),
    "T5.3": ("trace dual basis identities", check_dual_basis),
    "T5.4": ("d-basis squaring rule", check_squaring),
    "T5.6": ("Artin-Schreier transformation law", check_transformation_law),
    "T1.5": ("orbit partition = r-coset partition (exhaustive)", check_classification),
    "T7.1": ("|Aut| = 2^(l-1) = exhaustive GL stabilizer", check_automorphism_count),
    "T7.3": ("reflection generators over splitting fields", check_reflections),
    "C7.4": ("2^(2m) generators, simply transitive orbit", check_generators),
    "CP": ("canonical (m-2)-plane on X", check_canonical_plane),
    "T6.1": ("Arf invariant reproduces the r-coset", check_arf),
    "L8": ("D_{2m+1} root basis in the cycle lattice", check_lattice),
    "AX": ("Aut(X) = R x| G vs PGL3 point stabilizer", check_aut_x),
}


def run_check(tag: str, scale: str) -> VerifyResult:
    """Run one check at `scale`; it stops at its first failed case, whose
    message is the result's detail.  A certificate of the package that fails
    inside the check (an AssertionError) fails this check only."""
    if scale not in SCALES:
        raise ValueError(f"unknown verify scale {scale!r}; expected one of {SCALES}")
    if tag not in CHECKS:
        raise ValueError(f"unknown verify tag {tag!r}")
    description, check = CHECKS[tag]
    t0 = time.time()
    checked, passed, detail = 0, True, ""
    try:
        for cases in check(scale):
            checked += cases
    except _Fail as fail:
        passed, detail = False, str(fail)
    except AssertionError as fail:
        passed, detail = False, f"internal certificate failed: {fail}"
    return VerifyResult(tag, description, passed, checked, time.time() - t0, detail)


def run_suite(scale: str = "small") -> list[VerifyResult]:
    return [run_check(tag, scale) for tag in CHECKS]
