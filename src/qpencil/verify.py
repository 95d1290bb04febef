"""Theorem-tagged verification harness.

Every structural claim the package relies on is re-checked here against an
independent brute-force route: explicit coordinate formulas, exhaustive
GL-orbit and stabilizer scans, point/line enumeration, and coset
enumeration.  `run_suite("small")` keeps within a minute; "full" runs the
acceptance-scale counts.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import poly
from .algebra import EtaleAlgebra
from .errors import PreconditionError
from .autos import (
    automorphism_group,
    aut_x,
    pair_algebra,
    reflections,
    reflections_match_idempotents,
)
from .field import GF, Field, find_embedding
from .geometry import (
    brute_force_lines,
    canonical_plane,
    enumerate_generators,
    points_on_X,
    smoothness_oracle,
)
from .invariants import arf_invariant, is_isomorphic, transformation_law_check
from .lattice import cartan_d, lattice_for
from .linalg import mat_mul, mat_vec, rank
from .normalform import extract_normal_form, realize
from .pencil import Pencil, random_pencil
from .quadform import QuadraticForm, half_disc, pfaffian_vector


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
        return (f"[{status}] {self.tag:5s} {self.description} "
                f"(n={self.checked}, {self.seconds:.1f}s){self._tail()}")

    def _tail(self) -> str:
        return f" -- {self.detail}" if self.detail else ""


# one description per tag, reported whether the check passes or fails
DESCRIPTIONS = {
    "HD": "half-discriminant formula (n=3 explicit polynomial)",
    "REG": "regularity criterion vs singular-point scan",
    "T1.1": "Kronecker normal form and round trip",
    "T5.3": "trace dual basis identities",
    "T5.4": "d-basis squaring rule",
    "T5.6": "Artin-Schreier transformation law",
    "T1.5": "orbit partition = r-coset partition (exhaustive)",
    "T7.1": "|Aut| = 2^(l-1) = exhaustive GL stabilizer",
    "T7.3": "reflection generators over splitting fields",
    "C7.4": "2^(2m) generators, simply transitive orbit",
    "CP": "canonical (m-2)-plane on X",
    "T6.1": "Arf invariant reproduces the r-coset",
    "L8": "D_{2m+1} root basis in the cycle lattice",
    "AX": "Aut(X) = R x| G vs PGL3 point stabilizer",
}


def _result(tag, passed, checked, t0, detail=""):
    return VerifyResult(tag, DESCRIPTIONS[tag], bool(passed), checked,
                        time.time() - t0, detail)


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


def gl_elements(gf: Field, n: int) -> list:
    """All invertible n x n matrices, in the lexicographic order of their
    row-major entries: each next row is any vector outside the span of the
    rows before it."""
    vectors = list(itertools.product(gf.elements(), repeat=n))
    out = []

    def extend(rows: list, span: set):
        for v in vectors:
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
        p = realize(gf, a, r, check=False)
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


# ---------------------------------------------------------------------------
# the checks


def check_half_disc(scale: str) -> VerifyResult:
    """HD: the Pfaffian-vector evaluation of the half-discriminant equals the
    explicit n = 3 polynomial, and q(omega) in general."""
    t0 = time.time()
    count = 1000 if scale == "full" else 100
    rng = random.Random(2201)
    checked = 0
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
            if half_disc(q) != explicit:
                return _result("HD", False, checked, t0,
                               f"mismatch at {q.coeffs}")
            omega = pfaffian_vector(gf, q.polar().gram)
            if q(omega) != explicit:
                return _result("HD", False, checked, t0,
                               "q(omega) route disagrees")
            checked += 1
    return _result("HD", True, checked, t0)


def check_regularity_oracle(scale: str) -> VerifyResult:
    """REG: separability of Delta agrees with the brute-force singular-point
    scan, exhaustively at n = 3 over GF(2) plus random n = 5 pencils."""
    t0 = time.time()
    checked = 0
    if scale == "full":
        pencils = all_pencils_n3_gf2()
    else:
        rng0 = random.Random(7)
        pencils = [random_pencil(GF(1), 3, rng0, regular=False) for _ in range(150)]
    for p in pencils:
        if p.is_regular() != smoothness_oracle(p, 4):
            return _result("REG", False, checked, t0,
                           f"disagree at {p.q0.coeffs}|{p.q1.coeffs}")
        checked += 1
    rng = random.Random(1105)
    per_field = 250 if scale == "full" else 20
    for gfdeg in (1, 2):
        gf = GF(gfdeg)
        for _ in range(per_field):
            p = random_pencil(gf, 5, rng, regular=False)
            if p.is_regular() != smoothness_oracle(p, 4):
                return _result("REG", False, checked, t0, "n=5 disagreement")
            checked += 1
    return _result("REG", True, checked, t0)


def check_normal_form(scale: str) -> VerifyResult:
    """T1.1: extraction satisfies the Kronecker equations exactly, the a's
    equal the half-discriminant, and the realized model is isomorphic to
    the pencil, by a witness verified by substitution."""
    t0 = time.time()
    count = 500 if scale == "full" else 60
    rng = random.Random(311)
    combos = [(GF(1), 1), (GF(1), 2), (GF(1), 3), (GF(2), 1), (GF(2), 2),
              (GF(2), 3), (GF(3), 1), (GF(3), 2)]
    checked = 0
    for i in range(count):
        gf, m = combos[i % len(combos)]
        p = random_regular_nf_pencil(gf, m, rng)
        nf = extract_normal_form(p)  # raises if Kronecker equations fail
        if list(nf.a) != p.half_discriminant():
            return _result("T1.1", False, checked, t0,
                           "a differs from half-discriminant")
        model = nf.realized()
        try:
            iso, _ = is_isomorphic(p, model)
        except PreconditionError as err:
            # every rational point is a root of Delta; compare over the
            # reported extension instead
            j = err.info["extension_degree"]
            iso, _ = is_isomorphic(p.extend(j)[0], model.extend(j)[0])
        if not iso:
            return _result("T1.1", False, checked, t0,
                           "the realized normal form is not isomorphic to "
                           "the pencil")
        checked += 1
    return _result("T1.1", True, checked, t0)


def check_dual_basis(scale: str) -> VerifyResult:
    """T5.3: Tr(d_i t^j / f'(t)) = delta_ij for random separable f."""
    t0 = time.time()
    count = 100 if scale == "full" else 20
    rng = random.Random(53)
    checked = 0
    fields = [GF(1), GF(2), GF(3)]
    for i in range(count):
        gf = fields[i % 3]
        deg = rng.randrange(2, 10)
        f = random_separable_poly(gf, deg, rng)
        A = EtaleAlgebra(gf, tuple(f))
        if not A.dual_basis_check():
            return _result("T5.3", False, checked, t0, f"failed for f={f}")
        # falsification control: a perturbed d-element must not pass
        bad = list(A.d_basis[0])
        bad[0] ^= 1
        if A.d_coords(tuple(bad)) == A.d_coords(A.d_basis[0]):
            return _result("T5.3", False, checked, t0,
                           "projection failed to separate elements")
        checked += 1
    return _result("T5.3", True, checked, t0)


def check_squaring(scale: str) -> VerifyResult:
    """T5.4: the d-basis squaring rule equals direct multiplication followed
    by trace projection."""
    t0 = time.time()
    count = 100 if scale == "full" else 20
    rng = random.Random(54)
    checked = 0
    fields = [GF(1), GF(2), GF(3)]
    for i in range(count):
        gf = fields[i % 3]
        deg = rng.randrange(2, 10)
        f = random_separable_poly(gf, deg, rng)
        A = EtaleAlgebra(gf, tuple(f))
        s = [rng.randrange(gf.order) for _ in range(A.n)]
        elem = A.from_d_coords(s)
        direct = A.d_coords(A.square(elem))
        formula = A.square_in_d_basis(s)
        if list(direct) != list(formula):
            return _result("T5.4", False, checked, t0, f"f={f} s={s}")
        checked += 1
    return _result("T5.4", True, checked, t0)


def check_transformation_law(scale: str) -> VerifyResult:
    """T5.6: conjugation by phi(s) shifts r by wp(s) mod constants, exactly."""
    t0 = time.time()
    count = 200 if scale == "full" else 30
    rng = random.Random(56)
    combos = [(GF(1), 1), (GF(1), 2), (GF(1), 3), (GF(2), 1), (GF(2), 2),
              (GF(2), 3)]
    checked = 0
    for i in range(count):
        gf, m = combos[i % len(combos)]
        n = 2 * m + 1
        p = random_comparable_pencil(gf, m, rng)
        s = tuple(rng.randrange(gf.order) for _ in range(n))
        if not transformation_law_check(p, s):
            return _result("T5.6", False, checked, t0,
                           f"failed at m={m} over {gf!r}")
        checked += 1
    return _result("T5.6", True, checked, t0)


def check_classification(scale: str) -> VerifyResult:
    """T1.5: over GF(2), n = 3, the GL3(F2)-orbit partition of regular pairs
    with a fixed Delta (a_3 != 0) equals the r-coset partition."""
    t0 = time.time()
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
    checked = 0
    for a, pencils in sorted(by_delta.items()):
        algebra = EtaleAlgebra(g2, a)
        coset_parts: dict = {}
        index = {}
        for p in pencils:
            key = (p.q0.coeffs, p.q1.coeffs)
            index[key] = p
            nf = extract_normal_form(p)
            rep, _ = algebra.coset_reduce(
                algebra.from_d_coords(list(nf.r) + [0])
            )
            coset_parts.setdefault(rep, set()).add(key)
        unvisited = set(index)
        orbits = []
        while unvisited:
            seed = index[next(iter(unvisited))]
            orbit = set()
            for g in gl32:
                orbit.add((seed.q0.transform(g).coeffs,
                           seed.q1.transform(g).coeffs))
            if not orbit <= set(index):
                return _result("T1.5", False, checked, t0,
                               "orbit left its Delta class")
            unvisited -= orbit
            orbits.append(frozenset(orbit))
        if set(frozenset(s) for s in coset_parts.values()) != set(orbits):
            return _result("T1.5", False, checked, t0,
                           f"partitions differ for Delta={a}")
        checked += len(pencils)
    return _result("T1.5", True, checked, t0)


def check_automorphism_count(scale: str) -> VerifyResult:
    """T7.1: |Aut(q0,q1)| = 2^(l-1), equal to the exhaustive GL-stabilizer."""
    t0 = time.time()
    g2 = GF(1)
    gl32 = gl_elements(g2, 3)
    cases = [
        (g2, (0, 1, 1, 1), (0, 0)),
        (g2, (0, 1, 1, 1), (0, 1)),
        (g2, (1, 0, 0, 1), (0, 0)),
        (g2, (1, 1, 0, 1), (0, 0)),
    ]
    checked = 0
    for gf, a, r in cases:
        p = realize(gf, list(a), list(r))
        aut = automorphism_group(p)
        if len(aut) != 1 << (pair_algebra(p).algebra.num_components - 1):
            return _result("T7.1", False, checked, t0,
                           f"|Aut| != 2^(l-1) at a={a}")
        stab = sum(
            1
            for g in gl32
            if p.q0.transform(g) == p.q0 and p.q1.transform(g) == p.q1
        )
        if stab != len(aut):
            return _result("T7.1", False, checked, t0,
                           f"GL3(F2) stabilizer {stab} != {len(aut)}")
        checked += 1
    if scale == "full":
        g4 = GF(2)
        gl34 = gl_elements(g4, 3)
        split = poly.mul(g4, poly.mul(g4, [0, 1], [1, 1]), [2, 1])
        for f in (split, [0, 2, 1, 1], [2, 3, 0, 1]):
            if not poly.is_separable(g4, list(f)):
                continue
            p = realize(g4, list(f) + [0] * (4 - len(f)), [0, 0])
            aut = automorphism_group(p)
            if len(aut) != 1 << (pair_algebra(p).algebra.num_components - 1):
                return _result("T7.1", False, checked, t0,
                               f"|Aut| != 2^(l-1) over GF(4), f={f}")
            stab = sum(
                1
                for g in gl34
                if p.q0.transform(g) == p.q0 and p.q1.transform(g) == p.q1
            )
            if stab != len(aut):
                return _result("T7.1", False, checked, t0,
                               f"GL3(F4) stabilizer mismatch, f={f}")
            checked += 1
    return _result("T7.1", True, checked, t0)


def check_reflections(scale: str) -> VerifyResult:
    """T7.3: n reflections over a splitting field: involutions, commuting,
    product = identity, and equal to phi of the matching idempotents."""
    t0 = time.time()
    cases = [
        (GF(1), [0, 1, 1, 1], [0, 0], GF(2)),
        (GF(1), [0, 1, 1, 1, 1, 1], [0] * 4, GF(4)),
    ]
    checked = 0
    for gf, a, r, ext in cases:
        p = realize(gf, a, r)
        refl = reflections(p, ext)
        if len(refl) != p.n:
            return _result("T7.3", False, checked, t0, "wrong count")
        n = p.n
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        prod = ident
        mats = [[list(row) for row in rf.matrix] for rf in refl]
        for mat in mats:
            if mat_mul(ext, mat, mat) != ident:
                return _result("T7.3", False, checked, t0, "not an involution")
            prod = mat_mul(ext, prod, mat)
        if prod != ident:
            return _result("T7.3", False, checked, t0,
                           "product is not the identity")
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if mat_mul(ext, mats[i], mats[j]) != mat_mul(
                    ext, mats[j], mats[i]
                ):
                    return _result("T7.3", False, checked, t0,
                                   "reflections do not commute")
        if not reflections_match_idempotents(p, ext, refl):
            return _result("T7.3", False, checked, t0, "phi(eps_i) != rho_i")
        checked += 1
    return _result("T7.3", True, checked, t0)


def check_generators(scale: str) -> VerifyResult:
    """C7.4: exactly 2^(2m) generators in a simply transitive orbit; at m=1
    they are the points of X, at m=2 the brute-force line count is 16."""
    t0 = time.time()
    g2 = GF(1)
    checked = 0
    p1 = realize(g2, [0, 1, 1, 1], [0, 0])
    ext1 = GF(2)
    gens = enumerate_generators(p1, ext1)
    pts = set(g.basis[0] for g in gens)
    if len(gens) != 4 or pts != set(points_on_X(p1, ext1)):
        return _result("C7.4", False, checked, t0,
                       "m=1 generators differ from the points of X")
    checked += 1
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    ext2 = GF(4)
    gens2 = enumerate_generators(dp, ext2)
    if len(gens2) != 16:
        return _result("C7.4", False, checked, t0, "m=2 count != 16")
    if scale == "full":
        lines = brute_force_lines(dp, ext2)
        if len(lines) != 16 or set(lines) != set(g.basis for g in gens2):
            return _result("C7.4", False, checked, t0,
                           "line scan disagrees with the orbit")
    checked += 1
    return _result("C7.4", True, checked, t0)


def check_canonical_plane(scale: str) -> VerifyResult:
    """CP: the canonical plane lies on X with projective dimension m-2."""
    t0 = time.time()
    g2 = GF(1)
    checked = 0
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    cp = canonical_plane(dp)
    if cp.point_basis != ((0, 1, 1, 0, 0),):
        return _result("CP", False, checked, t0,
                       f"expected [0:1:1:0:0], got {cp.point_basis}")
    checked += 1
    g4 = GF(2)
    rng = random.Random(10)
    for _ in range(3):
        p = random_regular_nf_pencil(g4, 2, rng)
        cp4 = canonical_plane(p)  # internal containment asserts
        if len(cp4.point_basis) != 1:
            return _result("CP", False, checked, t0,
                           "wrong dimension at m=2 over GF(4)")
        checked += 1
    g8 = GF(3)
    f = [1]
    for root in range(7):
        f = poly.mul(g8, f, [root, 1])
    p3 = realize(g8, f, [0] * 6)
    cp3 = canonical_plane(p3)
    if len(cp3.point_basis) != 2:
        return _result("CP", False, checked, t0, "wrong dimension at m=3")
    checked += 1
    return _result("CP", True, checked, t0)


def check_arf(scale: str) -> VerifyResult:
    """T6.1: Arf(q_A) = r modulo wp(A) + k for all tested normal forms."""
    t0 = time.time()
    count = 60 if scale == "full" else 15
    rng = random.Random(61)
    combos = [(GF(1), 1), (GF(1), 2), (GF(2), 1), (GF(2), 2), (GF(1), 3)]
    checked = 0
    for i in range(count):
        gf, m = combos[i % len(combos)]
        an = pair_algebra(random_comparable_pencil(gf, m, rng))
        data = arf_invariant(an.nf, an.algebra)
        if not data.matches_r:
            return _result("T6.1", False, checked, t0,
                           f"mismatch at m={m} over {gf!r}")
        checked += 1
    return _result("T6.1", True, checked, t0)


def check_lattice(scale: str) -> VerifyResult:
    """L8: the cycle lattice: line classes square to -1 and K^2 = 4 at m=2,
    with the alpha Gram equal to (-1)^(m-1) Cartan(D_{2m+1})."""
    t0 = time.time()
    g2 = GF(1)
    checked = 0
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    ext = GF(4)
    lat2 = lattice_for(dp, ext, reflections(dp, ext))
    neg = [[-x for x in row] for row in cartan_d(2)]
    if [list(r) for r in lat2.gram_alpha] != neg:
        return _result("L8", False, checked, t0,
                       "m=2 alpha Gram is not -Cartan(D5)")
    if any(lat2.line_gram[i][i] != -1 for i in range(16)):
        return _result("L8", False, checked, t0,
                       "a line class does not square to -1")
    if any(
        sorted(lat2.line_gram[i][j] for j in range(16) if j != i)
        != [0] * 10 + [1] * 5
        for i in range(16)
    ):
        return _result("L8", False, checked, t0,
                       "line intersection graph is not 5-regular")
    k_class = [-3, 1, 1, 1, 1, 1]
    k2 = sum(
        k_class[i] * lat2.gram[i][j] * k_class[j]
        for i in range(6)
        for j in range(6)
    )
    if k2 != 4:
        return _result("L8", False, checked, t0, f"K^2 = {k2} != 4")
    if lat2.lam_empty_in_e != (2, -1, -1, -1, -1, -1):
        return _result("L8", False, checked, t0,
                       "conic class has wrong coordinates")
    checked += 1
    if scale == "full":
        g8 = GF(3)
        f = [1]
        for root in range(7):
            f = poly.mul(g8, f, [root, 1])
        p3 = realize(g8, f, [0] * 6)
        lat3 = lattice_for(p3, g8, reflections(p3, g8))
        if [list(r) for r in lat3.gram_alpha] != cartan_d(3):
            return _result("L8", False, checked, t0,
                           "m=3 alpha Gram is not +Cartan(D7)")
        # Aut-permutation invariance of the full line Gram
        perm_ok = _aut_preserves_line_gram(dp, ext)
        if not perm_ok:
            return _result("L8", False, checked, t0,
                           "automorphisms break the intersection matrix")
        checked += 1
    return _result("L8", True, checked, t0)


def _aut_preserves_line_gram(p: Pencil, ext: Field) -> bool:
    from .autos import apply_to_subspace
    from .lattice import intersection_number

    gens = enumerate_generators(p, ext)
    span_index = {g.basis: i for i, g in enumerate(gens)}
    pe = p.map_field(find_embedding(p.gf, ext))
    auts = automorphism_group(pe)
    m = p.m
    gram = [
        [intersection_number(gens[i], gens[j], m) for j in range(len(gens))]
        for i in range(len(gens))
    ]
    for rep in auts:
        g = [list(row) for row in rep.matrix]
        perm = [
            span_index[apply_to_subspace(ext, g, gen.basis)] for gen in gens
        ]
        for i in range(len(gens)):
            for j in range(len(gens)):
                if gram[perm[i]][perm[j]] != gram[i][j]:
                    return False
    return True


def check_aut_x(scale: str) -> VerifyResult:
    """AX: Aut(X) = R x| G at m=1 equals the brute-force PGL3 stabilizer of
    the four points of X over the splitting field."""
    t0 = time.time()
    g2 = GF(1)
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    ext = GF(2)
    ax = aut_x(p, ext)
    checked = 1
    if len(ax.pair_autos) != 4:
        return _result("AX", False, checked, t0, "R has wrong order")
    if ax.order != len(ax.pair_autos) * len(ax.g_elements):
        return _result("AX", False, checked, t0, "|Aut| != |R| * |G|")
    # closure sanity: the multiplication table only references group elements
    size = ax.order
    if any(x >= size for row in ax.mult_table for x in row):
        return _result("AX", False, checked, t0, "table escapes")
    if scale == "full":
        pts = points_on_X(p, ext)
        stab = _pgl_point_stabilizer_order(ext, pts)
        if stab != ax.order:
            return _result("AX", False, checked, t0,
                           f"PGL3 stabilizer {stab} != {ax.order}")
        checked += 1
    return _result("AX", True, checked, t0)


def _pgl_point_stabilizer_order(gf: Field, pts: list) -> int:
    def norm(v):
        for x in v:
            if x:
                inv = gf.inv(x)
                return tuple(gf.mul(inv, y) for y in v)
        raise ValueError

    target = set(norm(list(p)) for p in pts)
    count = 0
    for m in gl_elements(gf, len(pts[0])):
        if next(x for x in m[0] if x) != 1:
            continue  # one matrix per projective class
        if set(norm(mat_vec(gf, m, list(pt))) for pt in target) == target:
            count += 1
    return count


CHECKS = [
    check_half_disc,
    check_regularity_oracle,
    check_normal_form,
    check_dual_basis,
    check_squaring,
    check_transformation_law,
    check_classification,
    check_automorphism_count,
    check_reflections,
    check_generators,
    check_canonical_plane,
    check_arf,
    check_lattice,
    check_aut_x,
]


def run_suite(scale: str = "small") -> list[VerifyResult]:
    if scale not in ("small", "full"):
        scale = "small"
    return [fn(scale) for fn in CHECKS]
