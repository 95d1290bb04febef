import contextlib
import io
import random
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpencil.poly as poly
from oracles import bf_dehomogenize_t1, evaluate, roots_by_scan, roots_in
from qpencil import cli
from qpencil.field import GF, Field, field_from_modulus, find_embedding

FIELDS = [GF(1), GF(2), GF(3)]


def test_gcd_examples(g2):
    assert poly.gcd(g2, [1, 0, 1], [1, 1]) == [1, 1]  # T^2+1 = (T+1)^2
    assert poly.gcd(g2, [1, 1, 1], []) == [1, 1, 1]
    assert poly.gcd(g2, [0, 1], [1, 1]) == [1]
    with pytest.raises(ValueError):
        poly.gcd(g2, [], [])


@contextlib.contextmanager
def _alarm(seconds: int):
    """Turn a hang into a TimeoutError after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_division_refuses_a_wrong_product(monkeypatch, g4):
    # each division step must cancel the top coefficient, the loop's only
    # exit; a field whose products are off by one in the last entry leaves
    # it, which is a failed certificate (exit 3), not a loop without end
    right = Field.addmul

    def wrong(self, acc, cs, vs):
        out = list(right(self, acc, cs, vs))
        if out:
            out[-1] ^= 1
        return out

    monkeypatch.setattr(Field, "addmul", wrong)
    doc = Path(__file__).parent / "golden" / "docs" / "g2_n3_m1.json"
    buf = io.StringIO()
    with _alarm(10):
        with pytest.raises(AssertionError, match="leading coefficient"):
            poly.divmod_(g4, [1, 2, 3, 1], [1, 1])
        with contextlib.redirect_stdout(buf):
            code = cli.main(["regular", "--in", str(doc)])
    assert code == 3 and '"internal"' in buf.getvalue()


def test_separability_examples(g2):
    assert poly.is_separable(g2, [1, 1, 0, 1])  # T^3+T+1
    assert not poly.is_separable(g2, [0, 0, 1])  # T^2
    assert poly.is_separable(g2, [0, 1, 1, 1])  # T(T^2+T+1)
    with pytest.raises(ValueError):
        poly.is_separable(g2, [])


def test_factor_examples(g2):
    fs = poly.factor(g2, [0, 1, 1, 1])
    assert fs == [[0, 1], [1, 1, 1]]
    assert poly.factor(g2, [1, 1, 0, 1]) == [[1, 1, 0, 1]]
    assert poly.factor(g2, [0, 1, 1]) == [[0, 1], [1, 1]]
    with pytest.raises(ValueError):
        poly.factor(g2, [1])
    with pytest.raises(ValueError):
        poly.factor(g2, [])


def test_factor_refuses_repeated_factors(g2, g4):
    # (T+1)^2 * T^3 * (T^2+T+1)
    f = [0, 0, 0, 1]
    f = poly.mul(g2, f, poly.mul(g2, [1, 1], [1, 1]))
    f = poly.mul(g2, f, [1, 1, 1])
    with pytest.raises(ValueError, match="repeated factor"):
        poly.factor(g2, f)
    # a pure square over GF(4): its derivative vanishes
    with pytest.raises(ValueError, match="repeated factor"):
        poly.factor(g4, poly.mul(g4, [2, 1], [2, 1]))
    with pytest.raises(ValueError, match="repeated factor"):
        poly.roots(g4, poly.mul(g4, [0, 1], [0, 1, 1]))


def remultiply(gf, factors):
    acc = [1]
    for f in factors:
        acc = poly.mul(gf, acc, f)
    return acc


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=0, max_value=2**40),
)
def test_factor_remultiplies(gf, deg, seed):
    rng = random.Random(seed)
    f = [rng.randrange(gf.order) for _ in range(deg)] + [
        rng.randrange(1, gf.order)
    ]
    if not poly.is_separable(gf, f):
        with pytest.raises(ValueError):
            poly.factor(gf, f)
        return
    fs = poly.factor(gf, f)
    assert remultiply(gf, fs) == poly.monic(gf, f)
    assert fs == sorted(fs, key=lambda g: (len(g), g))  # canonical order
    assert len(set(map(tuple, fs))) == len(fs)  # distinct
    for g in fs:
        assert g[-1] == 1  # monic factors
        assert poly.factor(gf, g) == [g]  # irreducible


def test_factor_deterministic(g4):
    # the four linear factors and two irreducible quadratics over GF(4): the
    # equal-degree splitting draws from a generator seeded by the input
    f = poly.mul(g4, [0, 1, 0, 0, 1], poly.mul(g4, [2, 1, 1], [3, 1, 1]))
    fs = poly.factor(g4, f)
    assert fs == poly.factor(g4, f)
    assert fs == [[0, 1], [1, 1], [2, 1], [3, 1], [2, 1, 1], [3, 1, 1]]


def test_roots_examples(g2, g4, g8):
    assert roots_in([1, 1, 1], g2, g4) == [2, 3]
    assert roots_in([0, 1], g2, g2) == [0]
    rs = roots_in([1, 1, 0, 1], g2, g8)
    assert len(rs) == 3 and len(set(rs)) == 3
    for x in rs:
        assert evaluate(g8, [1, 1, 0, 1], x) == 0


def test_roots_count_separable(g2, g16):
    f = [0, 1, 1, 1, 1, 1]  # T * (T^4+T^3+T^2+T+1), splits over GF(16)
    assert poly.is_separable(g2, f)
    assert len(roots_in(f, g2, g16)) == 5


def test_binary_form_basics(g2):
    # (t0 + t1)^2 = t0^2 + t1^2
    sq = poly.bf_mul(g2, [1, 1], [1, 1])
    assert sq == [1, 0, 1]
    assert poly.bf_eval(g2, sq, 1, 1) == 0
    assert bf_dehomogenize_t1([0, 1, 1, 1]) == [1, 1, 1]


def test_binary_form_separability(g2):
    assert poly.bf_is_separable(g2, [0, 1, 1, 1])  # t1(t0^2+t0t1+t1^2)
    assert not poly.bf_is_separable(g2, [0, 0, 1, 1])  # t0^2 divides
    assert not poly.bf_is_separable(g2, [1, 0, 1, 0])  # (t0+t1)^2 t0 ... square
    assert poly.bf_is_separable(g2, [1, 1, 1, 1]) is False  # (t0+t1)(t0^2+t1^2)
    assert not poly.bf_is_separable(g2, [0, 0, 0, 0])


def test_binary_form_substitution(g2):
    delta = [0, 1, 1, 1]
    swap = poly.bf_substitute(g2, delta, [[0, 1], [1, 0]])
    assert swap == [1, 1, 1, 0]  # reversed coefficients
    shear = poly.bf_substitute(g2, delta, [[1, 0], [1, 1]])
    assert shear[3] == delta[3]  # a_n fixed by lower-triangular moves


def _random_polys(gf, rng, count):
    """Constants, random polynomials, and products of linear factors with
    repeated roots and the root 0."""
    out = [[rng.randrange(1, gf.order)]]
    for i in range(count):
        f = [rng.randrange(gf.order) for _ in range(rng.randrange(1, 7))]
        f.append(rng.randrange(1, gf.order))
        if i % 2:
            for _ in range(rng.randrange(1, 4)):
                a = rng.choice([0, 1, rng.randrange(gf.order)])
                f = poly.mul(gf, f, poly.mul(gf, [a, 1], [a, 1]) if i % 4 == 1
                             else [a, 1])
        out.append(f)
    return out


def test_roots_match_scan():
    # roots take squarefree polynomials, as factor does: the draws with a
    # repeated factor are refused
    rng = random.Random(2024)
    scanned = refused = 0
    for gf in [GF(k) for k in range(1, 13)] + [field_from_modulus(13)]:
        for f in _random_polys(gf, rng, 12):
            if poly.is_separable(gf, f):
                assert poly.roots(gf, f) == roots_by_scan(gf, f), (gf, f)
                scanned += 1
            else:
                with pytest.raises(ValueError):
                    poly.roots(gf, f)
                refused += 1
    assert (scanned, refused) == (112, 57)
    # no log tables: the scan costs about a second per polynomial
    big = GF(17)
    for f in ([0, 0, 5, 1], poly.mul(big, [rng.randrange(big.order), 1],
                                    [0, 7, 0, 1])):
        with pytest.raises(ValueError):  # T^2 and (T + sqrt 7)^2 divide
            poly.roots(big, f)
    f = poly.mul(big, [rng.randrange(big.order), 1], [0, 7, 1, 1])
    assert poly.is_separable(big, f)
    assert poly.roots(big, f) == roots_by_scan(big, f)
    with pytest.raises(ValueError):
        poly.roots(GF(2), [])


def test_embedding_takes_smallest_scanned_root():
    def smallest_root(src, dst):
        bits = [(src.modulus >> i) & 1 for i in range(src.degree + 1)]
        return roots_by_scan(dst, bits)[0]

    pairs = [(GF(k), GF(big)) for big in range(2, 13)
             for k in range(1, big) if big % k == 0]
    f8 = field_from_modulus(13)
    pairs += [(f8, GF(3)), (GF(3), f8)] + [(f8, GF(j)) for j in (6, 9, 12)]
    for src, dst in pairs:
        assert find_embedding(src, dst).root == smallest_root(src, dst)
    assert len(pairs) == 28


def test_root_finding_multiplications_stay_polynomial(products):
    # a deterministic guard against scanning the field: evaluating at every
    # element of GF(2^24) needs more than 5 * 10^7 multiplications
    big = GF(24)
    a, b, c = 0xABCDEF, 0x123456, 0x0F0F0F
    f = poly.mul(big, poly.mul(big, [a, 1], [b, 1]), [c, 1])
    formed, found = products(lambda: poly.roots(big, f))
    assert 0 < formed < 10**6
    assert found == sorted([a, b, c])
    # bypass the cache
    formed, emb = products(lambda: find_embedding.__wrapped__(GF(8), big))
    assert 0 < formed < 10**6
    assert evaluate(big, [(GF(8).modulus >> i) & 1 for i in range(9)], emb.root) == 0


def test_square_mod_matches_mul_then_mod():
    rng = random.Random(15)
    cases = 0
    for k in list(range(1, 34)) + [48, 64]:
        gf = GF(k)
        for deg in range(1, 18, 2 if k > 4 else 1):
            # monic and non-monic moduli in turn, over every field
            lead = 1 if (deg + k) % 2 else rng.randrange(1, gf.order)
            m = [rng.randrange(gf.order) for _ in range(deg)] + [lead]
            table = poly.square_table(gf, m)
            for h in ([], [1], poly.trim([0, 1][:deg]),
                      poly.trim([rng.randrange(gf.order) for _ in range(deg)])):
                assert poly.square_mod(gf, h, table) == poly.mod(
                    gf, poly.mul(gf, h, h), m), (k, m, h)
                cases += 1
    assert cases == 1388
    with pytest.raises(ValueError):  # h must be reduced below deg m first
        poly.square_mod(GF(2), [0, 1], poly.square_table(GF(2), [3, 1]))


def test_projective_roots(g2, g4):
    def projective_roots(gf, c):  # the factors of form(1, T), as factor gives them
        return poly.bf_projective_roots(c, poly.factor(gf, poly.trim(c[:])))

    pts = projective_roots(g4, [0, 1, 1, 1])
    assert pts == [(1, 0), (1, 2), (1, 3)]  # a_0 = 0 makes (1, 0) a root
    # a_n = 0 puts the point (0, 1) on the zero scheme, after the affine roots
    pts2 = projective_roots(g4, [1, 1, 1, 0])
    assert pts2 == [(1, 2), (1, 3), (0, 1)]
    assert projective_roots(g2, [1, 1, 1, 0]) == [(0, 1)]
    with pytest.raises(ValueError):
        poly.bf_projective_roots([0, 0], [])
