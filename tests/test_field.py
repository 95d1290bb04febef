import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (compose_embeddings, default_modulus_by_search, inv_by_pow, mul_by_bits,
                     pow_by_bits, sqrt_by_bits)
from qpencil.field import (
    _BYTE_DEGREE,
    GF,
    MAX_FIELD_DEGREE,
    Field,
    default_modulus,
    field_from_modulus,
    find_embedding,
    p2_is_irreducible,
)
from qpencil.linalg import mat_mul

FIELDS = [GF(1), GF(2), GF(3), GF(4), GF(8)]


def test_gf2_basics(g2):
    assert g2.mul(1, 1) == 1
    assert g2.div(1, 1) == 1


def test_gf4_multiplication(g4):
    u = 2  # the class of T
    assert g4.mul(u, u) == u ^ 1  # u^2 = u + 1
    assert g4.modulus == 0b111


def test_division_by_zero(g4):
    with pytest.raises(ZeroDivisionError):
        g4.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        g4.inv(0)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        Field(modulus=0b101)  # T^2 + 1 = (T+1)^2
    with pytest.raises(ValueError):
        Field(degree=3, modulus=0b111)  # degree mismatch


def test_enumeration_hits_every_element_once():
    for gf in FIELDS:
        seen = list(gf.elements())
        assert len(seen) == gf.order == len(set(seen))


def test_sqrt_examples(g2, g4):
    assert g2.sqrt(1) == 1
    assert g4.sqrt(2) == 3  # (u+1)^2 = u^2 + 1 = u
    assert g4.sqrt(0) == 0


def test_sqrt_is_frobenius_inverse():
    for gf in FIELDS:
        for a in gf.elements():
            s = gf.sqrt(a)
            assert gf.mul(s, s) == a
            assert gf.sqrt(gf.mul(a, a)) == a


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_field_axioms(gf, a, b, c):
    a %= gf.order
    b %= gf.order
    c %= gf.order
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
    assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
    assert a ^ a == 0
    s = a ^ b
    assert gf.mul(s, s) == gf.mul(a, a) ^ gf.mul(b, b)  # Frobenius additivity
    if b:
        assert gf.mul(gf.div(a, b), b) == a


def test_inverse_and_pow():
    for gf in FIELDS:
        for a in range(1, gf.order):
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.pow(a, gf.order - 1) == 1
        assert gf.pow(0, 0) == 1
        assert gf.pow(0, 5) == 0


def test_embedding_is_ring_homomorphism(g2, g4, g16):
    emb = find_embedding(g4, g16)
    for a in g4.elements():
        for b in g4.elements():
            assert emb.map(a ^ b) == emb.map(a) ^ emb.map(b)
            assert g16.mul(emb.map(a), emb.map(b)) == emb.map(g4.mul(a, b))
    assert emb.map(0) == 0 and emb.map(1) == 1


def test_embedding_composition(g2, g4, g16):
    direct = find_embedding(g2, g16)
    chained = compose_embeddings(g2, find_embedding(g2, g4), find_embedding(g4, g16))
    for a in g2.elements():
        assert direct.map(a) == chained.map(a)


def test_embedding_requires_divisible_degree(g4, g8):
    with pytest.raises(ValueError):
        find_embedding(g4, g8)


def test_extension_constructor(g4):
    ext = GF(2 * g4.degree)
    emb = find_embedding(g4, ext)
    assert ext.degree == 4
    assert emb.dst == ext
    # root really is a root of the source modulus
    x = emb.root
    acc = 0
    for i in range(g4.modulus.bit_length() - 1, -1, -1):
        acc = ext.mul(acc, x) ^ ((g4.modulus >> i) & 1)
    assert acc == 0


def test_default_modulus_table():
    # the committed table against the search it replaced, for every degree
    # a field may have
    for k in range(1, MAX_FIELD_DEGREE + 1):
        assert default_modulus(k) == default_modulus_by_search(k), k
    assert default_modulus(2) == 7
    assert default_modulus(3) == 11
    for k in (0, MAX_FIELD_DEGREE + 1):
        with pytest.raises(ValueError):
            default_modulus(k)


def test_field_factories_are_cached():
    assert GF(3) is GF(3)
    assert field_from_modulus(7) is field_from_modulus(7)


def _irreducibles(k, count, skip):
    """The first `count` irreducible degree-k moduli other than `skip`."""
    out = []
    m = 1 << k
    while len(out) < count and m < 1 << (k + 1):
        if m != skip and p2_is_irreducible(m):
            out.append(m)
        m += 1
    return out


ORACLE_DEGREES = list(range(1, 34)) + [48, 64]


@pytest.mark.parametrize("k", ORACLE_DEGREES)
def test_mul_and_inv_match_the_bit_loop_oracle(k):
    # both kernels (the byte kernel's tables up to degree _BYTE_DEGREE,
    # then the wide kernel's windowed product with the Barrett step and
    # Euclidean inverse): mul and inv on the default and a non-default
    # modulus, on the wide kernel on the three moduli of
    # _moduli_for_the_packed_kernel (a dense mu among them); then sqrt, and
    # pow, exponents negative and at least q - 1 included, on the edge
    # elements and a few random ones
    rng = random.Random(1000 + k)
    default = default_modulus(k)
    moduli = (_moduli_for_the_packed_kernel(k) if k > _BYTE_DEGREE
              else [default] + _irreducibles(k, 1, default))
    for modulus in moduli:
        gf = field_from_modulus(modulus)
        assert (gf._rows is None) == (k > _BYTE_DEGREE)
        edge = [1, 1 << (k - 1), (1 << k) - 1]
        xs = edge + [rng.randrange(1, gf.order) for _ in range(40)]
        for a in xs:
            for b in edge + [rng.choice(xs), rng.randrange(gf.order)]:
                assert gf.mul(a, b) == mul_by_bits(modulus, a, b)
            assert gf.inv(a) == inv_by_pow(modulus, a)
        # sqrt is the xor of its roots of the T^i, which depend on the
        # modulus: every T^i and the random elements, and up to k = 16
        # every element on the default modulus
        sample = [0, *(1 << i for i in range(k)), *xs]
        for a in range(gf.order) if k <= 16 and modulus == default else sample:
            s = gf.sqrt(a)
            assert mul_by_bits(modulus, s, s) == a
        for a in [0] + xs[:6]:
            for e in (0, 1, 2, gf.order - 1, gf.order, rng.randrange(3, 1 << (k + 2))):
                assert gf.pow(a, e) == pow_by_bits(modulus, a, e)
                if a:
                    assert gf.pow(a, -e) == pow_by_bits(modulus, inv_by_pow(modulus, a), e)


@pytest.mark.parametrize("k", range(1, MAX_FIELD_DEGREE + 1))
def test_sqrt_tables_match_the_bit_loop(k):
    # the byte tables against the xor of one root per set bit, on the
    # default modulus and the next irreducible one (GF(4) has no other):
    # every element up to GF(2^16), 10^4 random ones above
    rng = random.Random(2000 + k)
    default = default_modulus(k)
    checked = 0
    for modulus in [default] + _irreducibles(k, 1, default):
        gf = field_from_modulus(modulus)
        xs = range(gf.order) if k <= 16 else [rng.randrange(gf.order) for _ in range(10**4)]
        assert list(map(gf.sqrt, xs)) == sqrt_by_bits(gf, xs), modulus
        checked += len(xs)
    assert checked == (2 * 10**4 if k > 16 else (1 << k) * (1 if k == 2 else 2))


def _addmul_by_bits(modulus, acc, cs, vs):
    out = list(acc)
    for c, v in zip(cs, vs):
        for i, y in enumerate(v):
            out[i] ^= mul_by_bits(modulus, c, y)
    return out


def _mat_mul_by_bits(modulus, a, b):
    out = [[0] * (len(b[0]) if b else 0) for _ in a]
    for i, row in enumerate(a):
        for j in range(len(out[i])):
            for t, x in enumerate(row):
                out[i][j] ^= mul_by_bits(modulus, x, b[t][j])
    return out


@pytest.mark.parametrize("k", ORACLE_DEGREES)
def test_kernel_and_mat_mul_match_the_bit_loop_oracle(k):
    # the product entry on both kernels and every packed slot width (8
    # bits on the byte kernel, k <= 8; 32, 64 and 128 bits on the wide
    # kernel, from k = 9, 17 and 33), on the wide kernel with each of the
    # three moduli of _moduli_for_the_packed_kernel: one-row products
    # acc + sum of c*v (acc a row with c = 1) on vectors with zeros, c in
    # {0, 1, random}, lengths 0..9, one to three pairs per call; then
    # mat_mul on square, non-square, empty and 3 x 600 shapes, with entries
    # drawn from {0, 1, 2^k-1, random} and one product of 2^k-1 only
    rng = random.Random(2000 + k)
    for modulus in (_moduli_for_the_packed_kernel(k) if k > _BYTE_DEGREE
                    else [default_modulus(k)]):
        gf = field_from_modulus(modulus)
        top = gf.order - 1

        def vec(length):
            return [rng.choice((0, 1, top, rng.randrange(gf.order))) for _ in range(length)]

        for length in range(10):
            for _ in range(4):
                pairs = rng.randrange(1, 4)
                cs = [rng.choice((0, 1, rng.randrange(1, gf.order))) for _ in range(pairs)]
                vs = [vec(length) for _ in range(pairs)]
                acc = vec(length)
                before = list(acc)
                got = gf.mat_mul([[1, *cs]], [acc, *vs])[0]
                assert got == _addmul_by_bits(modulus, acc, cs, vs)
                assert acc == before  # the rows of b are left alone
            for c in (0, 1, rng.randrange(2, gf.order) if k > 1 else 1):
                v = vec(length)
                assert gf.mat_mul([[c]], [v])[0] == _addmul_by_bits(
                    modulus, [0] * length, [c], [v])
        shapes = [(1, 5, 3), (5, 1, 4), (4, 6, 1), (1, 1, 1), (3, 3, 3), (2, 0, 3),
                  (0, 3, 2), (9, 7, 8), (3, 2, 600)]
        for rows, inner, cols in shapes:
            a = [vec(inner) for _ in range(rows)]
            b = [vec(cols) for _ in range(inner)]
            assert mat_mul(gf, a, b) == _mat_mul_by_bits(modulus, a, b), (rows, inner, cols)
        a, b = [[top] * 3] * 2, [[top] * 5] * 3
        assert mat_mul(gf, a, b) == _mat_mul_by_bits(modulus, a, b)


def _moduli_for_the_packed_kernel(k):
    """The default modulus, the irreducible with the most set bits among
    the first eight others, and that one's reciprocal T^k m(1/T), also
    irreducible, whose terms sit near T^k, so mu = T^2k // m is dense."""
    default = default_modulus(k)
    dense = max(_irreducibles(k, 8, default), key=lambda m: (bin(m).count("1"), m))
    mirror = int(bin(dense)[:1:-1], 2)
    return [default, dense, mirror]


@pytest.mark.parametrize("k", [9, 12, 13, 16, 17, 20, 24, 32, 33, 48, 64])
def test_packed_kernel_matches_the_bit_loop_oracle(k):
    # the wide kernel: each modulus has its own mu, one-row products
    # acc + sum of c*v (acc a row with c = 1) of lengths 0..61 with up to
    # 61 pairs, c in {0, 1, 2^k-1, random}, entries 2^k-1 (the widest
    # unreduced products); acc is kept
    rng = random.Random(3000 + k)
    top = (1 << k) - 1
    for modulus in _moduli_for_the_packed_kernel(k):
        assert p2_is_irreducible(modulus)
        gf = field_from_modulus(modulus)
        assert gf._rows is None

        def scalar():
            return rng.choice((0, 1, top, rng.randrange(2, top)))

        for length in (0, 1, 2, 9, 31, 61):
            for pairs in (1, 2, rng.randrange(3, 61), 61):
                cs = [scalar() for _ in range(pairs)]
                vs = [[scalar() for _ in range(length)] for _ in range(pairs)]
                acc = [scalar() for _ in range(length)]
                before = list(acc)
                got = gf.mat_mul([[1, *cs]], [acc, *vs])[0]
                assert got == _addmul_by_bits(modulus, acc, cs, vs), (bin(modulus), length, pairs)
                assert acc == before
            assert gf.mat_mul([[1, top]], [[top] * length] * 2)[0] == _addmul_by_bits(
                modulus, [top] * length, [top], [[top] * length])


def test_byte_tables_match_the_bit_loop_oracle():
    # the byte kernel's tables on every irreducible modulus of degree 1-8
    # (2, 1, 2, 3, 6, 9, 18 and 30 of them): rows[c][x] = c x, the inverses
    # and the squares, whole for the default moduli and on the rows of 0,
    # 1, the top element and three random ones for the rest
    rng = random.Random(4000)
    moduli = [m for k in range(1, _BYTE_DEGREE + 1) for m in _irreducibles(k, 1 << k, None)]
    assert len(moduli) == 71
    for modulus in moduli:
        gf = Field(modulus=modulus)
        order = gf.order
        assert len(gf._rows) == order and {len(r) for r in gf._rows} == {256}
        if modulus == default_modulus(gf.degree):
            cs = range(order)
        else:
            cs = {0, 1, order - 1} | {rng.randrange(order) for _ in range(3)}
        for c in cs:
            assert list(gf._rows[c][:order]) == [mul_by_bits(modulus, c, x)
                                                 for x in range(order)], (bin(modulus), c)
        assert [gf._inverses[a] for a in range(1, order)] == [
            inv_by_pow(modulus, a) for a in range(1, order)], bin(modulus)
        assert list(gf._squares[:order]) == [mul_by_bits(modulus, x, x)
                                             for x in range(order)], bin(modulus)


def test_big_field_inverse_uses_no_multiplication(monkeypatch):
    gf = GF(32)
    xs = [1, 2, 1 << 31, (1 << 32) - 1, 0x12345678, 0x9ABCDEF1]

    def refuse(*args):
        raise AssertionError("inv called mul or pow")

    monkeypatch.setattr(Field, "mul", refuse)
    monkeypatch.setattr(Field, "pow", refuse)
    invs = [gf.inv(a) for a in xs]
    monkeypatch.undo()
    assert [gf.mul(a, b) for a, b in zip(xs, invs)] == [1] * len(xs)
