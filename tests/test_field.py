import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import compose_embeddings
from qpencil.field import (
    GF,
    Field,
    default_modulus,
    field_from_modulus,
    find_embedding,
    p2_is_irreducible,
)

FIELDS = [GF(1), GF(2), GF(3), GF(4), GF(8)]


def test_gf2_basics(g2):
    assert g2.add(1, 1) == 0
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


def test_trace_examples(g2, g4):
    assert g2.trace(1) == 1
    assert g4.trace(1) == 0
    assert g4.trace(2) == 1  # u + u^2 = 1


def test_trace_additive_and_balanced():
    for gf in FIELDS:
        zeros = sum(1 for a in gf.elements() if gf.trace(a) == 0)
        assert zeros == gf.order // 2
        for a in list(gf.elements())[:8]:
            for b in list(gf.elements())[:8]:
                assert gf.trace(a ^ b) == gf.trace(a) ^ gf.trace(b)
                assert gf.trace(gf.mul(a, a)) == gf.trace(a)


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
        for a in gf.nonzero_elements():
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
    chained = compose_embeddings(find_embedding(g2, g4), find_embedding(g4, g16))
    for a in g2.elements():
        assert direct.map(a) == chained.map(a)


def test_embedding_requires_divisible_degree(g4, g8):
    with pytest.raises(ValueError):
        find_embedding(g4, g8)


def test_extension_constructor(g4):
    ext, emb = g4.extension(2)
    assert ext.degree == 4
    assert emb.src == g4 and emb.dst == ext
    # root really is a root of the source modulus
    x = emb.root
    acc = 0
    for i in range(g4.modulus.bit_length() - 1, -1, -1):
        acc = ext.mul(acc, x) ^ ((g4.modulus >> i) & 1)
    assert acc == 0


def test_default_modulus_table():
    for k in range(1, 13):
        m = default_modulus(k)
        assert m.bit_length() - 1 == k
        assert p2_is_irreducible(m)
    assert default_modulus(2) == 7
    assert default_modulus(3) == 11


def test_field_factories_are_cached():
    assert GF(3) is GF(3)
    assert field_from_modulus(7) is field_from_modulus(7)


def test_large_field_without_tables():
    gf = GF(17)  # beyond the table limit; raw multiplication path
    a, b = 12345, 98765
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.mul(a, gf.inv(a)) == 1
    s = gf.sqrt(a)
    assert gf.mul(s, s) == a
