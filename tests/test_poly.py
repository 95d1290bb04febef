import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpencil.poly as poly
from oracles import bf_dehomogenize_t1, roots_in
from qpencil.field import GF

FIELDS = [GF(1), GF(2), GF(3)]


def test_gcd_examples(g2):
    assert poly.gcd(g2, [1, 0, 1], [1, 1]) == [1, 1]  # T^2+1 = (T+1)^2
    assert poly.gcd(g2, [1, 1, 1], []) == [1, 1, 1]
    assert poly.gcd(g2, [0, 1], [1, 1]) == [1]
    with pytest.raises(ValueError):
        poly.gcd(g2, [], [])


def test_separability_examples(g2):
    assert poly.is_separable(g2, [1, 1, 0, 1])  # T^3+T+1
    assert not poly.is_separable(g2, [0, 0, 1])  # T^2
    assert poly.is_separable(g2, [0, 1, 1, 1])  # T(T^2+T+1)
    with pytest.raises(ValueError):
        poly.is_separable(g2, [])


def test_factor_examples(g2):
    fs = poly.factor(g2, [0, 1, 1, 1])
    assert fs == [([0, 1], 1), ([1, 1, 1], 1)]
    assert poly.factor(g2, [1, 1, 0, 1]) == [([1, 1, 0, 1], 1)]
    assert poly.factor(g2, [0, 1, 1]) == [([0, 1], 1), ([1, 1], 1)]
    with pytest.raises(ValueError):
        poly.factor(g2, [1])
    with pytest.raises(ValueError):
        poly.factor(g2, [])


def test_factor_with_multiplicities(g2, g4):
    # (T+1)^2 * T^3 * (T^2+T+1)
    f = [0, 0, 0, 1]
    f = poly.mul(g2, f, poly.mul(g2, [1, 1], [1, 1]))
    f = poly.mul(g2, f, [1, 1, 1])
    fs = poly.factor(g2, f)
    assert fs == [([0, 1], 3), ([1, 1], 2), ([1, 1, 1], 1)]
    # pure square over GF(4)
    sq = poly.mul(g4, [2, 1], [2, 1])
    assert poly.factor(g4, sq) == [([2, 1], 2)]


def remultiply(gf, factors):
    acc = [1]
    for f, e in factors:
        for _ in range(e):
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
    fs = poly.factor(gf, f)
    assert remultiply(gf, fs) == poly.monic(gf, f)
    for g, _ in fs:
        assert g[-1] == 1  # monic factors
        assert len(poly.factor(gf, g)) == 1  # irreducible
    # separability <=> all multiplicities 1
    squarefree = all(e == 1 for _, e in fs)
    assert poly.is_separable(gf, f) == (
        squarefree and sum(len(g) - 1 for g, e in fs) == deg
    )


def test_factor_deterministic(g4):
    f = [3, 1, 2, 0, 1, 1]
    assert poly.factor(g4, f) == poly.factor(g4, f)


def test_roots_examples(g2, g4, g8):
    assert roots_in([1, 1, 1], g2, g4) == [2, 3]
    assert roots_in([0, 1], g2, g2) == [0]
    rs = roots_in([1, 1, 0, 1], g2, g8)
    assert len(rs) == 3 and len(set(rs)) == 3
    for x in rs:
        assert poly.evaluate(g8, [1, 1, 0, 1], x) == 0


def test_roots_count_separable(g2, g16):
    f = [0, 1, 1, 1, 1, 1]  # T * (T^4+T^3+T^2+T+1), splits over GF(16)
    assert poly.is_separable(g2, f)
    assert len(roots_in(f, g2, g16)) == 5


def test_binary_form_basics(g2):
    # (t0 + t1)^2 = t0^2 + t1^2
    sq = poly.bf_mul(g2, [1, 1], [1, 1])
    assert sq == [1, 0, 1]
    assert poly.bf_eval(g2, sq, 1, 1) == 0
    assert poly.bf_dehomogenize_t0([0, 1, 1, 1]) == [0, 1, 1, 1]
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


def test_projective_roots(g2, g4):
    pts = poly.bf_projective_roots([0, 1, 1, 1], g2, g4)
    assert len(pts) == 3
    assert (1, 0) in pts  # a_0 = 0 makes (1, 0) a root
    # a_n = 0 puts the point (0, 1) on the zero scheme
    pts2 = poly.bf_projective_roots([1, 1, 1, 0], g2, g4)
    assert (0, 1) in pts2 and len(pts2) == 3
    with pytest.raises(ValueError):
        poly.bf_projective_roots([0, 0], g2, g2)
