import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpencil.poly as poly
from oracles import (
    algebra_trace,
    all_idempotents,
    coset_columns_per_element,
    evaluate,
    trace_projection,
    wp_plus_constants,
)
from qpencil.algebra import EtaleAlgebra
from qpencil.field import GF
from qpencil.linalg import gf2_pivots
from qpencil.verify import random_separable_poly

F_EXAMPLE = (0, 1, 1, 1)  # T^3 + T^2 + T = T (T^2 + T + 1)


def test_rejects_inseparable(g2):
    with pytest.raises(ValueError):
        EtaleAlgebra(g2, (0, 0, 1))  # T^2
    with pytest.raises(ValueError):
        EtaleAlgebra(g2, (1, 0))  # zero leading coefficient


def test_mul_and_trace_examples(g2):
    A = EtaleAlgebra(g2, F_EXAMPLE)
    t = A.t_power(1)
    t2 = A.t_power(2)
    assert A.mul(t, t2) == A.element([0, 1, 1])  # t^3 = t^2 + t
    assert algebra_trace(A, A.one()) == 1  # n = 3 is odd
    assert algebra_trace(A, t) == 1  # companion trace a_{n-1}/a_n


def test_trace_by_root_sum(g4):
    # split algebra: trace = sum of evaluations at the roots
    f = [0, 1]  # T
    for root in (1, 2):
        f = poly.mul(g4, f, [root, 1])
    A = EtaleAlgebra(g4, tuple(f))
    rng = random.Random(4)
    for _ in range(25):
        h = [rng.randrange(4) for _ in range(3)]
        elem = A.element(h)
        expect = 0
        for root in (0, 1, 2):
            expect ^= evaluate(g4, h, root)
        assert algebra_trace(A, elem) == expect


def test_d_basis_examples(g2):
    A = EtaleAlgebra(g2, (1, 1, 0, 1))  # T^3 + T + 1
    assert A.d_basis == ((1, 0, 1), (0, 1, 0), (1, 0, 0))
    B = EtaleAlgebra(g2, F_EXAMPLE)
    assert B.d_basis == ((1, 1, 1), (1, 1, 0), (1, 0, 0))
    assert B.d_basis[-1] == B.element([B.f[-1]])  # d_{n-1} spans the constants


def test_d_basis_generating_identity(g4):
    # f(X) = (X - t)(d_0 + d_1 X + ... + d_{n-1} X^{n-1}) in A[X]
    rng = random.Random(11)
    for _ in range(10):
        deg = rng.randrange(2, 7)
        while True:
            f = [rng.randrange(4) for _ in range(deg)] + [rng.randrange(1, 4)]
            if poly.is_separable(g4, f):
                break
        A = EtaleAlgebra(g4, tuple(f))
        t = A.t_power(1)
        # coefficient of X^k in (X - t) sum d_i X^i is d_{k-1} + t d_k
        ds = A.d_basis
        for k in range(deg + 1):
            prev = ds[k - 1] if k >= 1 else A.zero()
            cur = A.mul(t, ds[k]) if k < deg else A.zero()
            expect = A.element([f[k]])
            assert A.add(prev, cur) == expect


def _units(n):
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


def test_dual_basis_check_and_perturbation(g2):
    # Tr(d_i t^j / f'(t)) = delta_ij, and d_coords agrees
    for f in [(1, 1, 0, 1), F_EXAMPLE]:
        A = EtaleAlgebra(g2, f)
        assert [trace_projection(A, d) for d in A.d_basis] == _units(A.n)
        assert [A.d_coords(d) for d in A.d_basis] == _units(A.n)
    A = EtaleAlgebra(g2, F_EXAMPLE)
    # a perturbed element projects differently (falsification control)
    bad = list(A.d_basis[0])
    bad[1] ^= 1
    assert A.d_coords(tuple(bad)) != (1, 0, 0)
    assert trace_projection(A, tuple(bad)) == A.d_coords(tuple(bad))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([GF(1), GF(4), GF(17)]),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**32),
)
def test_d_coords_round_trip_and_trace_projection(gf, deg, seed):
    # separable f, non-monic included: back-substitution inverts
    # from_d_coords and equals the trace-dual projection
    rng = random.Random(seed)
    A = EtaleAlgebra(gf, tuple(random_separable_poly(gf, deg, rng)))
    x = A.element([rng.randrange(gf.order) for _ in range(deg)])
    assert A.from_d_coords(list(A.d_coords(x))) == x
    assert trace_projection(A, x) == A.d_coords(x)


def test_d_coords_roundtrip(g8):
    rng = random.Random(15)
    while True:
        f = [rng.randrange(8) for _ in range(5)] + [rng.randrange(1, 8)]
        if poly.is_separable(g8, f):
            break
    A = EtaleAlgebra(g8, tuple(f))
    for _ in range(20):
        x = A.element([rng.randrange(8) for _ in range(5)])
        assert A.from_d_coords(list(A.d_coords(x))) == x


def test_square_in_d_basis_examples(g2):
    A = EtaleAlgebra(g2, F_EXAMPLE)
    # s = d_{n-1} = 1: square has only the a_n coordinate at position n-1
    got = A.square_in_d_basis([0, 0, 1])
    assert got == [0, 0, 1]
    # s = d_1: (1+t)^2 = 1 + t^2; check against trace projection
    got = A.square_in_d_basis([0, 1, 0])
    direct = A.d_coords(A.square(A.d_basis[1]))
    assert got == list(direct)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([GF(1), GF(2), GF(3)]),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_square_rule_matches_multiplication(gf, deg, seed):
    rng = random.Random(seed)
    for _ in range(40):
        f = [rng.randrange(gf.order) for _ in range(deg)] + [
            rng.randrange(1, gf.order)
        ]
        if poly.is_separable(gf, f):
            break
    else:
        return
    A = EtaleAlgebra(gf, tuple(f))
    s = [rng.randrange(gf.order) for _ in range(deg)]
    elem = A.from_d_coords(s)
    assert list(A.d_coords(A.square(elem))) == A.square_in_d_basis(s)


def test_idempotents_example(g2):
    A = EtaleAlgebra(g2, F_EXAMPLE)
    assert A.idempotents == ((1, 1, 1), (0, 1, 1))  # t^2+t+1 and t^2+t
    B = EtaleAlgebra(g2, (1, 1, 0, 1))  # irreducible
    assert B.idempotents == ((1, 0, 0),)
    assert all_idempotents(B) == [B.zero(), B.one()]


def test_idempotent_action_split(g4):
    # split f: eps_i acts as evaluation at alpha_i, so eps_i * t = alpha_i eps_i
    f = [0, 1]
    for root in (1, 2):
        f = poly.mul(g4, f, [root, 1])
    A = EtaleAlgebra(g4, tuple(f))
    t = A.t_power(1)
    roots = [g4.div(fi[0], fi[1]) for fi in A.factors]
    for eps, alpha in zip(A.idempotents, roots):
        scaled = tuple(g4.mul(alpha, x) for x in eps)
        assert A.mul(eps, t) == scaled


def test_kernel_of_artin_schreier_is_idempotents(g2, g4):
    for gf, f in [(g2, F_EXAMPLE), (g2, (1, 1, 0, 1)), (g4, (2, 1, 1))]:
        A = EtaleAlgebra(gf, f)
        kernel = []
        for coords in itertools.product(gf.elements(), repeat=A.n):
            x = A.element(list(coords))
            if A.artin_schreier(x) == A.zero():
                kernel.append(x)
        assert sorted(kernel) == sorted(all_idempotents(A))
        assert len(kernel) == 1 << A.num_components


def test_artin_schreier_examples(g2):
    A = EtaleAlgebra(g2, F_EXAMPLE)
    assert A.artin_schreier(A.zero()) == A.zero()
    assert A.artin_schreier(A.one()) == A.zero()
    assert A.artin_schreier(A.idempotents[1]) == A.zero()
    t = A.t_power(1)
    assert A.artin_schreier(t) == A.element([0, 1, 1])
    # additivity
    rng = random.Random(3)
    for _ in range(20):
        x = A.element([rng.randrange(2) for _ in range(3)])
        y = A.element([rng.randrange(2) for _ in range(3)])
        assert A.artin_schreier(A.add(x, y)) == A.add(
            A.artin_schreier(x), A.artin_schreier(y)
        )


def test_coset_reduce_against_enumeration(g2, g4):
    for gf, f in [(g2, F_EXAMPLE), (g2, (1, 1, 0, 1)), (g4, (0, 2, 3, 1))]:
        A = EtaleAlgebra(gf, f)
        members = wp_plus_constants(A)
        for coords in itertools.product(gf.elements(), repeat=A.n):
            x = A.element(list(coords))
            rep, trivial = A.coset_reduce(x)
            assert trivial == (x in members)
            rep2, t2 = A.coset_reduce(rep)
            assert rep2 == rep  # canonical representative is stable
            # x and rep are in the same coset
            assert A.add(x, rep) in members


def test_coset_examples(g2):
    A = EtaleAlgebra(g2, F_EXAMPLE)
    assert A.coset_reduce(A.d_basis[0])[1] is True
    assert A.coset_reduce(A.d_basis[1])[1] is False
    assert A.coset_reduce(A.one())[1] is True


def test_solve_artin_schreier(g2):
    A = EtaleAlgebra(g2, F_EXAMPLE)
    assert A.solve_artin_schreier(A.zero()) == A.zero()
    s = A.solve_artin_schreier(A.d_basis[0])
    assert s is not None
    res = A.add(A.artin_schreier(s), A.d_basis[0])
    assert res[1:] == (0, 0)  # the defect is a constant
    assert A.solve_artin_schreier(A.d_basis[1]) is None


def test_index_of_coset_subspace(g2, g4):
    # |A / (k + wp(A))| = 2^(l-1) whenever deg f is odd (some component has
    # odd degree, so the constants are not absorbed into wp(A))
    for gf, f in [(g2, F_EXAMPLE), (g2, (1, 1, 0, 1)), (g4, (0, 2, 3, 1)),
                  (g4, (2, 3, 0, 1))]:
        A = EtaleAlgebra(gf, f)
        members = wp_plus_constants(A)
        total = gf.order ** A.n
        assert total // len(members) == 1 << (A.num_components - 1)


def test_trace_form_nondegenerate(g4):
    rng = random.Random(8)
    for _ in range(10):
        deg = rng.randrange(2, 6)
        while True:
            f = [rng.randrange(4) for _ in range(deg)] + [rng.randrange(1, 4)]
            if poly.is_separable(g4, f):
                break
        A = EtaleAlgebra(g4, tuple(f))
        from oracles import det

        gram = [
            [algebra_trace(A, A.mul(A.t_power(i), A.t_power(j)))
             for j in range(deg)]
            for i in range(deg)
        ]
        assert det(g4, gram) != 0


def test_non_monic_algebra(g4):
    # a_n = 2: the d-basis keeps the original coefficients
    f = (1, 3, 0, 2)
    assert poly.is_separable(g4, list(f))
    A = EtaleAlgebra(g4, f)
    assert A.d_basis[-1] == A.element([2])
    assert [trace_projection(A, d) for d in A.d_basis] == _units(3)
    assert [A.d_coords(d) for d in A.d_basis] == _units(3)
    rng = random.Random(10)
    s = [rng.randrange(4) for _ in range(3)]
    assert list(A.d_coords(A.square(A.from_d_coords(s)))) == A.square_in_d_basis(s)


def test_square_matches_mul():
    # the squaring table against the generic product, f non-monic included
    rng = random.Random(51)
    cases = 0
    for k in (1, 2, 3, 8, 17, 32):
        gf = GF(k)
        for deg in range(1, 10):
            f = random_separable_poly(gf, deg, rng)
            A = EtaleAlgebra(gf, tuple(f))
            for _ in range(4):
                x = A.element([rng.randrange(gf.order) for _ in range(deg)])
                assert A.square(x) == A.mul(x, x), (k, f, x)
                cases += 1
            assert A.square(A.one()) == A.one()
    assert cases == 216


def test_coset_pivots_match_per_column():
    # columns from the squaring table, one kernel call per bit b, against
    # wp(x^b t^j) squared by multiplication one column at a time: the same
    # columns in the same order give the same pivots, f non-monic included
    rng = random.Random(52)
    cases = 0
    for k in (1, 2, 3, 8, 17, 32):
        gf = GF(k)
        for deg in range(1, 10):
            f = random_separable_poly(gf, deg, rng)
            c = rng.randrange(2, gf.order) if gf.order > 2 else 1
            A = EtaleAlgebra(gf, tuple(gf.mul(c, x) for x in f))
            assert A._coset_pivots == tuple(gf2_pivots(coset_columns_per_element(A))), (k, f)
            cases += A.f[-1] != 1
    assert cases == 39
