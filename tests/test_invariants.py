import itertools
import json
import random
from pathlib import Path

import pytest

from qpencil import poly
from qpencil.algebra import EtaleAlgebra
from qpencil.autos import pair_algebra
from qpencil.cli import parse_pencil
from qpencil.errors import PreconditionError
from qpencil.field import GF
from qpencil.invariants import arf_invariant, is_isomorphic, r_invariant
from qpencil.linalg import rank
from qpencil.normalform import extract_normal_form, realize
from qpencil.pencil import Pencil
from qpencil.verify import (gl_elements, pulls_back, random_regular_nf_pencil,
                            transformation_law_check)
from oracles import det

GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"


def test_r_invariant_examples(g2):
    an = pair_algebra(realize(g2, [0, 1, 1, 1], [0, 0]))
    assert an.r_value == (0, 0, 0)
    assert r_invariant(an) == ((0, 0, 0), True)
    A = an.algebra
    an2 = pair_algebra(realize(g2, [0, 1, 1, 1], [1, 0]))
    assert an2.r_value == A.d_basis[0]
    assert r_invariant(an2)[1] is True
    an3 = pair_algebra(realize(g2, [0, 1, 1, 1], [0, 1]))
    assert an3.r_value == A.d_basis[1]
    assert r_invariant(an3) == (A.coset_reduce(A.d_basis[1])[0], False)


def test_r_invariant_requires_an(g2):
    # a_n = 0: the analysis runs on the pencil moved to a_n != 0
    an = pair_algebra(realize(g2, [1, 1, 1, 0], [0, 0]))
    assert an.gl2 != ((1, 0), (0, 1)) and an.algebra.f[-1] != 0
    assert r_invariant(an)[1] is True
    # every rational point of P^1 is a root: no frame over GF(2) has a_n != 0
    with pytest.raises(PreconditionError) as err:
        pair_algebra(realize(g2, [0, 1, 1, 0], [0, 0]))
    assert err.value.info["extension_degree"] == 2


def test_isomorphism_examples(g2):
    p00 = realize(g2, [0, 1, 1, 1], [0, 0])
    p10 = realize(g2, [0, 1, 1, 1], [1, 0])
    p01 = realize(g2, [0, 1, 1, 1], [0, 1])
    ok, wit = is_isomorphic(p00, p00)
    assert ok and wit == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ok, wit = is_isomorphic(p00, p10)
    assert ok and wit is not None
    assert p10.q0.transform(wit) == p00.q0
    assert p10.q1.transform(wit) == p00.q1
    ok, wit = is_isomorphic(p00, p01)
    assert not ok and wit is None


def test_isomorphism_matches_exhaustive_orbit(g2):
    # brute force over all 168 elements of GL3(F2)
    gl3 = gl_elements(g2, 3)
    p00 = realize(g2, [0, 1, 1, 1], [0, 0])
    p10 = realize(g2, [0, 1, 1, 1], [1, 0])
    p01 = realize(g2, [0, 1, 1, 1], [0, 1])
    def related(pa, pb):
        return any(
            pulls_back(pb.q0, g, pa.q0) and pulls_back(pb.q1, g, pa.q1)
            for g in gl3
        )
    assert related(p00, p10)
    assert not related(p00, p01)


def test_isomorphism_differs_on_delta(g2):
    p1 = realize(g2, [0, 1, 1, 1], [0, 0])
    p2 = realize(g2, [1, 1, 0, 1], [0, 0])
    ok, wit = is_isomorphic(p1, p2)
    assert not ok and wit is None


def test_isomorphism_with_an_zero(g2, g4):
    # both pencils share Delta = t1(t0+t1)t0 reversed...: use a_n = 0 example
    p1 = realize(g2, [1, 1, 1, 0], [0, 0])
    p2 = p1.conjugate([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    ok, wit = is_isomorphic(p1, p2)
    assert ok
    assert p2.q0.transform(wit) == p1.q0 and p2.q1.transform(wit) == p1.q1


def test_isomorphism_is_equivalence(g2):
    rng = random.Random(13)
    gl3 = gl_elements(g2, 3)
    base = realize(g2, [0, 1, 1, 1], [1, 1])
    assert base.is_regular()
    samples = [base.conjugate(g) for g in rng.sample(gl3, 5)]
    for p in samples:
        ok, _ = is_isomorphic(p, p)
        assert ok
    for pa, pb in itertools.combinations(samples, 2):
        ab, _ = is_isomorphic(pa, pb)
        ba, _ = is_isomorphic(pb, pa)
        assert ab == ba == True  # same orbit by construction


def test_isomorphism_m2_witnesses(g4):
    # same coset (differ by wp(s) for s = d_0): isomorphic with a verified
    # witness; r differing by a non-coset element: not isomorphic
    a = [0, 1, 1, 1, 1, 1]
    base = realize(g4, a, [0, 0, 0, 0])
    A = EtaleAlgebra(g4, tuple(a))
    wp = A.artin_schreier(A.d_basis[0])
    shifted = realize(g4, a, list(A.d_coords(wp))[:4])
    ok, wit = is_isomorphic(base, shifted)
    assert ok
    assert shifted.q0.transform(wit) == base.q0
    assert shifted.q1.transform(wit) == base.q1
    # conjugated pencils stay isomorphic, witness verified
    g = [[1, 0, 2, 0, 1], [0, 1, 0, 0, 3], [0, 0, 1, 0, 0],
         [0, 3, 0, 1, 0], [0, 0, 0, 0, 1]]
    assert rank(g4, g) == 5
    conj = base.conjugate(g)
    ok, wit = is_isomorphic(conj, shifted)
    assert ok
    assert shifted.q0.transform(wit) == conj.q0


def _assert_witness(p1, p2, wit):
    assert p2.q0.transform(wit) == p1.q0 and p2.q1.transform(wit) == p1.q1


@pytest.mark.parametrize("k", (2, 8, 17))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_isomorphism_when_delta_differs_by_a_scalar(k, m):
    # Delta(q o g) = det(g)^2 Delta(q): a conjugate by g with det g != 1
    # has a proportional, unequal Delta and is isomorphic all the same
    gf = GF(k)
    rng = random.Random(100 * k + m)
    p = random_regular_nf_pencil(gf, m, rng)
    while True:
        g = [[rng.randrange(gf.order) for _ in range(p.n)] for _ in range(p.n)]
        d = det(gf, g)
        if d not in (0, 1):
            break
    q = p.conjugate(g)
    lam = gf.mul(d, d)
    assert q.half_discriminant() == [gf.mul(lam, c) for c in p.half_discriminant()]
    for a, b in ((p, q), (q, p)):
        ok, wit = is_isomorphic(a, b)
        assert ok
        _assert_witness(a, b, wit)
    # a partner whose Delta is not proportional stays non-isomorphic
    while True:
        other = random_regular_nf_pencil(gf, m, rng)
        if rank(gf, [p.half_discriminant(), other.half_discriminant()]) == 2:
            break
    assert is_isomorphic(p, other) == (False, None)
    assert is_isomorphic(q, other) == (False, None)


def test_isomorphism_of_g4_n3_12_under_a_diagonal(g4):
    # the first reproduction: Delta [2, 1, 0, 1] against [1, 3, 0, 3]
    p = parse_pencil(json.loads((GOLDEN_DOCS / "g4_n3_12.json").read_text()))
    q = p.conjugate([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (p.half_discriminant(), q.half_discriminant()) == ([2, 1, 0, 1], [1, 3, 0, 3])
    ok, wit = is_isomorphic(p, q)
    assert ok
    _assert_witness(p, q, wit)


def test_transformation_law_basics(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    A = EtaleAlgebra(g2, (0, 1, 1, 1))
    assert transformation_law_check(p, A.zero())
    assert transformation_law_check(p, A.one())
    assert transformation_law_check(p, A.d_basis[1])
    assert transformation_law_check(p, A.d_basis[0])


def test_transformation_law_shifts_coset(g2):
    # conjugating by phi(s) with wp(s) nontrivial changes the representative
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    A = EtaleAlgebra(g2, (0, 1, 1, 1))
    from oracles import phi_model_matrix
    from qpencil.linalg import inverse, mat_mul

    an = pair_algebra(p)
    algebra, nf = an.algebra, an.nf
    s = A.t_power(1)
    scoords = list(algebra.d_coords(s))[:2]
    ms = phi_model_matrix(1, scoords)
    b = nf.basis
    g = mat_mul(g2, mat_mul(g2, b, ms), inverse(g2, b))
    conj = Pencil(p.q0.transform(g), p.q1.transform(g))
    nf2 = extract_normal_form(conj)
    wp = algebra.artin_schreier(s)
    got = [x ^ y for x, y in zip(nf2.r, nf.r)]
    assert got == list(algebra.d_coords(wp))[:2]


def test_arf_examples(g2):
    A = EtaleAlgebra(g2, (0, 1, 1, 1))
    data0 = arf_invariant(pair_algebra(realize(g2, [0, 1, 1, 1], [0, 0])))
    assert data0.arf == A.zero()
    assert data0.matches_r and data0.arf_class == A.zero()
    data01 = arf_invariant(pair_algebra(realize(g2, [0, 1, 1, 1], [0, 1])))
    assert data01.arf == A.d_basis[1]
    assert data01.matches_r
    assert data01.qa_w == (A.d_basis[1],)


def test_arf_qa_values(g2):
    # q_A(w'_{i+1}) = d_{2i+1} and q_A(v'_i) = r_{2i} t + r_{2i+1} at m = 2
    an = pair_algebra(realize(g2, [0, 1, 1, 1, 1, 1], [1, 0, 0, 1]))
    A = EtaleAlgebra(g2, (0, 1, 1, 1, 1, 1))
    data = arf_invariant(an)
    assert data.qa_w == (A.d_basis[1], A.d_basis[3])
    assert data.matches_r


def test_arf_pairing_table_is_delta():
    # b_A(v'_i, w'_j) = delta_{(i+1)j} whatever (a, r): arf_invariant relies
    # on it without evaluating it; b_A is computed from q_A by definition
    rng = random.Random(53)
    for gf in (GF(1), GF(2), GF(8), GF(17)):
        for m in range(1, 6):
            n = 2 * m + 1
            a = [0]
            while not poly.bf_is_separable(gf, a):
                a = [rng.randrange(gf.order) for _ in range(n)]
                a.append(rng.randrange(1, gf.order))  # a_n != 0
            r = [rng.randrange(gf.order) for _ in range(n - 1)]
            model = realize(gf, a, r)
            A = EtaleAlgebra(gf, tuple(a))
            t = A.t_power(1)

            def qa(vec):
                acc = A.zero()
                for form, coef in ((model.q0, A.one()), (model.q1, t)):
                    for i, j in itertools.combinations_with_replacement(range(n), 2):
                        c = form.rows[i][j]
                        if c:
                            term = A.mul(coef, A.mul(vec[i], vec[j]))
                            acc = A.add(acc, tuple(gf.mul(c, x) for x in term))
                return acc

            def ba(x, y):
                s = qa([A.add(u, v) for u, v in zip(x, y)])
                return A.add(s, A.add(qa(x), qa(y)))

            wprime = [
                [A.t_power(k - i) if i <= k <= m else A.zero() for k in range(n)]
                for i in range(m + 1)
            ]
            vprime = [
                [A.one() if k == m + 1 + i else A.zero() for k in range(n)]
                for i in range(m)
            ]
            for i in range(m):
                for j in range(m + 1):
                    want = A.one() if j == i + 1 else A.zero()
                    assert ba(vprime[i], wprime[j]) == want


def test_arf_makes_one_algebra_product_per_plane(monkeypatch):
    # q_A of the primed basis is a coefficient list indexed by exponent
    # sums; the only products in A are the m Arf products q_A(w') q_A(v')
    rng = random.Random(59)
    for gf in (GF(1), GF(2), GF(8), GF(17)):
        for m in range(1, 6):
            n = 2 * m + 1
            a = [0]
            while not poly.bf_is_separable(gf, a):
                a = [rng.randrange(gf.order) for _ in range(n)] + [rng.randrange(1, gf.order)]
            an = pair_algebra(realize(gf, a, [rng.randrange(gf.order) for _ in range(n - 1)]))
            r_invariant(an)  # builds the cached coset pivots
            calls = 0
            mul = EtaleAlgebra.mul

            def counted(self, x, y):
                nonlocal calls
                calls += 1
                return mul(self, x, y)

            with monkeypatch.context() as mp:
                mp.setattr(EtaleAlgebra, "mul", counted)
                data = arf_invariant(an)
            assert data.matches_r
            assert calls <= m, (gf, m, calls)
