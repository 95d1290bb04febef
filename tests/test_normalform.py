import itertools
import random

import pytest

from oracles import all_subspaces, kronecker_equations_hold, polar_by_definition, vv_system
from qpencil import normalform
from qpencil.errors import NotRegularError
from qpencil.field import GF
from qpencil.linalg import normalize_subspace, rank, solve, transpose
from qpencil.normalform import complete_kronecker, extract_normal_form, realize
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm, is_totally_isotropic
from qpencil.verify import gl_elements, random_regular_nf_pencil


def test_realize_m1_tables(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    assert p.q0 == QuadraticForm.from_table(g2, 3, {(1, 1): 1, (1, 2): 1})
    assert p.q1 == QuadraticForm.from_table(g2, 3, {(0, 0): 1, (1, 1): 1, (0, 2): 1})


def test_realize_m2_del_pezzo(g2):
    p = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    assert p.is_regular()
    assert p.half_discriminant() == [0, 1, 1, 1, 1, 1]


def test_realize_rejects_inseparable(g2):
    # realize only builds the pencil; Delta = t0 t1^2 (t0 + t1) is caught
    # when the result is asked to be regular
    with pytest.raises(NotRegularError):
        realize(g2, [0, 0, 1, 1], [0, 0]).require_regular()
    with pytest.raises(ValueError):
        realize(g2, [0, 1, 1, 1], [0])  # wrong r length


def test_extract_round_trip_exact(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    nf = extract_normal_form(p)
    assert nf.a == (0, 1, 1, 1)
    assert nf.r == (0, 0)
    assert nf.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_radical_map_brute_force_m1(g2):
    # q0 = x1^2 + x2 x3, q1 = x2^2 + x1 x3 (1-based names)
    q0 = QuadraticForm.from_table(g2, 3, {(0, 0): 1, (1, 2): 1})
    q1 = QuadraticForm.from_table(g2, 3, {(1, 1): 1, (0, 2): 1})
    p = Pencil(q0, q1)
    assert p.is_regular()
    ws = p.radical_map()
    w_span = normalize_subspace(g2, ws)
    # oracle: the unique common totally singular plane, by exhaustive search
    found = []
    for span in all_subspaces(g2, 3, 2):
        vecs = [list(v) for v in span]
        ok = True
        for q in (q0, q1):
            for a in range(2):
                for b in range(a + 1, 2):
                    if polar_by_definition(q, vecs[a], vecs[b]):
                        ok = False
        if ok:
            found.append(span)
    assert found == [w_span]


def test_extract_on_conjugates(g2, g4):
    rng = random.Random(17)
    gl3 = gl_elements(g2, 3)
    p = realize(g2, [0, 1, 1, 1], [0, 1])
    for g in rng.sample(gl3, 40):
        pc = p.conjugate(g)
        nf = extract_normal_form(pc)  # the internal round trip asserts
        assert list(nf.a) == pc.half_discriminant()
        assert nf.a == (0, 1, 1, 1)


def test_radical_map_equivariance(g2):
    # w-span of a conjugate is the inverse image of the w-span
    rng = random.Random(23)
    gl3 = gl_elements(g2, 3)
    p = realize(g2, [0, 1, 1, 1], [1, 1])
    ws = p.radical_map()
    span = normalize_subspace(g2, ws)
    from qpencil.linalg import inverse, mat_vec

    for g in rng.sample(gl3, 25):
        pc = p.conjugate(g)
        wc = pc.radical_map()
        ginv = inverse(g2, g)
        expected = normalize_subspace(
            g2, [mat_vec(g2, ginv, list(w)) for w in ws]
        )
        assert normalize_subspace(g2, wc) == expected


def test_radical_map_transformation_law(g4):
    # for the conjugate pair (q0 o g, q1 o g) the Pfaffian vectors transform
    # exactly by det(g) g^{-1}, coefficientwise in (lambda, mu)
    from oracles import det
    from qpencil.linalg import inverse, mat_vec

    rng = random.Random(37)
    p = realize(g4, [0, 1, 1, 1, 2, 3], [1, 0, 2, 0])
    assert p.is_regular()
    ws = p.radical_map()
    for _ in range(25):
        g = None
        while g is None:
            cand = [[rng.randrange(4) for _ in range(5)] for _ in range(5)]
            if rank(g4, cand) == 5:
                g = cand
        pc = p.conjugate(g)
        wc = pc.radical_map()
        d = det(g4, g)
        ginv = inverse(g4, g)
        for wi, wci in zip(ws, wc):
            expect = [g4.mul(d, x) for x in mat_vec(g4, ginv, list(wi))]
            assert wci == expect


def test_complete_kronecker_satisfies_equations(g4):
    rng = random.Random(29)
    for m in (1, 2, 3):
        n = 2 * m + 1
        while True:
            a = [rng.randrange(4) for _ in range(n + 1)]
            import qpencil.poly as poly

            if poly.bf_is_separable(g4, a):
                break
        r = [rng.randrange(4) for _ in range(n - 1)]
        p = realize(g4, a, r)
        g = None
        while g is None:
            cand = [[rng.randrange(4) for _ in range(n)] for _ in range(n)]
            if rank(g4, cand) == n:
                g = cand
        pc = p.conjugate(g)
        ws = pc.radical_map()
        cols = transpose(complete_kronecker(pc, ws))
        assert len(cols) == n and cols[: m + 1] == ws
        assert kronecker_equations_hold(pc, cols[: m + 1], cols[m + 1:])


def test_vv_correction_matches_solve():
    # the XOR elimination against rref over the field on the dense system;
    # the rows are independent, so every right-hand side is consistent
    rng = random.Random(49)
    cases = 0
    for gf in (GF(1), GF(2), GF(8), GF(17)):
        for m in range(2, 13):
            rows = vv_system(m)
            assert rank(GF(1), rows) == len(rows)
            for _ in range(4):
                c1, c0 = ([rng.randrange(gf.order) for _ in range(len(rows) // 2)]
                          for _ in range(2))
                expected, = solve(gf, rows, [[x for pair in zip(c1, c0) for x in pair]])
                assert normalform._vv_correction(m, c1, c0) == expected, (gf, m)
                cases += 1
    assert cases == 176


def test_round_trip_rejects_exactly_the_broken_kronecker_bases(monkeypatch):
    # one entry of one w or v vector changed: extraction must fail exactly
    # when the independent oracle says the Kronecker equations fail (a few
    # changes of v_0 along w_0, or of v_{m-1} along w_m, keep them)
    rng = random.Random(41)
    build = normalform.complete_kronecker
    corrupted = []

    def corrupt(p, ws):
        vecs = transpose(build(p, ws))
        k, t = rng.randrange(len(vecs)), rng.randrange(p.n)
        vecs[k][t] ^= rng.randrange(1, p.gf.order)
        w, v = vecs[: p.m + 1], vecs[p.m + 1 :]
        corrupted.append((w, v))
        return tuple(map(tuple, transpose(vecs)))

    monkeypatch.setattr(normalform, "complete_kronecker", corrupt)
    verdicts = set()
    for degree in (1, 2, 3, 8, 17):
        gf = GF(degree)
        for m in (1, 2, 3, 4):
            for _ in range(10):
                p = random_regular_nf_pencil(gf, m, rng)
                try:
                    extract_normal_form(p)
                    accepted = True
                except AssertionError:
                    accepted = False
                assert accepted == kronecker_equations_hold(p, *corrupted[-1])
                verdicts.add(accepted)
    assert len(corrupted) == 200
    assert verdicts == {True, False}


def test_exhaustive_extraction_n3_gf2(g2):
    # every regular pair on GF(2)^3: the realize pullback (which holds
    # exactly when the Kronecker equations do) and a = half-discriminant
    # are both verified inside extract
    keys = [(i, j) for i in range(3) for j in range(i, 3)]
    forms = [
        QuadraticForm.from_table(g2, 3, dict(zip(keys, bits)))
        for bits in itertools.product([0, 1], repeat=6)
    ]
    count = 0
    for q0 in forms:
        for q1 in forms:
            try:
                p = Pencil(q0, q1)
            except ValueError:
                continue
            if not p.is_regular():
                continue
            nf = extract_normal_form(p)
            assert list(nf.a) == p.half_discriminant()
            count += 1
    assert count == 1008


def test_extraction_swap_symmetry(g2):
    p = realize(g2, [1, 1, 0, 1], [1, 0])
    assert p.is_regular()
    nf = extract_normal_form(p)
    swapped = p.change_basis_gl2([[0, 1], [1, 0]])
    nf2 = extract_normal_form(swapped)
    assert nf2.a == tuple(reversed(nf.a))


def test_extract_refuses_nonregular(g2):
    p = realize(g2, [0, 0, 1, 1], [0, 0])
    with pytest.raises(NotRegularError):
        extract_normal_form(p)


def test_v_span_isotropic_iff_r_zero(g2):
    p = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    nf = extract_normal_form(p)
    vs = transpose(nf.basis)[nf.m + 1:]
    assert is_totally_isotropic(p.q0, vs)
    assert is_totally_isotropic(p.q1, vs)


def test_vv_correction_matches_solve_up_to_m30():
    # the back-substitution against rref on the dense system at sizes the
    # 176-case test above does not reach; m = 1 has no pairs and no rows
    assert normalform._vv_correction(1, [], []) == [0, 0]
    assert vv_system(1) == []
    rng = random.Random(61)
    fields = (GF(1), GF(2), GF(8), GF(17))
    for m in range(13, 31):
        gf = fields[m % len(fields)]
        rows = vv_system(m)
        rhs = [[rng.randrange(gf.order) for _ in rows] for _ in range(2)]
        for b, expected in zip(rhs, solve(gf, rows, rhs)):
            c1, c0 = b[0::2], b[1::2]
            assert normalform._vv_correction(m, c1, c0) == expected, (gf, m)
