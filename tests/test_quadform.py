import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (is_zero, pfaffian_by_matchings, pfaffian_vector_fraction_free,
                     polar_by_definition)
from qpencil.field import GF, field_from_modulus, find_embedding
from qpencil.linalg import mat_mul, mat_vec, nullspace, rank, transpose
from qpencil.normalform import realize
from qpencil.quadform import QuadraticForm, is_totally_isotropic, pfaffian_vector
from qpencil.verify import proj_points

FIELDS = [GF(1), GF(2)]


def qf(gf, n, table):
    return QuadraticForm.from_table(gf, n, table)


def random_form(gf, n, rng):
    return qf(
        gf, n,
        {(i, j): rng.randrange(gf.order) for i in range(n) for j in range(i, n)},
    )


def test_polar_examples(g2):
    q = qf(g2, 2, {(0, 1): 1})
    assert q.polar() == ((0, 1), (1, 0))
    q2 = qf(g2, 2, {(0, 0): 1})
    assert q2.polar() == ((0, 0), (0, 0))
    q3 = qf(g2, 3, {(0, 0): 1, (1, 1): 1, (0, 1): 1, (1, 2): 1})
    g = q3.polar()
    assert g[0][1] == 1 and g[1][2] == 1 and g[0][2] == 0


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**32),
)
def test_polar_matches_definition(gf, n, seed):
    rng = random.Random(seed)
    q = random_form(gf, n, rng)
    for _ in range(6):
        v = [rng.randrange(gf.order) for _ in range(n)]
        w = [rng.randrange(gf.order) for _ in range(n)]
        assert mat_vec(gf, [v], mat_vec(gf, q.polar(), w)) == [polar_by_definition(q, v, w)]
        assert polar_by_definition(q, v, v) == 0
        c = rng.randrange(gf.order)
        assert q([gf.mul(c, x) for x in v]) == gf.mul(gf.mul(c, c), q(v))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_transform_restricts_to_the_column_span(gf, n, k, seed):
    rng = random.Random(seed)
    table = dense_table(gf, n, rng)
    g = [[rng.randrange(gf.order) for _ in range(k)] for _ in range(n)]
    check_transform(gf, table, qf(gf, n, table), g)


def check_transform(gf, table, q, g):
    """q o g for an n x k matrix g is the form on k variables with q on the
    columns of g as diagonal and their polar values off it, each computed
    from q's table."""
    k = len(g[0])
    cols = [[row[j] for row in g] for j in range(k)]
    values = [value_by_table(gf, table, c) for c in cols]
    want = qf(gf, k, {
        (i, j): values[i] if i == j else value_by_table(
            gf, table, [x ^ y for x, y in zip(cols[i], cols[j])]) ^ values[i] ^ values[j]
        for i in range(k) for j in range(i, k)
    })
    assert q.transform(g) == want


def value_by_table(gf, table, v):
    """q(v) = sum of c v_i v_j over the entries (i, j): c of q's table,
    summed as sum_i v_i (sum_j c v_j)."""
    mul = gf.mul
    inner = [0] * len(v)
    for (i, j), c in table.items():
        inner[i] ^= mul(c, v[j])
    acc = 0
    for x, y in zip(v, inner):
        acc ^= mul(x, y)
    return acc


def dense_table(gf, n, rng):
    return {(i, j): rng.randrange(gf.order) for i in range(n) for j in range(i, n)}


def model_tables(gf, a, r):
    """The tables of realize(gf, a, r), from the normal form's definition:
    q0 = sum a_2i x_i^2 + sum x_(i+1) y_i + sum r_(2i+1) y_i^2 and
    q1 = sum a_(2i+1) x_i^2 + sum x_i y_i + sum r_2i y_i^2, y_i = x_(m+1+i)."""
    m = len(r) // 2
    t0 = {(i, i): a[2 * i] for i in range(m + 1)}
    t1 = {(i, i): a[2 * i + 1] for i in range(m + 1)}
    for i in range(m):
        y = m + 1 + i
        t0[(i + 1, y)], t0[(y, y)] = 1, r[2 * i + 1]
        t1[(i, y)], t1[(y, y)] = 1, r[2 * i]
    return t0, t1


@pytest.mark.parametrize("degree", [1, 2, 8, 17, 32])
def test_forms_match_their_tables(degree):
    # for n = 1..61, dense random forms and, for odd n >= 3, the sparse
    # forms of a realize model, each against values computed from its table
    gf = GF(degree)
    emb = find_embedding(gf, GF(2 * degree))
    rng = random.Random(degree)
    for n in range(1, 62):
        draws = [(dense_table(gf, n, rng), dense_table(gf, n, rng))]
        if n >= 3 and n % 2:
            a = [rng.randrange(gf.order) for _ in range(n + 1)]
            r = [rng.randrange(gf.order) for _ in range(n - 1)]
            model = realize(gf, a, r)
            draws.append(model_tables(gf, a, r))
            assert (model.q0, model.q1) == tuple(qf(gf, n, t) for t in draws[-1])
        for t0, t1 in draws:
            q0, q1 = qf(gf, n, t0), qf(gf, n, t1)
            v, w = ([rng.randrange(gf.order) if rng.random() < 0.8 else 0
                     for _ in range(n)] for _ in range(2))
            values = [value_by_table(gf, t, v) for t in (t0, t1)]
            assert [q0(v), q1(v)] == values
            gram = q0.polar()
            assert all(gram[i][i] == 0 for i in range(n))
            assert mat_vec(gf, [v], mat_vec(gf, gram, w)) == [polar_by_definition(
                lambda x: value_by_table(gf, t0, x), v, w)]
            l, u = rng.randrange(gf.order), rng.randrange(gf.order)
            member = q0.scale(l).add(q1.scale(u))
            assert member(v) == gf.mul(l, values[0]) ^ gf.mul(u, values[1])
            assert member == qf(gf, n, {
                key: gf.mul(l, t0.get(key, 0)) ^ gf.mul(u, t1.get(key, 0))
                for key in t0.keys() | t1.keys()})
            assert q0.map_field(emb)(emb.map_vec(v)) == emb.map(values[0])
            k = 1 + n % 2
            check_transform(gf, t0, q0, [
                [rng.randrange(gf.order) for _ in range(k)] for _ in range(n)])


def bordered(gram):
    """The alternating matrix with a zero last row and column appended: its
    principal Pfaffian at the new index is the Pfaffian of gram."""
    n = len(gram)
    return [list(row) + [0] for row in gram] + [[0] * (n + 1)]


def test_pfaffian_4x4_matching_formula(g4):
    rng = random.Random(5)
    for _ in range(30):
        vals = {}
        for i in range(4):
            for j in range(i + 1, 4):
                vals[(i, j)] = rng.randrange(4)
        gram = [[0] * 4 for _ in range(4)]
        for (i, j), c in vals.items():
            gram[i][j] = gram[j][i] = c
        expect = (
            g4.mul(vals[(0, 1)], vals[(2, 3)])
            ^ g4.mul(vals[(0, 2)], vals[(1, 3)])
            ^ g4.mul(vals[(0, 3)], vals[(1, 2)])
        )
        assert pfaffian_vector(g4, bordered(gram))[4] == expect
        assert pfaffian_by_matchings(g4, gram) == expect


def test_pfaffian_squares_to_det():
    from oracles import det

    rng = random.Random(11)
    for gf in FIELDS:
        for n in (2, 4, 6, 8, 10):
            for _ in range(6):
                gram = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        c = rng.randrange(gf.order)
                        gram[i][j] = gram[j][i] = c
                pf = pfaffian_vector(gf, bordered(gram))[n]
                assert gf.mul(pf, pf) == det(gf, gram)
                assert pf == pfaffian_by_matchings(gf, gram)


def test_pfaffian_of_hyperbolic_sum(g2):
    n = 6
    gram = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        gram[i][i + 1] = gram[i + 1][i] = 1
    assert pfaffian_vector(g2, bordered(gram)) == [0] * n + [1]


def test_pfaffian_vector_n3(g4):
    rng = random.Random(2)
    for _ in range(20):
        b12, b13, b23 = (rng.randrange(4) for _ in range(3))
        gram = [[0, b12, b13], [b12, 0, b23], [b13, b23, 0]]
        assert pfaffian_vector(g4, gram) == [b23, b13, b12]
    assert pfaffian_vector(g4, [[0] * 3] * 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        pfaffian_vector(g4, [[0, 0], [0, 0]])


def _alternating(gf, n, rng, density=1.0):
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                gram[i][j] = gram[j][i] = rng.randrange(gf.order)
    return gram


def test_pfaffian_vector_kills_gram():
    # dense and sparse matrices, the sparse ones often of corank >= 3, where
    # every principal Pfaffian vanishes; each entry against the matchings
    from qpencil.linalg import mat_vec

    rng = random.Random(9)
    coranks = set()
    for gf in FIELDS:
        for n in (3, 5, 7, 9):
            for density in (1.0, 0.3, 0.1):
                for _ in range(8):
                    gram = _alternating(gf, n, rng, density)
                    omega = pfaffian_vector(gf, gram)
                    assert mat_vec(gf, gram, omega) == [0] * n
                    for k in range(n):
                        minor = [
                            [x for c, x in enumerate(row) if c != k]
                            for r, row in enumerate(gram)
                            if r != k
                        ]
                        assert omega[k] == pfaffian_by_matchings(gf, minor)
                    coranks.add(n - rank(gf, gram))
    assert {1, 3, 5} <= coranks


# both kernels, each with its default and a non-default modulus
PIN_FIELDS = [GF(1), GF(8), field_from_modulus(0b100011101), GF(17), GF(32),
              field_from_modulus(1 << 32 | 0b10101111)]


@pytest.mark.parametrize("gf", PIN_FIELDS, ids=repr)
def test_pfaffian_vector_is_the_fraction_free_reference(gf):
    # every odd n up to 31: a dense draw, a sparse one and one of corank
    # >= 3 (an alternating matrix on n - 2 coordinates, moved by a random
    # congruence g^T A g, which keeps it alternating)
    rng = random.Random(gf.modulus)
    coranks = set()
    for n in range(1, 32, 2):
        grams = [_alternating(gf, n, rng), _alternating(gf, n, rng, 0.2)]
        if n >= 3:
            small = [row + [0, 0] for row in _alternating(gf, n - 2, rng)] + [[0] * n] * 2
            g = [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]
            grams.append(mat_mul(gf, transpose(g), mat_mul(gf, small, g)))
        for gram in grams:
            assert pfaffian_vector(gf, gram) == pfaffian_vector_fraction_free(gf, gram)
            coranks.add(min(n - rank(gf, gram), 3))
    assert coranks == {1, 3}


def test_basic_singular_pair_radicals(g2):
    # b0 of the m=2 Kronecker shape: b0(w_i, v_j) = delta_{i(j+1)}
    n = 5
    gram0 = [[0] * n for _ in range(n)]
    for j in range(2):  # pairs w_{j+1} <-> v_j
        gram0[j + 1][3 + j] = gram0[3 + j][j + 1] = 1
    assert n - rank(g2, gram0) == 1
    assert pfaffian_vector(g2, gram0) == [1, 0, 0, 0, 0]  # spanned by w_0
    # b1: b1(w_i, v_j) = delta_{ij}; its radical is w_m
    gram1 = [[0] * n for _ in range(n)]
    for j in range(2):
        gram1[j][3 + j] = gram1[3 + j][j] = 1
    assert pfaffian_vector(g2, gram1) == [0, 0, 1, 0, 0]


def test_corank_and_radical(g2):
    zero = ((0, 0, 0),) * 3
    assert 3 - rank(g2, zero) == 3
    hyp = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    assert 3 - rank(g2, hyp) == 1
    assert nullspace(g2, hyp) == [[0, 0, 1]]


def test_half_disc_explicit_n3():
    rng = random.Random(1)
    for gf in FIELDS:
        for _ in range(200):
            t = {
                (i, j): rng.randrange(gf.order)
                for i in range(3)
                for j in range(i, 3)
            }
            q = qf(gf, 3, t)
            mul = gf.mul
            explicit = (
                mul(t[(0, 0)], mul(t[(1, 2)], t[(1, 2)]))
                ^ mul(t[(1, 1)], mul(t[(0, 2)], t[(0, 2)]))
                ^ mul(t[(2, 2)], mul(t[(0, 1)], t[(0, 1)]))
                ^ mul(t[(0, 1)], mul(t[(1, 2)], t[(0, 2)]))
            )
            assert q(pfaffian_vector(gf, q.polar())) == explicit


def test_half_disc_examples(g2):
    q = qf(g2, 3, {(0, 1): 1, (2, 2): 1})
    assert q(pfaffian_vector(g2, q.polar())) == 1
    totally_singular = qf(g2, 3, {(0, 0): 1, (1, 1): 1})
    assert totally_singular(pfaffian_vector(g2, totally_singular.polar())) == 0
    with pytest.raises(ValueError):
        pfaffian_vector(g2, qf(g2, 2, {(0, 1): 1}).polar())


def test_half_disc_detects_smoothness(g2, g4):
    # nonzero half-discriminant <=> no singular point on the quadric
    rng = random.Random(77)
    for gf, maxdeg in ((g2, 4), (g4, 2)):
        for _ in range(40):
            q = random_form(gf, 3, rng)
            if is_zero(q):
                continue
            hd = q(pfaffian_vector(gf, q.polar()))
            singular = False
            for d in range(1, maxdeg + 1):
                ext = GF(gf.degree * d)
                emb = find_embedding(gf, ext)
                qe = q.map_field(emb)
                gram = qe.polar()
                from qpencil.linalg import mat_vec

                for x in proj_points(ext, 3):
                    if qe(x) == 0 and mat_vec(ext, gram, x) == [0] * 3:
                        singular = True
                        break
                if singular:
                    break
            assert (hd != 0) == (not singular)


def test_totally_singular_vs_isotropic(g2):
    # x^2 has a zero polar form, so every span is totally singular for it,
    # yet <e_0> is not totally isotropic
    q_hyp = qf(g2, 2, {(0, 1): 1})
    assert is_totally_isotropic(q_hyp, [[1, 0]])
    q_sq = qf(g2, 2, {(0, 0): 1})
    assert q_sq.polar() == ((0, 0), (0, 0))
    assert not is_totally_isotropic(q_sq, [[1, 0]])
    with pytest.raises(ValueError):
        is_totally_isotropic(q_sq, [[1, 0], [1, 0]])


def test_normal_form_w_span_is_isotropic(g2):
    from qpencil.normalform import realize

    p = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    w_span = [[1 if t == i else 0 for t in range(5)] for i in range(3)]
    for q in (p.q0, p.q1):  # totally singular: the polar form vanishes
        assert all(polar_by_definition(q, x, y) == 0 for x in w_span for y in w_span)
    assert not is_totally_isotropic(p.q0, w_span)  # q0(w_1) = a_2 = 1
    v_span = [[1 if t == 3 + i else 0 for t in range(5)] for i in range(2)]
    assert is_totally_isotropic(p.q0, v_span)  # r = 0 normal form
    assert is_totally_isotropic(p.q1, v_span)


def test_transform_composition(g4):
    rng = random.Random(8)
    from qpencil.linalg import mat_mul, mat_vec
    from qpencil.verify import gl_elements

    gls = gl_elements(g4, 2)
    q2 = random_form(g4, 2, rng)
    for a in gls[:8]:
        for b in gls[:8]:
            assert q2.transform(mat_mul(g4, a, b)) == q2.transform(a).transform(b)
    for g in gls[:20]:
        qg = q2.transform(g)
        for v in ([0, 1], [1, 0], [1, 1], [2, 3]):
            assert qg(v) == q2(mat_vec(g4, g, v))
