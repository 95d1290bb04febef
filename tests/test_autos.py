import random

import pytest

from qpencil.autos import (
    automorphism_group,
    aut_x,
    catalecticant,
    pair_algebra,
    pgl2_elements,
    phi,
    phi_model_matrix,
    reflections,
    reflections_match_idempotents,
)
from qpencil.errors import PreconditionError
from qpencil.field import GF, find_embedding
from qpencil.linalg import identity, mat_mul
from qpencil.normalform import realize
from qpencil.verify import gl_elements, pulls_back


def test_catalecticant_shape():
    s = [1, 2, 3, 4]
    cat = catalecticant(2, s)
    assert cat == [[1, 2], [2, 3], [3, 4]]
    g = phi_model_matrix(2, s)
    assert g[0][3:5] == [1, 2]
    assert g[2][3:5] == [3, 4]
    for i in range(5):
        assert g[i][i] == 1


def test_phi_is_homomorphism_with_kernel_k(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    an = pair_algebra(p)
    algebra, nf = an.algebra, an.nf
    assert phi(algebra, nf, algebra.zero()).matrix == tuple(
        tuple(r) for r in identity(3)
    )
    assert phi(algebra, nf, algebra.one()).matrix == tuple(
        tuple(r) for r in identity(3)
    )
    # phi(s + s') = phi(s) phi(s')
    rng = random.Random(2)
    for _ in range(15):
        s1 = algebra.element([rng.randrange(2) for _ in range(3)])
        s2 = algebra.element([rng.randrange(2) for _ in range(3)])
        lhs = phi(algebra, nf, algebra.add(s1, s2)).matrix
        rhs = mat_mul(
            g2,
            [list(r) for r in phi(algebra, nf, s1).matrix],
            [list(r) for r in phi(algebra, nf, s2).matrix],
        )
        assert [list(r) for r in lhs] == rhs
    # kernel is exactly the constants
    trivial = [
        s
        for s in (algebra.element([a, b, c])
                  for a in range(2) for b in range(2) for c in range(2))
        if phi(algebra, nf, s).matrix == tuple(tuple(r) for r in identity(3))
    ]
    assert sorted(trivial) == [algebra.zero(), algebra.one()]


def test_phi_moves_v_by_w(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    an = pair_algebra(p)
    algebra, nf = an.algebra, an.nf
    s = algebra.from_d_coords([1, 0, 0])
    rep = phi(algebra, nf, s)
    # g(v_0) = v_0 + s_0 w_0 + s_1 w_1 with (s_0, s_1) = (1, 0)
    mat = [list(r) for r in rep.matrix]
    assert [row[2] for row in mat] == [1, 0, 1]


def test_automorphism_group_orders(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    assert len(automorphism_group(p)) == 2
    p_irr = realize(g2, [1, 1, 0, 1], [0, 0])
    assert len(automorphism_group(p_irr)) == 1
    pe = p.map_field(find_embedding(g2, g4))
    assert len(automorphism_group(pe)) == 4  # split: order 2^(2m)


def test_automorphism_group_matches_stabilizer(g2):
    gl3 = gl_elements(g2, 3)
    for a, r in [((0, 1, 1, 1), (0, 0)), ((1, 0, 0, 1), (1, 0)),
                 ((1, 1, 0, 1), (0, 1))]:
        p = realize(g2, list(a), list(r))
        group = {g.matrix for g in automorphism_group(p)}
        stab = {
            tuple(tuple(r_) for r_ in g)
            for g in gl3
            if pulls_back(p.q0, g, p.q0) and pulls_back(p.q1, g, p.q1)
        }
        assert group == stab


def test_automorphism_group_with_an_zero(g2):
    p = realize(g2, [1, 1, 1, 0], [0, 0], check=False)
    assert p.is_regular()
    group = automorphism_group(p)
    for rep in group:
        g = [list(r) for r in rep.matrix]
        assert p.q0.transform(g) == p.q0 and p.q1.transform(g) == p.q1


def test_reflections_m1(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    refl = reflections(p, g4)
    assert len(refl) == 3
    prod = identity(3)
    for r in refl:
        m = [list(row) for row in r.matrix]
        assert mat_mul(g4, m, m) == identity(3)
        prod = mat_mul(g4, prod, m)
        # reflections are automorphisms of the pair over the extension
        pe = p.map_field(find_embedding(g2, g4))
        assert pe.q0.transform(m) == pe.q0 and pe.q1.transform(m) == pe.q1
    assert prod == identity(3)
    assert reflections_match_idempotents(p, g4, refl)
    with pytest.raises(PreconditionError):
        reflections(p, g2)  # GF(2) does not split Delta


def test_reflections_generate_full_group(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    refl = reflections(p, g4)
    group = {tuple(tuple(r) for r in identity(3))}
    frontier = [identity(3)]
    while frontier:
        cur = frontier.pop()
        for r in refl:
            nxt = mat_mul(g4, cur, [list(row) for row in r.matrix])
            key = tuple(tuple(x) for x in nxt)
            if key not in group:
                group.add(key)
                frontier.append(nxt)
    assert len(group) == 4  # 2^(2m)


def test_pgl2_count(g2, g4):
    assert len(pgl2_elements(g2)) == 6  # 2^3 - 2
    assert len(pgl2_elements(g4)) == 60  # q^3 - q


def test_aut_x_m1(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    ax = aut_x(p, g4)
    assert len(ax.pair_autos) == 4
    assert len(ax.g_elements) == 6
    assert ax.order == 24
    # closure: the multiplication table is a Latin square over the classes
    size = ax.order
    for row in ax.mult_table:
        assert sorted(row) == list(range(size))
    # every element preserves X as a point set
    from qpencil.verify import points_on_X

    pts = set(points_on_X(p, g4))
    pe = p.map_field(find_embedding(g2, g4))
    from qpencil.linalg import mat_vec

    def norm(v):
        for x in v:
            if x:
                inv = g4.inv(x)
                return tuple(g4.mul(inv, y) for y in v)

    for cls in ax.elements:
        g = [list(r) for r in cls]
        image = {norm(mat_vec(g4, g, list(pt))) for pt in pts}
        assert image == pts


def test_aut_x_requires_quasi_split(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 1])
    with pytest.raises(PreconditionError):
        aut_x(p, g4)  # r-coset nontrivial over GF(4)


def test_aut_x_g_trivial_means_r_only(g2):
    # Delta = T(T+1)(T^2+T+1)(T^3+T+1) type example would be heavy; instead
    # check |Aut(X)| = |R| * |G| structurally on the m=1 case over GF(4)
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    ax = aut_x(p, GF(2))
    assert ax.order == len(ax.pair_autos) * len(ax.g_elements)


def test_aut_x_m2_with_symmetric_roots(g8):
    # roots {0, inf, 1, g, 1/g} of Delta are preserved by a Klein four-group
    # of the projective line; exercises the symmetric-power lifts at m = 2
    import qpencil.poly as poly
    from qpencil.verify import points_on_X
    from qpencil.linalg import mat_vec

    g = 2
    delta = poly.bf_mul(g8, [1, 0], [0, 1])
    for root in (1, g, g8.inv(g)):
        delta = poly.bf_mul(g8, delta, [root, 1])
    p = realize(g8, delta, [0] * 4, check=False)
    assert p.is_regular()
    ax = aut_x(p, g8)
    assert len(ax.pair_autos) == 16
    assert len(ax.g_elements) == 4
    assert ax.order == 64
    pts = set(points_on_X(p, g8))
    assert len(pts) == 8**2 + 6 * 8 + 1  # split quartic del Pezzo count

    def norm(v):
        for x in v:
            if x:
                inv = g8.inv(x)
                return tuple(g8.mul(inv, y) for y in v)

    for cls in ax.elements:
        gm = [list(r) for r in cls]
        assert {norm(mat_vec(g8, gm, list(pt))) for pt in pts} == pts
    for row in ax.mult_table:
        assert sorted(row) == list(range(64))
