import random

import pytest

import qpencil.poly as poly
from oracles import singular_points_on_X
from qpencil.errors import PreconditionError
from qpencil.field import GF, find_embedding
from qpencil.geometry import (
    canonical_plane,
    enumerate_generators,
    quasi_split_over,
    splitting_degree,
)
from qpencil.normalform import realize
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm
from qpencil.verify import (
    brute_force_lines,
    points_on_X,
    proj_count,
    proj_points,
    random_pencil,
    smoothness_oracle,
)


def test_proj_points_count(g4):
    pts = list(proj_points(g4, 3))
    assert len(pts) == proj_count(4, 3) == 21
    assert len(set(tuple(p) for p in pts)) == 21
    for p in pts:
        lead = next(x for x in p if x)
        assert lead == 1


def test_points_on_X_m1(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    assert points_on_X(p, g2) == [(1, 0, 1), (0, 0, 1)]
    pts = points_on_X(p, g4)
    assert len(pts) == 4
    pe = p.map_field(find_embedding(g2, g4))
    for x in pts:
        assert pe.q0(list(x)) == 0 and pe.q1(list(x)) == 0


def test_points_on_X_del_pezzo(g2, g16):
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    pts = points_on_X(dp, g2)
    assert (0, 1, 1, 0, 0) in pts  # the canonical point
    count = len(points_on_X(dp, g16))
    assert count == 16**2 + 6 * 16 + 1  # split del Pezzo surface point count


def test_scan_guard(g2):
    p = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    with pytest.raises(PreconditionError):
        points_on_X(p, GF(32))


def test_smoothness_oracle_examples(g2):
    p = realize(g2, [0, 1, 1, 1], [1, 0])
    assert smoothness_oracle(p, 3)
    bad = realize(g2, [0, 0, 1, 1], [0, 0], check=False)
    assert not smoothness_oracle(bad, 3)
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    assert smoothness_oracle(dp, 4)


def test_smoothness_oracle_reads_no_delta(g2, monkeypatch):
    # the scan checks the Delta criterion, so it may not be steered by it:
    # with Delta and its roots unavailable it gives the same answers
    p = realize(g2, [0, 1, 1, 1], [1, 0])
    bad = realize(g2, [0, 0, 1, 1], [0, 0], check=False)
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    vanishing = Pencil(QuadraticForm.from_table(g2, 3, {(0, 1): 1}),
                       QuadraticForm.from_table(g2, 3, {(0, 2): 1}))

    def unavailable(*args):
        raise AssertionError("the smoothness oracle read Delta")

    monkeypatch.setattr(Pencil, "half_discriminant", unavailable)
    monkeypatch.setattr(poly, "bf_projective_roots", unavailable)
    assert smoothness_oracle(p, 3)
    assert not smoothness_oracle(bad, 3)
    assert smoothness_oracle(dp, 4)
    assert not smoothness_oracle(vanishing, 2)


def test_smoothness_oracle_vs_rank_scan(g2):
    # the member-radical walk finds a singular point iff the literal
    # Jacobian-rank scan over X does, over matching extensions
    rng = random.Random(19)
    for _ in range(60):
        p = random_pencil(g2, 3, rng, regular=False)
        found_rank = any(
            singular_points_on_X(p, GF(d)) for d in (1, 2, 3, 4)
        )
        assert smoothness_oracle(p, 4) == (not found_rank)


def test_smoothness_oracle_degenerate_delta(g2):
    # q0 = x1 x2, q1 = x1 x3 share the plane x1 = 0: Delta vanishes
    q0 = QuadraticForm.from_table(g2, 3, {(0, 1): 1})
    q1 = QuadraticForm.from_table(g2, 3, {(0, 2): 1})
    p = Pencil(q0, q1)
    assert all(c == 0 for c in p.half_discriminant())
    assert not p.is_regular()
    assert not smoothness_oracle(p, 2)


def test_canonical_plane_del_pezzo(g2):
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    cp = canonical_plane(dp)
    assert cp.l0 == (0, 1, 1) and cp.l1 == (1, 1, 1)
    assert cp.point_basis == ((0, 1, 1, 0, 0),)


def test_canonical_plane_requires_m2(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    with pytest.raises(PreconditionError):
        canonical_plane(p)


def test_canonical_plane_sqrt_coefficients(g4):
    # a-coefficients that are not squares of rationals in GF(2): use GF(4)
    rng = random.Random(41)
    while True:
        a = [rng.randrange(4) for _ in range(6)]
        if poly.bf_is_separable(g4, a):
            break
    p = realize(g4, a, [0] * 4, check=False)
    cp = canonical_plane(p)
    for i in range(3):
        assert g4.mul(cp.l0[i], cp.l0[i]) == a[2 * i]
        assert g4.mul(cp.l1[i], cp.l1[i]) == a[2 * i + 1]


def test_canonical_plane_equivariance(g2):
    from qpencil.linalg import inverse, mat_vec, normalize_subspace

    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    cp = canonical_plane(dp)
    rng = random.Random(43)
    gl5 = []
    from qpencil.linalg import rank

    while len(gl5) < 10:
        g = [[rng.randrange(2) for _ in range(5)] for _ in range(5)]
        if rank(g2, g) == 5:
            gl5.append(g)
    for g in gl5:
        pc = dp.conjugate(g)
        cpc = canonical_plane(pc)
        ginv = inverse(g2, g)
        expected = normalize_subspace(
            g2, [mat_vec(g2, ginv, list(v)) for v in cp.point_basis]
        )
        assert normalize_subspace(g2, [list(v) for v in cpc.point_basis]) == expected


def test_splitting_degree(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    assert splitting_degree(p) == 2  # T (T^2+T+1)
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    assert splitting_degree(dp) == 4  # T * Phi_5


def test_quasi_split_trivial(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    j, s, ext = quasi_split_over(p)
    assert j == 1 and s == (0, 0, 0)


def test_quasi_split_needs_extension(g2):
    # r = (0, 1): trivial only once the points of X become rational (GF(16)),
    # not over the splitting field GF(4) of Delta
    p = realize(g2, [0, 1, 1, 1], [0, 1])
    j, s, ext = quasi_split_over(p)
    assert j == 4
    assert points_on_X(p, GF(2)) == []
    assert points_on_X(p, GF(4)) != []  # matches quasi-splitness exactly


def test_quasi_split_geometric_agreement(g2):
    # at m=1 quasi-split over ext <=> X has a point over ext; levels where
    # every rational point of the line is a root of Delta are skipped by the
    # invariant (the r-coset is not comparable there), so only comparable
    # levels below j are asserted empty
    rng = random.Random(47)
    for _ in range(12):
        p = random_pencil(g2, 3, rng)
        j, s, ext = quasi_split_over(p)
        assert points_on_X(p, ext) != []
        for d in range(1, j):
            try:
                p.map_field(find_embedding(g2, GF(d))).ensure_an_nonzero()
            except PreconditionError:
                continue  # not comparable at this level
            assert points_on_X(p, GF(d)) == []


def test_quasi_split_reports_first_comparable_level(g2):
    # Delta = t0 t1 (t0 + t1): every rational point is a root, so the
    # invariant is first comparable over GF(4), even though X already has
    # rational points; the contract is "smallest scanned j", not a guess
    p = realize(g2, [0, 1, 1, 0], [0, 0], check=False)
    assert p.is_regular()
    j, s, ext = quasi_split_over(p)
    assert j == 2
    assert points_on_X(p, g2) != []


def test_generators_m1(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    gens = enumerate_generators(p, g4)
    assert len(gens) == 4
    assert set(g.basis[0] for g in gens) == set(points_on_X(p, g4))
    with pytest.raises(PreconditionError):
        enumerate_generators(p, g2)


def test_generators_require_quasi_split(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 1])
    with pytest.raises(PreconditionError):
        enumerate_generators(p, g4)
    gens = enumerate_generators(p, GF(4))
    assert len(gens) == 4


def test_generators_m2_line_count(g2, g16):
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    gens = enumerate_generators(dp, g16)
    assert len(gens) == 16
    lines = brute_force_lines(dp, g16)
    assert len(lines) == 16
    assert set(lines) == set(g.basis for g in gens)


def test_generator_orbit_transitive(g2, g16):
    from qpencil.autos import apply_to_subspace, automorphism_group

    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    gens = enumerate_generators(dp, g16)
    pe = dp.map_field(find_embedding(g2, g16))
    auts = automorphism_group(pe)
    first = gens[0].basis
    orbit = {
        apply_to_subspace(g16, [list(r) for r in rep.matrix], first)
        for rep in auts
    }
    assert orbit == {g.basis for g in gens}
