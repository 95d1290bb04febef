from fractions import Fraction

import pytest

import qpencil.poly as poly
from qpencil import lattice
from qpencil.autos import reflections
from qpencil.errors import PreconditionError
from qpencil.geometry import enumerate_generators
from qpencil.lattice import (
    build_lattice,
    cartan_d,
    intersection_number,
    lattice_for,
    pairing_value,
)
from qpencil.normalform import realize


def det_int(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for c in range(n):
        sel = next((i for i in range(c, n) if a[i][c] != 0), None)
        if sel is None:
            return 0
        if sel != c:
            a[c], a[sel] = a[sel], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(out)


def test_pairing_values():
    assert pairing_value(-1) == 0
    assert pairing_value(0) == 1
    assert pairing_value(1) == -1
    assert pairing_value(2) == 2
    assert pairing_value(3) == -2
    # consistency of (L_I - L_J)^2 = 2 (-1)^(m-1) when dim overlap = m-3
    for m in (2, 3, 4, 5):
        lhs = 2 * pairing_value(m - 1) - 2 * pairing_value(m - 3)
        assert lhs == 2 * (-1) ** (m - 1)


def test_cartan_d_shape():
    c5 = cartan_d(2)
    assert len(c5) == 5
    assert all(c5[i][i] == 2 for i in range(5))
    # D-diagram: one node of degree 3, two of degree 1 at the fork
    degs = sorted(sum(1 for j in range(5) if i != j and c5[i][j] == -1)
                  for i in range(5))
    assert degs == [1, 1, 1, 2, 3]
    assert det_int(c5) == 4  # discriminant of a D lattice
    assert det_int(cartan_d(3)) == 4


def test_intersection_numbers_m2(g2, g16):
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    gens = enumerate_generators(dp, g16)
    assert intersection_number(g16, gens[0], gens[0]) == -1
    values = sorted(
        intersection_number(g16, gens[0], g) for g in gens[1:]
    )
    assert values == [0] * 10 + [1] * 5  # disjoint or one point


def test_lattice_m2(g2, g16):
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    lat = lattice_for(dp, g16, reflections(dp, g16))
    assert lat.rank == 6
    # classical del Pezzo degree-4 shape
    assert [list(r) for r in lat.gram] == [
        [1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, -1],
    ]
    assert lat.lam_empty_in_e == (2, -1, -1, -1, -1, -1)  # the conic class
    neg = [[-x for x in row] for row in cartan_d(2)]
    assert [list(r) for r in lat.gram_alpha] == neg
    assert abs(det_int([list(r) for r in lat.gram])) == 1
    assert abs(det_int([list(r) for r in lat.gram_alpha])) == 4
    # K_X = -3 e_0 + e_1 + ... + e_5 has square 4
    k = [-3, 1, 1, 1, 1, 1]
    k2 = sum(k[i] * lat.gram[i][j] * k[j] for i in range(6) for j in range(6))
    assert k2 == 4


def test_lattice_m3(g8):
    f = [1]
    for root in range(7):
        f = poly.mul(g8, f, [root, 1])
    p = realize(g8, f, [0] * 6)
    lat = lattice_for(p, g8, reflections(p, g8))
    assert lat.rank == 8
    assert [list(r) for r in lat.gram_alpha] == cartan_d(3)
    assert abs(det_int([list(r) for r in lat.gram_alpha])) == 4
    assert abs(det_int([list(r) for r in lat.gram])) == 4
    # the generator class is genuinely non-integral on the e-basis here
    assert lat.lam_empty_in_e is None


def test_lattice_eta_orthogonality(g2, g16):
    # e_0 = eta^(m-1) - [L_empty], so eta^(m-1) = e_0 + [L_empty]; at m = 2
    # [L_empty] is integral on the e-basis, and the pairings build_lattice
    # rests on read off its Gram matrix
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    lat = lattice_for(dp, g16, reflections(dp, g16))

    def pair(x, y):
        return sum(x[i] * lat.gram[i][j] * y[j] for i in range(6) for j in range(6))

    lam = list(lat.lam_empty_in_e)
    eta = [lam[0] + 1] + lam[1:]
    e = [[int(i == j) for j in range(6)] for i in range(6)]
    # alpha_0 = -e_0 + [L_empty] + e_4 + e_5, alpha_i = e_i - e_(i+1)
    alphas = [[-x + l + y + z for x, l, y, z in zip(e[0], lam, e[4], e[5])]]
    alphas += [[x - y for x, y in zip(e[i], e[i + 1])] for i in range(1, 5)]
    assert [[pair(x, y) for y in alphas] for x in alphas] == [list(r) for r in lat.gram_alpha]
    for alpha in alphas:
        assert pair(alpha, eta) == 0
    assert pair(eta, eta) == 4
    assert pair(eta, lam) == 1
    assert pair(lam, lam) == lat.line_gram[0][0] == -1


@pytest.mark.parametrize("size", [1, 2, 3])
def test_lattice_for_measures_one_pairing_per_generator(monkeypatch, g2, g4, g8, g16, size):
    # L_empty against each generator; every other pairing is read off d
    if size == 1:
        p, ext = realize(g2, [0, 1, 1, 1], [0, 0]), g4
    elif size == 2:
        p, ext = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4), g16
    else:
        f = [1]
        for root in range(7):
            f = poly.mul(g8, f, [root, 1])
        p, ext = realize(g8, f, [0] * 6), g8
    refl = reflections(p, ext)
    calls = 0
    measure = lattice.intersect_dim

    def counted(gf, a, b):
        nonlocal calls
        calls += 1
        return measure(gf, a, b)

    monkeypatch.setattr(lattice, "intersect_dim", counted)
    lattice_for(p, ext, refl)
    assert calls == 1 << (2 * p.m)


def test_build_lattice_input_validation(g2, g16):
    dp = realize(g2, [0, 1, 1, 1, 1, 1], [0] * 4)
    gens = enumerate_generators(dp, g16)
    d = [intersection_number(g16, gens[0], g) for g in gens]
    with pytest.raises(PreconditionError):
        build_lattice(d, [1, 2], 2)
