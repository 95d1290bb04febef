import collections
import contextlib
import io
import random
from pathlib import Path

import pytest

import qpencil.pencil as pencil
import qpencil.poly as poly
from oracles import (
    corank_profile,
    det,
    half_disc_check,
    half_discriminant_per_key,
    proportional_by_scaling,
    radical_map_matches_members,
)
from qpencil.autos import delta_stabilizer, reflections
from qpencil.cli import main
from qpencil.errors import NotRegularError, PreconditionError
from qpencil.field import (GF, Embedding, Field, default_modulus, field_from_modulus,
                           find_embedding)
from qpencil.geometry import enumerate_generators
from qpencil.normalform import realize
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm, pfaffian_vector
from qpencil.verify import gl_elements, random_pencil


def qf(gf, n, table):
    return QuadraticForm.from_table(gf, n, table)


def test_constructor_rejects_proportional(g2, g4):
    q = qf(g2, 3, {(0, 0): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        Pencil(q, q)
    with pytest.raises(ValueError):
        Pencil(q, qf(g2, 3, {}))
    # over GF(4) a scalar multiple is also proportional
    q4 = qf(g4, 3, {(0, 0): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        Pencil(q4, q4.scale(2))
    with pytest.raises(ValueError):  # even dimension
        Pencil(qf(g2, 4, {(0, 1): 1}), qf(g2, 4, {(2, 3): 1}))


def test_proportionality_scan_is_the_flattened_check():
    # the lazy scan against the flattened check it replaced, on 2400 pairs:
    # q0 zero (q1 zero or not), q1 = lam q0 with lam = 0 included, and
    # q1 = lam q0 changed at the last or the first coefficient only, or
    # nonzero where q0 is zero before q0's first nonzero coefficient
    rng = random.Random(73)
    fields = [GF(1), GF(2), GF(8), field_from_modulus(0b100011101), GF(17), GF(32)]
    verdicts = collections.Counter()
    for case in range(2400):
        gf = fields[case % len(fields)]
        n = (3, 5, 7, 9)[case // len(fields) % 4]
        kind = case // 24 % 5
        keep = (1.0, 0.5, 0.2)[case % 3]
        q0 = qf(gf, n, {(i, j): rng.randrange(gf.order) for i in range(n)
                        for j in range(i, n) if rng.random() < keep})
        lam = rng.randrange(gf.order)
        rows = [list(row) for row in q0.scale(lam).rows]
        c = rng.randrange(1, gf.order)
        if kind == 0:
            q0 = qf(gf, n, {})
            rows[n - 1][n - 1] = c if case % 2 else 0
        elif kind == 2:
            rows[n - 1][n - 1] ^= c
        elif kind == 3:
            rows[0][0] ^= c
        elif kind == 4:
            lead = next(((i, j) for i in range(n) for j in range(i, n) if q0.rows[i][j]), (0, 0))
            i = rng.randrange(lead[0] + 1)
            rows[i][rng.randrange(i, lead[1] + 1 if i == lead[0] else n)] ^= c
        q1 = QuadraticForm(gf, n, tuple(map(tuple, rows)))
        want = proportional_by_scaling(q0, q1)
        assert pencil._proportional(q0, q1) == want, (gf, n, kind, q0.rows, q1.rows)
        verdicts[kind, want] += 1
        if want:
            with pytest.raises(ValueError, match="proportional"):
                Pencil(q0, q1)
        else:
            Pencil(q0, q1)
    # the changed pairs are refused only where q0 drew zero
    assert verdicts == {(0, True): 480, (1, True): 480, (2, False): 461, (2, True): 19,
                        (3, False): 457, (3, True): 23, (4, False): 447, (4, True): 33}


def test_radical_map_normal_form(g2):
    for m, a, r in [
        (1, [0, 1, 1, 1], [0, 0]),
        (2, [0, 1, 1, 1, 1, 1], [0, 0, 0, 0]),
        (3, [1, 1, 0, 0, 0, 0, 1, 1], [0] * 6),
    ]:
        p = realize(g2, a, r)
        ws = p.radical_map()
        n = 2 * m + 1
        for i in range(m + 1):
            assert ws[i] == [1 if t == i else 0 for t in range(n)]


def test_radical_map_specializes_to_pfaffian_vector(g4):
    rng = random.Random(31)
    for _ in range(20):
        p = random_pencil(g4, 5, rng, regular=False)
        w10 = p.omega_at(1, 0)
        assert w10 == pfaffian_vector(g4, p.q0.polar())
        w01 = p.omega_at(0, 1)
        assert w01 == pfaffian_vector(g4, p.q1.polar())


def _sparse_pencil(gf, n, rng, density, support):
    """q0 lives on the first `support` coordinates, so when support <= n - 3
    the member (1, 0) has corank >= 3 and its radical vector is zero."""
    def form(size, dens):
        return QuadraticForm.from_table(gf, n, {
            (i, j): rng.randrange(gf.order)
            for i in range(size) for j in range(i, size) if rng.random() < dens
        })

    return Pencil(form(support, 1.0), form(n, density))


@pytest.mark.parametrize("modulus,n,density,support", [
    (0b11, 5, 1.0, 5),  # GF(2), computed over GF(4)
    (0b11, 7, 1.0, 7),  # GF(4)
    (0b11, 9, 1.0, 9),  # GF(8)
    (0b11, 15, 1.0, 15),  # GF(16)
    (default_modulus(17), 5, 1.0, 5),  # the wide kernel
    (default_modulus(17), 7, 1.0, 7),
    (0b1101, 17, 1.0, 17),  # GF(8) mod 13, pulled back from GF(64)
    (0b11, 7, 0.5, 4),  # members of corank >= 3
    (0b111, 9, 0.5, 6),
    (0b1011, 11, 0.3, 8),
])
def test_radical_map_squares_to_principal_minors(modulus, n, density, support):
    # omega_k(l, u)^2 = det of the principal submatrix k of l*G0 + u*G1, at
    # points of the field the map is computed in (squaring is injective)
    gf = field_from_modulus(modulus)
    rng = random.Random(n * 31 + modulus)
    p = _sparse_pencil(gf, n, rng, density, support)
    m = p.m
    j = 1
    while gf.order ** j <= m:
        j += 1
    ext = GF(gf.degree * j) if j > 1 else gf
    lift = find_embedding(gf, ext).map
    ws = [[lift(c) for c in w] for w in p.radical_map()]
    g0 = [[lift(c) for c in r] for r in p.q0.polar()]
    g1 = [[lift(c) for c in r] for r in p.q1.polar()]
    points = [(1, 0), (0, 1)] + [(1, t) for t in range(1, ext.order)]
    if len(points) > 2 * (m + 1):
        points = points[:2] + [(1, rng.randrange(1, ext.order)) for _ in range(m)]
    mul = ext.mul
    vanishing = 0
    for l, u in points:
        member = [[mul(l, a) ^ mul(u, b) for a, b in zip(r0, r1)]
                  for r0, r1 in zip(g0, g1)]
        omega = [0] * n
        for i, w in enumerate(ws):
            c = mul(ext.pow(l, m - i), ext.pow(u, i))
            omega = [x ^ mul(c, y) for x, y in zip(omega, w)]
        for k in range(n):
            minor = [[x for c, x in enumerate(row) if c != k]
                     for r, row in enumerate(member) if r != k]
            assert mul(omega[k], omega[k]) == det(ext, minor)
        vanishing += not any(omega)
    if support < n:
        assert vanishing
    assert any(any(w) for w in ws)


def test_radical_map_multiplications_stay_polynomial(products):
    # a deterministic guard against exponential growth: first-row expansion
    # over index subsets needs about 370,000 multiplications already at
    # n = 15 over GF(2^8), and about 4x more for each +2 in n
    rng = random.Random(31)
    p = random_pencil(GF(8), 31, rng, regular=False)
    assert 0 < products(p.radical_map)[0] < 10**6


def test_radical_map_fast_path_is_cubic(products):
    # the Kronecker chain: one Pfaffian vector, one LU of a principal minor
    # of G0, then O(n^2) per step; the interpolation formed 6.17 n^3 here
    n = 41
    p = random_pencil(GF(8), n, random.Random(41))
    assert 0 < products(Pencil(p.q0, p.q1).radical_map)[0] <= 3 * n**3


@pytest.mark.parametrize("degree,n", [(1, 5), (1, 9), (2, 9), (2, 11)])
def test_radical_map_of_regular_pencil_builds_no_field(monkeypatch, degree, n):
    # GF(2) at n >= 5 and GF(4) at n >= 9 have at most m elements, where
    # the interpolation needs an extension field
    p = random_pencil(GF(degree), n, random.Random(n))
    fresh = Pencil(p.q0, p.q1)

    def refuse(*args, **kwargs):
        raise AssertionError("a field or an embedding was built")

    monkeypatch.setattr(Field, "__init__", refuse)
    monkeypatch.setattr(pencil, "find_embedding", refuse)
    assert fresh.radical_map() == p.radical_map()


def test_radical_map_matches_member_oracle(monkeypatch):
    # every regular pencil takes the chain; the non-regular ones either take
    # it too (when Omega is still pinned down) or are refused by its guard
    # and interpolated; both agree with the members' Pfaffian vectors
    interpolated, interpolate = [], pencil._interpolated
    monkeypatch.setattr(pencil, "_interpolated",
                        lambda *args: interpolated.append(1) or interpolate(*args))
    rng = random.Random(5)
    counts = collections.Counter()
    for case in range(160):
        gf = GF((1, 1, 2, 3)[case % 4])
        n = (3, 5, 7, 9)[case // 4 % 4]
        p = random_pencil(gf, n, rng, regular=False)
        before = len(interpolated)
        ws = p.radical_map()
        assert radical_map_matches_members(p, ws), (gf, n, case)
        counts[p.is_regular(), len(interpolated) > before] += 1
    assert counts == {(True, False): 82, (False, False): 52, (False, True): 26}


def test_derived_pencils_reuse_regularity(monkeypatch):
    # a GL(2) move and a field extension keep regularity, so one document
    # is tested for separability once, whatever pencils it derives
    calls = []
    separable = poly.bf_is_separable
    monkeypatch.setattr(poly, "bf_is_separable",
                        lambda gf, a: calls.append(1) or separable(gf, a))
    doc = str(Path(__file__).parent / "golden" / "docs" / "g4_n5_an0.json")
    for command in ("generators", "lattice"):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--in", doc]) == 0
        assert len(calls) == 1, command


def test_over_the_own_field_is_the_pencil_itself(monkeypatch, g2, g4):
    # no coefficient is mapped on the way to the own field, and each
    # extension field has one pencil, whose caches are shared
    maps = []
    image = Embedding.map
    monkeypatch.setattr(Embedding, "map", lambda self, a: maps.append(a) or image(self, a))
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    assert p.over(g2) is p and p.over(field_from_modulus(g2.modulus)) is p
    assert maps == []
    pe = p.over(g4)
    assert maps and pe.gf == g4 and pe != p
    assert p.over(g4) is pe and pe.over(g4) is pe
    emb = find_embedding(g2, g4)
    assert (pe.q0, pe.q1) == (p.q0.map_field(emb), p.q1.map_field(emb))


@pytest.mark.parametrize("regular", [True, False])
def test_over_carries_the_regularity_verdict(monkeypatch, regular, g4):
    drawn = random_pencil(GF(1), 5, random.Random(5), regular=regular)
    p = Pencil(drawn.q0, drawn.q1)  # the draw has decided regularity already
    early = p.over(g4)  # mapped before the verdict: it takes it later
    assert early._regular is None
    assert p.is_regular() is regular
    checks = []
    monkeypatch.setattr(poly, "bf_is_separable", lambda gf, a: checks.append(gf))
    assert p.over(g4) is early and early.is_regular() is regular
    assert p.over(GF(4)).is_regular() is regular
    assert checks == []
    monkeypatch.undo()
    assert Pencil(early.q0, early.q1).is_regular() is regular


def test_one_refusal_when_the_field_does_not_split_delta(g2, g4):
    # Delta(1, T) = T^3 + T + 1 is irreducible over GF(2) and GF(4)
    p = realize(g2, [1, 1, 0, 1], [0, 0])
    for ext in (g2, g4):
        messages = set()
        for split in (reflections, delta_stabilizer, enumerate_generators):
            with pytest.raises(PreconditionError) as exc:
                split(p, ext)
            messages.add(str(exc.value))
        assert messages == {f"{ext!r} does not split Delta (0 of 3 roots)"}
    assert len(p.over(GF(3)).split_roots()) == 3


def test_half_discriminant_matches_members(g2, g4, g8):
    rng = random.Random(46)
    count = 0
    for gf in (g2, g4):
        for n in (3, 5, 7):
            for _ in range(10):
                p = random_pencil(gf, n, rng, regular=False)
                for l in gf.elements():
                    for u in gf.elements():
                        if l == 0 and u == 0:
                            continue
                        assert half_disc_check(p, l, u)
                count += 1
    assert count == 60
    # one heavier sample at m = 4 over GF(8)
    p = random_pencil(g8, 9, rng, regular=False)
    for l, u in ((1, 0), (0, 1), (1, 1), (1, 5), (3, 7)):
        assert half_disc_check(p, l, u)


def test_half_discriminant_matches_per_key_oracle():
    # dense and sparse pencils, regular or not, n = 3..11
    rng = random.Random(47)
    fields = [GF(1), GF(2), GF(3), GF(8), GF(17)]
    checked = 0
    for case in range(150):
        gf = fields[case % len(fields)]
        n = 3 + 2 * (case // len(fields) % 5)
        keep = (1.0, 0.4, 0.1)[case % 3]
        tables = [
            {(i, j): rng.randrange(gf.order) for i in range(n)
             for j in range(i, n) if rng.random() < keep}
            for _ in range(2)
        ]
        try:
            p = Pencil(qf(gf, n, tables[0]), qf(gf, n, tables[1]))
        except ValueError:
            continue
        assert p.half_discriminant() == half_discriminant_per_key(p), (gf, n)
        checked += 1
    assert checked == 131  # the others drew proportional forms


def test_gl2_move_carries_radical_map_and_delta():
    # the moved pencil's Omega and Delta are substituted, not recomputed;
    # they equal what a fresh pencil with the same forms computes
    rng = random.Random(48)
    fields = [GF(1), GF(2), GF(3), GF(8)]
    for case in range(128):
        gf = fields[case % len(fields)]
        n = 3 + 2 * (case // len(fields) % 4)
        p = random_pencil(gf, n, rng, regular=False)
        p.half_discriminant()
        while True:
            m2 = [[rng.randrange(gf.order) for _ in range(2)] for _ in range(2)]
            if gf.mul(m2[0][0], m2[1][1]) != gf.mul(m2[0][1], m2[1][0]):
                break
        moved = p.change_basis_gl2(m2)
        fresh = Pencil(moved.q0, moved.q1)
        assert moved._radical_map == fresh.radical_map(), (gf, n, m2)
        assert moved._half_disc == fresh.half_discriminant(), (gf, n, m2)


def test_half_disc_example_m1(g2):
    p = realize(g2, [0, 1, 1, 1], [1, 1])
    assert p.half_discriminant() == [0, 1, 1, 1]
    assert p.half_discriminant()[0] == 0  # q0(omega(q0)) = 0 here
    assert p.q1(pfaffian_vector(g2, p.q1.polar())) == 1  # Delta(0,1) = a_3


def test_is_regular_examples(g2):
    assert realize(g2, [0, 1, 1, 1], [1, 0]).is_regular()
    p_bad = realize(g2, [0, 0, 1, 1], [0, 0])
    assert not p_bad.is_regular()
    with pytest.raises(NotRegularError):
        p_bad.require_regular()


def test_change_basis_swap_reverses(g2):
    p = realize(g2, [0, 1, 1, 1], [1, 0])
    swapped = p.change_basis_gl2([[0, 1], [1, 0]])
    assert swapped.q0 == p.q1 and swapped.q1 == p.q0
    assert swapped.half_discriminant() == p.half_discriminant()[::-1]


def test_change_basis_shear(g4):
    rng = random.Random(5)
    p = random_pencil(g4, 3, rng)
    c = 3
    sheared = p.change_basis_gl2([[1, 0], [c, 1]])
    assert sheared.q0 == p.q0.add(p.q1.scale(c))
    assert sheared.q1 == p.q1
    assert (
        sheared.half_discriminant()[3] == p.half_discriminant()[3]
    )  # a_n unchanged
    with pytest.raises(ValueError):
        p.change_basis_gl2([[1, 1], [1, 1]])


def test_gl2_preserves_regularity(g4):
    rng = random.Random(6)
    gl2 = gl_elements(g4, 2)
    for _ in range(5):
        p = random_pencil(g4, 3, rng, regular=False)
        reg = p.is_regular()
        for g in gl2[:: max(1, len(gl2) // 15)]:
            assert p.change_basis_gl2(g).is_regular() == reg


def test_conjugation_preserves_regularity(g2):
    rng = random.Random(9)
    gl3 = gl_elements(g2, 3)
    for _ in range(5):
        p = random_pencil(g2, 3, rng, regular=False)
        reg = p.is_regular()
        for g in gl3[::17]:
            assert p.conjugate(g).is_regular() == reg


def test_ensure_an_nonzero(g2):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    moved, g = p.ensure_an_nonzero()
    assert g == [[1, 0], [0, 1]] and moved is p
    p2 = realize(g2, [1, 1, 1, 0], [0, 0])
    moved2, g2m = p2.ensure_an_nonzero()
    assert g2m == [[0, 1], [1, 0]]
    assert moved2.half_discriminant() == [0, 1, 1, 1]


def test_ensure_an_nonzero_impossible_over_gf2(g2):
    # Delta = t0 t1 (t0 + t1): all three rational points are roots
    p = realize(g2, [0, 1, 1, 0], [0, 0])
    assert p.is_regular()
    with pytest.raises(PreconditionError) as exc:
        p.ensure_an_nonzero()
    assert exc.value.info["extension_degree"] == 2
    moved, _ = p.over(GF(2)).ensure_an_nonzero()
    assert moved.half_discriminant()[3] != 0


def test_corank_profile(g2, g4):
    p = realize(g2, [0, 1, 1, 1], [0, 0])
    prof = corank_profile(p, g4)
    assert len(prof) == 3
    assert all(c == 1 for _, c in prof)
    with pytest.raises(PreconditionError):
        corank_profile(p, g2)  # GF(2) does not split Delta
    # every root's member is degenerate, and non-roots are not
    pe = p.over(g4)
    roots = {pt for pt, _ in prof}
    for l in g4.elements():
        for u in g4.elements():
            if (l, u) == (0, 0):
                continue
            pt = (1, g4.div(u, l)) if l else (0, 1)
            member = pe.member(l, u)
            assert (member(pfaffian_vector(g4, member.polar())) == 0) == (pt in roots)
