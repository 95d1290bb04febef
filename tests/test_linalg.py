import random
from functools import reduce
from operator import xor

import pytest

from oracles import det, gf2_pivots, gf2_pivots_by_scan, gf2_reduce
from qpencil.field import GF
from qpencil.linalg import (
    identity,
    intersect_dim,
    inverse,
    mat_mul,
    mat_vec,
    normalize_subspace,
    nullspace,
    rank,
    rref,
    solve,
)


def random_matrix(gf, rows, cols, rng):
    return [[rng.randrange(gf.order) for _ in range(cols)] for _ in range(rows)]


def test_rref_and_rank(g4):
    m = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    r, pivots, _ = rref(g4, m)
    assert rank(g4, m) == len(pivots)
    for i, c in enumerate(pivots):
        assert r[i][c] == 1
    # full rank, a row swap and raw pivots other than 1: they multiply to det
    a = [[0, 1, 2], [3, 1, 1], [2, 0, 1]]
    assert reduce(g4.mul, rref(g4, a)[2]) == det(g4, a) == 2


def test_solve_and_nullspace_random():
    rng = random.Random(42)
    for gf in (GF(1), GF(2), GF(3)):
        for _ in range(30):
            a = random_matrix(gf, 4, 5, rng)
            x = [rng.randrange(gf.order) for _ in range(5)]
            b = mat_vec(gf, a, x)
            b2 = mat_vec(gf, a, [rng.randrange(gf.order) for _ in range(5)])
            got = solve(gf, a, [b, b2])
            assert got is not None
            assert mat_vec(gf, a, got[0]) == b and mat_vec(gf, a, got[1]) == b2
            # one rref for all right-hand sides gives each separate solution
            assert got == solve(gf, a, [b]) + solve(gf, a, [b2])
            for v in nullspace(gf, a):
                assert mat_vec(gf, a, v) == [0, 0, 0, 0]
            assert len(nullspace(gf, a)) == 5 - rank(gf, a)


def test_solve_inconsistent(g2):
    assert solve(g2, [[1, 0], [1, 0]], [[1, 0]]) is None


def _nonsingular_draws(rng):
    """(field, size, matrix): nonsingular draws over byte-kernel and
    wide-kernel fields, sizes 1..9, zero pivots on the diagonal
    (alternating matrices) included."""
    for gf in (GF(1), GF(3), GF(8), GF(33)):
        for size in range(1, 10):
            while True:
                a = random_matrix(gf, size, size, rng)
                if size % 2 == 0 and rng.random() < 0.5:
                    a = [[0 if i == j else a[min(i, j)][max(i, j)] for j in range(size)]
                         for i in range(size)]
                if rank(gf, a) == size:
                    break
            yield gf, size, a


def test_inverse(g8):
    for gf, size, a in _nonsingular_draws(random.Random(7)):
        inv = inverse(gf, a)
        assert mat_mul(gf, a, inv) == identity(size), (gf, size)
        assert mat_mul(gf, inv, a) == identity(size), (gf, size)
    with pytest.raises(ValueError):
        inverse(g8, [[0, 0], [0, 0]])


def test_det_multiplicative(g4):
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(g4, 3, 3, rng)
        b = random_matrix(g4, 3, 3, rng)
        assert det(g4, mat_mul(g4, a, b)) == g4.mul(det(g4, a), det(g4, b))
    assert det(g4, identity(3)) == 1


def test_subspace_utilities(g2):
    s1 = normalize_subspace(g2, [[1, 1, 0], [0, 1, 1]])
    s2 = normalize_subspace(g2, [[1, 0, 1], [0, 1, 1]])
    assert s1 == s2  # same span, canonical form
    assert intersect_dim(g2, s1, ((1, 0, 1),)) == 1
    assert intersect_dim(g2, ((1, 0, 0),), ((0, 1, 0),)) == 0


def test_gf2_bitpacked():
    pivots = gf2_pivots([0b1100, 0b0110, 0b1010, 0b0001])
    assert len(pivots) == 3
    leads = [val.bit_length() for val, _ in pivots]
    assert leads == sorted(set(leads), reverse=True)  # distinct, descending
    assert gf2_reduce(0b1100, pivots)[0] == 0
    assert gf2_reduce(0b1000, pivots)[0] != 0
    cols = [0b011, 0b101, 0b110]
    pivots = gf2_pivots(cols)
    assert gf2_reduce(0b000, pivots) == (0, 0)
    rem, combo = gf2_reduce(0b110, pivots)
    assert rem == 0
    acc = 0
    for j, c in enumerate(cols):
        if (combo >> j) & 1:
            acc ^= c
    assert acc == 0b110
    assert gf2_reduce(0b10, gf2_pivots([0b01, 0b01]))[0] != 0
    # the remainder has none of the leading bits, and differs from the
    # input by the xor of the columns in the combination
    rem, combo = gf2_reduce(0b1111, gf2_pivots([0b1100, 0b0110]))
    assert rem == 0b0011 and combo == 0b01


def test_gf2_pivots_match_the_scan():
    rng = random.Random(88)
    for _ in range(300):
        width = rng.randrange(1, 80)
        cols = [rng.getrandbits(width) for _ in range(rng.randrange(1, 40))]
        # dependent columns: xors of others, and a zero column
        cols += [reduce(xor, rng.sample(cols, rng.randrange(1, len(cols) + 1)))
                 for _ in range(rng.randrange(10))] + [0]
        rng.shuffle(cols)
        assert gf2_pivots(cols) == gf2_pivots_by_scan(cols), cols


def test_tuple_rows_give_the_list_rows_answer(g4):
    # polar() and the result records hold tuple rows; the rref row update
    # and inverse's augmented rows raised TypeError on them
    lists = [[0, 1, 2], [1, 2, 3], [3, 1, 1]]  # a row swap, then eliminations
    tuples = tuple(map(tuple, lists))
    before = [row[:] for row in lists]
    calls = (
        lambda a: rref(g4, a),
        lambda a: rank(g4, a),
        lambda a: solve(g4, a, [(1, 0, 2), (3, 3, 0)]),
        lambda a: inverse(g4, a),
        lambda a: nullspace(g4, a[:2]),
        lambda a: normalize_subspace(g4, a[:2]),
        lambda a: intersect_dim(g4, a[:2], a[1:]),
    )
    for call in calls:
        assert call(tuples) == call(lists)
        assert lists == before
    assert mat_mul(g4, inverse(g4, tuples), lists) == identity(3)
