"""Relations between two runs of the program, which need no oracle.

Hash seed: the commands whose answers are built from sets and dicts
(`autx`, `lattice`, `generators`) print the same bytes whatever
PYTHONHASHSEED says.  Each runs as `python -m qpencil` on committed golden
documents under the seeds 0 and 1, and its stdout is also the output the
golden corpus recorded in-process.

The r-coset path, on seeded regular pencils at n up to 31 and k in
{1, 2, 8, 17, 32, 64}, where no brute-force oracle reaches:
- GL(n): p o g, det g != 1 above GF(2), has the r-invariant's triviality
  of p, and isiso(p, p o g) holds with a witness that verify.pulls_back
  accepts by substitution;
- Frobenius: c -> c^2 on every coefficient keeps that triviality, and
  isiso of the two images;
- kernel swap: GF(2^8) built on the wide kernel (Field.__init__ bypassed)
  gives the byte kernel's representatives, isomorphism witnesses and
  Artin-Schreier witnesses.

Conjugation, at n = 3..9 and k in {1, 2, 8, 17, 32}, on the certificates
that pull both forms back by one stacked pair of products: Aut(p o g) is
{g^-1 a g : a in Aut(p)} as a set of matrices, and for the witness w of
isiso(p, p o g), g w is an automorphism of p.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from oracles import det
from qpencil.algebra import EtaleAlgebra
from qpencil.autos import automorphism_group, pair_algebra
from qpencil.field import GF, Field, default_modulus
from qpencil.invariants import is_isomorphic, r_invariant
from qpencil.linalg import inverse, mat_mul
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm
from qpencil.verify import pulls_back, random_regular_nf_pencil

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# (k, n) of the GL(n) and Frobenius draws: n = 31 where a draw is cheap
R_COSET_DRAWS = (
    [(1, n) for n in (3, 5, 9, 17, 31)] + [(2, n) for n in (3, 5, 9, 17, 31)]
    + [(8, n) for n in (3, 5, 9, 17, 31)] + [(17, n) for n in (3, 5, 9, 17)]
    + [(32, n) for n in (3, 5, 9, 13)] + [(64, n) for n in (3, 5, 9)]
)

# (command, golden document): each well under 0.1 s a call
HASH_SEED_CASES = (
    ("autx", "g2_n5_113_r0"),
    ("autx", "g4_n3_12"),
    ("lattice", "g32_n7_split_r0"),
    ("lattice", "g8m13_n5_1112"),
    ("generators", "g32_n7_split_r0"),
    ("generators", "g4_n5_an0"),
)


def _stdout(argv, seed):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(seed)}
    proc = subprocess.run([sys.executable, "-m", "qpencil", *argv], capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc.stdout


def test_output_does_not_depend_on_the_hash_seed():
    recorded = {tuple(e["argv"]): e["sha256"]
                for e in json.loads((GOLDEN / "corpus.json").read_text())}
    for command, doc in HASH_SEED_CASES:
        argv = [command, "--in", str(GOLDEN / "docs" / f"{doc}.json")]
        first, second = (_stdout(argv, seed) for seed in (0, 1))
        assert first == second, (command, doc)
        digest = hashlib.sha256(first).hexdigest()
        assert digest == recorded[command, "--in", f"@{doc}"], (command, doc)


def _gl_with_det(gf, n, rng):
    """A random invertible g, with det g not 1 when the field has room."""
    while True:
        g = [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]
        d = det(gf, g)
        if d and (d != 1 or gf.order == 2):
            return g


def _trivial(p):
    return r_invariant(pair_algebra(p))[1]


def _frobenius(p):
    def squared(q):
        return QuadraticForm(q.gf, q.n, tuple(tuple(q.gf.squares(row)) for row in q.rows))

    return Pencil(squared(p.q0), squared(p.q1))


def test_gl_and_frobenius_keep_the_r_class():
    trivial = moved_det = 0
    for k, n in R_COSET_DRAWS:
        gf = GF(k)
        rng = random.Random(1000 * k + n)
        p = random_regular_nf_pencil(gf, n // 2, rng)
        g = _gl_with_det(gf, n, rng)
        q = p.conjugate(g)
        moved_det += det(gf, g) != 1
        t = _trivial(p)
        assert _trivial(q) == t, (k, n)
        ok, witness = is_isomorphic(p, q)
        assert ok, (k, n)
        assert pulls_back(q.q0, witness, p.q0) and pulls_back(q.q1, witness, p.q1), (k, n)
        fp, fq = _frobenius(p), _frobenius(q)
        assert _trivial(fp) == t, (k, n)
        assert is_isomorphic(fp, fq)[0], (k, n)
        trivial += t
    # every draw above GF(2) moves Delta by a scalar; both classes occur
    assert (len(R_COSET_DRAWS), moved_det, trivial) == (26, 21, 11)


def _wide_gf256() -> Field:
    """GF(2^8) on the wide kernel: Field.__init__ would pick the byte one."""
    gf = object.__new__(Field)
    gf.degree, gf.modulus, gf.order = 8, default_modulus(8), 256
    gf._rows = gf._inverses = gf._squares = gf._roots = None
    gf._build_wide_kernel()
    return gf


def _on(gf, p):
    return Pencil(*(QuadraticForm(gf, q.n, q.rows) for q in (p.q0, p.q1)))


def test_the_wide_kernel_gives_the_byte_kernels_r_cosets():
    byte, wide = GF(8), _wide_gf256()
    assert byte._rows is not None and wide._rows is None and wide.slot_bits == 16
    rng = random.Random(8)
    pencils = elements = 0
    for n in (3, 5, 7, 9, 13, 17, 31):
        for _ in range(2):
            p = random_regular_nf_pencil(byte, n // 2, rng)
            q = p.conjugate(_gl_with_det(byte, n, rng))
            pw, qw = _on(wide, p), _on(wide, q)
            assert r_invariant(pair_algebra(pw)) == r_invariant(pair_algebra(p)), n
            assert is_isomorphic(pw, qw) == is_isomorphic(p, q), n
            pencils += 1
            a, aw = pair_algebra(p).algebra, pair_algebra(pw).algebra
            assert aw.gf._rows is None
            for i in range(6):
                x = a.element([rng.randrange(256) for _ in range(a.n)])
                if i >= 3:  # wp(s) + c: trivial, with a witness
                    x = a.add(a.artin_schreier(x), a.element([rng.randrange(256)]))
                assert aw.coset_reduce(x) == a.coset_reduce(x), n
                assert aw.solve_artin_schreier(x) == a.solve_artin_schreier(x), n
                elements += 1
    assert (pencils, elements) == (14, 84)


def _group(p):
    return {a.matrix for a in automorphism_group(p)}


def test_conjugation_moves_the_automorphisms_and_the_witness():
    # q = p o g: q o (g^-1 a g) = p o a o g = q for a in Aut(p), and
    # q o w = p for the witness w of isiso(p, q) makes g w preserve p
    draws = moved_det = larger = 0
    for k in (1, 2, 8, 17, 32):
        gf = GF(k)
        rng = random.Random(2000 + k)
        for n in (3, 5, 7, 9):
            for _ in range(3):
                p = random_regular_nf_pencil(gf, n // 2, rng)
                g = _gl_with_det(gf, n, rng)
                q = p.conjugate(g)
                aut = _group(p)
                g_inv = inverse(gf, g)
                moved = {tuple(map(tuple, mat_mul(gf, mat_mul(gf, g_inv, a), g))) for a in aut}
                assert _group(q) == moved, (k, n)
                ok, witness = is_isomorphic(p, q)
                assert ok, (k, n)
                assert tuple(map(tuple, mat_mul(gf, g, witness))) in aut, (k, n)
                draws += 1
                moved_det += det(gf, g) != 1
                larger += len(aut) > 1
    # every draw above GF(2) moves Delta by a scalar; 43 groups are not trivial
    assert (draws, moved_det, larger) == (60, 48, 43)
