"""The pair group from its l-1 certified generators.

automorphism_group, enumerate_generators and the lattice's line_gram use
the group law (I + N_s)(I + N_t) = I + N_(s+t).  These tests compare them
with the element-by-element code they replaced (tests/oracles.py), bound
the group build by a product count, and check that a corrupted generator
is refused with exit code 3."""

import json
import random
from argparse import Namespace

import pytest

from oracles import (
    automorphism_group_per_element,
    generators_per_element,
    line_gram_pairwise,
    phi_model_matrix,
    serialize_pencil,
)
from qpencil import autos, poly
from qpencil.autos import (
    AutomorphismRep,
    automorphism_group,
    pair_algebra,
    reflections,
)
from qpencil.cli import _extension, main
from qpencil.errors import PreconditionError
from qpencil.field import GF
from qpencil.geometry import enumerate_generators
from qpencil.lattice import lattice_for
from qpencil.linalg import mat_mul
from qpencil.normalform import realize
from qpencil.verify import random_pencil


def hidden_split_pencil(gf, n, rng, r_zero=True, infinite_root=False):
    """realize(a; r) with Delta a product of n distinct linear factors (one of
    them the root at infinity, a_n = 0, when asked), hidden by L U with L
    and U unit triangular."""
    roots = rng.sample(range(gf.order), n - infinite_root)
    a = [1]
    for x in roots:
        a = poly.mul(gf, a, [x, 1])
    a += [0] * infinite_root
    r = [0] * (n - 1) if r_zero else [rng.randrange(gf.order) for _ in range(n - 1)]
    p = realize(gf, a, r)
    low = [[1 if i == j else rng.randrange(gf.order) * (j < i) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else rng.randrange(gf.order) * (j > i) for j in range(n)]
          for i in range(n)]
    return p.conjugate(mat_mul(gf, low, up))


def _has_analysis(p) -> bool:
    """False when every rational point of P^1 is a root of Delta."""
    try:
        pair_algebra(p)
    except PreconditionError:
        return False
    return True


def _pencils(seed, random_sizes, split_sizes):
    """Random regular pencils and hidden split ones (every second with
    r = 0, every third with the root at infinity), (k, n, count) each."""
    rng = random.Random(seed)
    out = []
    for k, n, count in random_sizes:
        out += [random_pencil(GF(k), n, rng) for _ in range(count)]
    for k, n, count in split_sizes:
        for i in range(count):
            out.append(hidden_split_pencil(GF(k), n, rng, r_zero=i % 2 == 0,
                                           infinite_root=i % 3 == 1))
    return [p for p in out if _has_analysis(p)]


def test_pair_group_matches_per_element():
    pencils = _pencils(
        16,
        ((1, 3, 40), (1, 5, 60), (1, 7, 30), (2, 3, 30), (2, 5, 40), (3, 5, 25),
         (4, 7, 15), (8, 5, 10), (17, 5, 5), (32, 3, 5)),
        ((2, 3, 6), (3, 5, 8), (4, 5, 8), (4, 7, 6), (5, 9, 2)))
    orders = set()
    for p in pencils:
        group = automorphism_group(p)
        assert group == automorphism_group_per_element(p)
        orders.add(len(group))
        # in the Kronecker frame B every element is [[I, Cat(s)], [0, I]]
        nf = pair_algebra(p).nf
        for g in group:
            frame = mat_mul(p.gf, mat_mul(p.gf, nf.inverse, g.matrix), nf.basis)
            assert frame == phi_model_matrix(p.m, list(g.s_coeffs))
    assert len(pencils) == 277  # 13 of the 290 drawn have all of P^1(k) as roots
    assert sorted(orders) == [1, 2, 4, 8, 16, 64, 256]


def test_generators_and_lattice_match_per_element():
    pencils = _pencils(61, ((1, 3, 12), (2, 3, 10), (1, 5, 8), (2, 5, 3)),
                       ((2, 3, 4), (3, 5, 6), (4, 5, 4), (3, 7, 2)))
    split_over_base = 0
    for p in pencils:
        ext = _extension(p, Namespace(ext_degree=None))  # as the CLI picks it
        split_over_base += ext == p.gf
        gens = enumerate_generators(p, ext)
        assert gens == generators_per_element(p, ext)
        lat = lattice_for(p, ext, reflections(p, ext))
        assert lat.line_gram == line_gram_pairwise(ext, gens)
    assert len(pencils) == 48 and split_over_base == 9


@pytest.fixture(scope="module")
def split13():
    p = hidden_split_pencil(GF(5), 13, random.Random(13))
    an = pair_algebra(p)
    assert an.algebra.num_components == 13
    an.algebra.idempotents  # the analysis is not what the guard measures
    an.nf.inverse
    return p


def test_pair_group_is_cubic_per_generator(products, split13):
    # l - 1 = 12 generators, each phi (two thin products) and two
    # substitutions; the 4096 elements are xors.  Element by element, as
    # the group was built before, it formed 44.2M products here.
    n, l = 13, 13
    formed, group = products(lambda: automorphism_group(split13))
    assert len(group) == 1 << (l - 1)
    assert 0 < formed < 5 * l * n**3  # 142,805; it forms 95,932


def test_corrupted_generator_exits_3(tmp_path, capsys, monkeypatch):
    p = hidden_split_pencil(GF(3), 5, random.Random(3))
    doc = tmp_path / "split.json"
    doc.write_text(json.dumps(serialize_pencil(p)))
    assert main(["autos", "--in", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 16

    phi, calls = autos.phi, []

    def corrupt_second(algebra, nf, s):
        rep = phi(algebra, nf, s)
        calls.append(s)
        if len(calls) != 2:
            return rep
        rows = [list(r) for r in rep.matrix]
        rows[0][1] ^= 1
        return AutomorphismRep(rep.s_coeffs, tuple(tuple(r) for r in rows))

    monkeypatch.setattr(autos, "phi", corrupt_second)
    assert main(["autos", "--in", str(doc)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "internal"
    assert "preserve" in out["error"]["message"]
