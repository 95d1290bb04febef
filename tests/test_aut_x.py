"""Aut(X) = R x| G read off its structure.

delta_stabilizer forms one candidate per ordered triple of roots, and
aut_x reads its table off the law of R, the conjugation of R by the lifts
and the products of the lifts.  These tests compare both with the scans
they replaced (tests/oracles.py), bound what they cost, and check the
golden entries that the scans could not record with the benchmark's own
arithmetic (perfbench/gf.py)."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

from oracles import aut_x_table_by_products, serialize_pencil, stabilizer_by_scan
from qpencil import autos, cli, poly
from qpencil.autos import aut_x, delta_stabilizer, pair_algebra
from qpencil.field import GF, field_from_modulus, find_embedding
from qpencil.geometry import quasi_split_over
from qpencil.normalform import realize
from test_quasi_split import hidden

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(GOLDEN))
sys.path.insert(0, str(ROOT / "perfbench"))

import gf as bench  # noqa: E402  the benchmark's own GF(2^k) and forms
import record  # noqa: E402


# the product table takes about 0.8 s at order 192 and 10 s at order 960
# (Delta's roots P^1(GF(4))); above this order only G is compared, and the
# golden g4_n5_all_roots entry, recorded with that table, pins one such group
TABLE_LIMIT = 128


def _compare_with_the_scans(p, ext, ax) -> bool:
    """Assert that ax has the G of the PGL2 scan and, up to TABLE_LIMIT, the
    table of the formed products; whether the table was compared."""
    work = pair_algebra(p.over(ext)).pencil
    scan = [tuple(map(tuple, m2)) for m2 in stabilizer_by_scan(work, ext)]
    assert tuple(scan) == ax.g_elements
    if ax.order > TABLE_LIMIT:
        return False
    assert aut_x_table_by_products(ext, ax.pair_autos, ax.g_lifts) == (
        ax.elements, ax.mult_table)
    return True


def _autx_calls(monkeypatch, argv):
    """The (pencil, field, group) of each aut_x call that argv makes
    through cli.main, with its exit code and stdout."""
    calls = []

    def recorded(p, ext):
        calls.append((p, ext, aut_x(p, ext)))
        return calls[-1][2]

    monkeypatch.setattr(cli, "aut_x", recorded)
    code, text = record.run(argv)
    return calls, code, text


def test_aut_x_matches_the_scans_on_the_golden_documents(monkeypatch):
    # every successful autx entry the scans can reach
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    entries = [e for e in corpus if e["argv"][:1] == ["autx"] and e["exit"] == 0
               and e["argv"][-1][1:] not in record.AUTX_LARGE]
    nontrivial = 0
    for e in entries:
        calls, code, text = _autx_calls(monkeypatch, e["argv"])
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (e["exit"], e["sha256"])
        (p, ext, ax), = calls
        assert _compare_with_the_scans(p, ext, ax)
        nontrivial += len(ax.g_elements) > 1
    assert (len(entries), nontrivial) == (13, 11)


@functools.lru_cache(maxsize=None)
def _irreducibles(k, e):
    """The monic irreducibles over GF(2^k) whose degrees divide e / k."""
    gf = GF(k)
    return [f for d in range(1, e // k + 1) if e // k % d == 0
            for f in map(list, itertools.product(range(gf.order), repeat=d))
            if poly.is_separable(gf, f + [1]) and len(poly.factor(gf, f + [1])) == 1]


def seeded_cases(count, seed, degrees, dims):
    """(pencil, field) pairs: hidden normal forms with n in dims in turn
    over GF(2^k) for k dividing an e in degrees, half with a_n = 0, Delta a
    product of distinct random irreducibles whose degrees divide e / k, r
    random; each with the field the CLI picks for autx, kept
    when its degree is in degrees."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = rng.choice(degrees)
        k = rng.choice([k for k in range(1, e + 1) if e % k == 0])
        gf, n, an_zero = GF(k), dims[len(out) % len(dims)], rng.randrange(2)
        factors, size = [], 0
        for f in rng.sample(_irreducibles(k, e), len(_irreducibles(k, e))):
            if size + len(f) <= n - an_zero:
                factors.append(f + [1])
                size += len(f)
        if size != n - an_zero:
            continue
        a = functools.reduce(lambda x, y: poly.mul(gf, x, y), factors)
        p = hidden(realize(gf, a + [0] * an_zero, [rng.randrange(gf.order)
                                                   for _ in range(n - 1)]), rng)
        split = math.lcm(*(len(f) - 1 for f in factors))
        degree = k * math.lcm(split, quasi_split_over(p)[0])
        if degree in degrees:
            out.append((p, GF(degree)))
    return out


def test_aut_x_matches_the_scans_on_seeded_pencils():
    # the scan of PGL2(GF(16)) takes about 0.1 s a pencil, and n = 7 over
    # GF(8) has order 896 (7 of the 9 points of P^1 are roots), so these get
    # a few draws
    cases = (seeded_cases(16, 25, (1, 2, 3), (3, 5)) + seeded_cases(2, 26, (3,), (7,))
             + seeded_cases(2, 27, (4,), (3, 7)))
    nontrivial = an_zero = large = 0
    for p, ext in cases:
        ax = aut_x(p, ext)
        large += not _compare_with_the_scans(p, ext, ax)
        nontrivial += len(ax.g_elements) > 1
        an_zero += p.half_discriminant()[p.n] == 0
    assert (len(cases), nontrivial, an_zero, large) == (20, 20, 15, 3)


def test_autx_never_enumerates_pgl2(monkeypatch, tmp_path, g8):
    def refused(gf):
        raise RuntimeError("autx enumerated PGL2")

    monkeypatch.setattr(autos, "pgl2_elements", refused)
    order64 = tmp_path / "order64.json"
    order64.write_text(json.dumps(serialize_pencil(_order64_pencil(g8))))
    for path in (GOLDEN / "docs" / "g2_n3_m1.json", order64):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["autx", "--in", str(path)]) == 0


def _order64_pencil(g8):
    """Delta with roots 0, inf, 1, g, 1/g over GF(8), r = 0: R has order 16
    and G is a Klein four-group (test_aut_x_m2_with_symmetric_roots)."""
    delta = poly.bf_mul(g8, [1, 0], [0, 1])
    for root in (1, 2, g8.inv(2)):
        delta = poly.bf_mul(g8, delta, [root, 1])
    return realize(g8, delta, [0] * 4)


def test_aut_x_products_grow_with_the_order_not_its_square(products, g8):
    # forming and normalizing all |Aut|^2 = 4096 products of 5 x 5 matrices
    # took 383,339 field products here; the laws of R x| G take 21,806
    p = _order64_pencil(g8)
    formed, ax = products(lambda: aut_x(p, g8))
    assert ax.order == 64
    assert formed < 4 * ax.order * p.n ** 3


def test_stabilizer_over_gf_2_24_costs_its_root_triples(products):
    # the scan of PGL2(GF(2^24)) would filter about 2^72 elements; the 3
    # roots give 6 candidates, and 269 field products in all (roots found)
    doc = json.loads((GOLDEN / "docs" / "g8_n3_irreducible_r0.json").read_text())
    p, ext = cli.parse_pencil(doc), GF(24)
    pe = p.over(ext)
    pe.projective_roots()
    formed, g = products(lambda: delta_stabilizer(pe, ext))
    assert len(g) == 6
    assert formed < 60 * 6


def test_a_lift_outside_the_group_exits_3(monkeypatch, capsys):
    # the last lift times diag(g, 1, 1) over GF(4) conjugates R out of R: the
    # lookup fails as a certificate (exit 3), never with a KeyError
    lift_one, lifts = autos._lift_one, []

    def corrupt_last(an, sm):
        lifts.append(lift_one(an, sm))
        if len(lifts) < 6:
            return lifts[-1]
        return [[an.pencil.gf.mul(2, row[0])] + row[1:] for row in lifts[-1]]

    monkeypatch.setattr(autos, "_lift_one", corrupt_last)
    assert cli.main(["autx", "--in", str(GOLDEN / "docs" / "g2_n3_m1.json")]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["message"]) == (
        "internal", "R x| G is not closed under its product law")


def _bench_form(field, root, triples):
    """The coefficient table of a document's form over the benchmark's
    field, mapped into its extension through root."""
    table = {}
    for i, j, c in triples:
        table[(i - 1, j - 1)] = table.get((i - 1, j - 1), 0) ^ c
    return bench.map_table(field, root, {key: c for key, c in table.items() if c})


def _bracket(field, x, y):
    return field.mul(x[0], y[1]) ^ field.mul(x[1], y[0])


@pytest.mark.parametrize("doc", ["g4_n3_12", "g4_n5_an0", "g8_n3_irreducible_r0"])
def test_autx_entries_beyond_the_scans_check_independently(doc):
    argv = ["autx", "--in", "@" + doc]
    entry = next(e for e in json.loads((GOLDEN / "corpus.json").read_text())
                 if e["argv"] == argv)
    code, text = record.run(argv)
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0, entry["sha256"])
    out = json.loads(text)
    document = json.loads((GOLDEN / "docs" / f"{doc}.json").read_text())
    base = document["field"]
    base_field = bench.Field(base["degree"], base.get("modulus"))
    ext = bench.Field(out["ext"]["degree"], out["ext"]["modulus"])
    # the documented embedding sends t to the smallest root of the base
    # modulus: the package finds it (bench.embedding_root scans all of
    # GF(2^24)), and the benchmark's arithmetic checks that it is a root
    p = cli.parse_pencil(document)
    target = field_from_modulus(ext.modulus)
    root = find_embedding(p.gf, target).root
    value = 0
    for bit in reversed(range(base_field.k + 1)):
        value = ext.mul(value, root) ^ (base_field.modulus >> bit & 1)
    assert value == 0
    q0, q1 = (_bench_form(ext, root, document[q]) for q in ("q0", "q1"))
    n = document["n"]
    # R: 2^(n-1) matrices that preserve the pair
    assert len(out["pair_autos"]) == 1 << (n - 1)
    assert all(bench.transform(ext, q0, g) == q0 and bench.transform(ext, q1, g) == q1
               for g in out["pair_autos"])
    # the table is a Latin square of order |R| |G|
    order = len(out["pair_autos"]) * len(out["g_elements"])
    table = out["mult_table"]
    assert out["order"] == order == len(table)
    assert all(sorted(row) == list(range(order)) for row in table)
    assert all(sorted(col) == list(range(order)) for col in zip(*table))
    # G: distinct elements that permute the roots of Delta, as many as the
    # permutations of the roots that keep every cross-ratio [ac][bd]/[ad][bc].
    # The roots come from the package, of the pencil aut_x works on (moved
    # by GL(2) when a_n = 0); the rest is the benchmark's arithmetic
    roots = pair_algebra(p.over(target)).pencil.projective_roots()
    assert len(roots) == n
    g_elements = out["g_elements"]
    assert len({str(g) for g in g_elements}) == len(g_elements)
    for (a, b), (c, d) in g_elements:
        images = [(ext.mul(a, x) ^ ext.mul(b, y), ext.mul(c, x) ^ ext.mul(d, y)) for x, y in roots]
        assert all(any(_bracket(ext, im, r) == 0 for r in roots) for im in images)

    def cross(a, b, c, d):
        return (ext.mul(_bracket(ext, a, c), _bracket(ext, b, d)),
                ext.mul(_bracket(ext, a, d), _bracket(ext, b, c)))

    def keeps_cross_ratios(perm):
        for quad in itertools.combinations(range(n), 4):
            u, v = cross(*(roots[i] for i in quad))
            s, t = cross(*(roots[perm[i]] for i in quad))
            if ext.mul(u, t) != ext.mul(s, v):
                return False
        return True

    assert sum(map(keeps_cross_ratios, itertools.permutations(range(n)))) == len(g_elements)
