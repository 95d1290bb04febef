"""Within one `cli.main` call every pencil is analysed once: no Pencil
object extracts its normal form, computes its radical map or tests the
separability of Delta twice, and no polynomial is factored twice over one
field (Delta's roots are read off its one factorization)."""

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

from qpencil import cli, normalform, poly
from qpencil.pencil import Pencil

DOCS = Path(__file__).parent / "golden" / "docs"

CASES = [
    ("autos", "g2_n5_del_pezzo"),
    ("autos", "g4_n5_an0"),
    ("reflections", "g2_n5_del_pezzo"),
    ("reflections", "g8_n7_11122"),
    ("generators", "g4_n5_an0"),
    ("generators", "g2_n3_autx_bug"),
    ("lattice", "g2_n5_del_pezzo"),
    ("lattice", "g2_n3_an0"),
    ("lattice", "g8m13_n5_1112"),
    ("autx", "g2_n3_autx_bug"),
    ("autx", "g2_n3_an0"),
    ("autx", "g2_n5_113_r0"),
    ("rinv", "g4_n5_an0"),
    ("rinv", "g2_n3_an0"),
    ("arf", "g4_n5_an0"),
    ("arf", "g2_n3_an0"),
]


def _replace_everywhere(monkeypatch, original, wrapped):
    for name, mod in list(sys.modules.items()):
        if name.startswith("qpencil"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapped)


@pytest.mark.parametrize("command,doc", CASES)
def test_one_analysis_per_pencil(monkeypatch, command, doc):
    keep = []  # holds every pencil seen, so no id is reused during the call
    normal_forms, radical_maps, factored = Counter(), Counter(), Counter()

    extract = normalform.extract_normal_form

    def counted_extract(p):
        keep.append(p)
        normal_forms[id(p)] += 1
        return extract(p)

    radical_map = Pencil.radical_map

    def counted_radical_map(p):
        if p._radical_map is None:
            keep.append(p)
            radical_maps[id(p)] += 1
        return radical_map(p)

    factor = poly.factor

    def counted_factor(gf, f):
        factored[gf, tuple(f)] += 1
        return factor(gf, f)

    _replace_everywhere(monkeypatch, extract, counted_extract)
    monkeypatch.setattr(Pencil, "radical_map", counted_radical_map)
    monkeypatch.setattr(poly, "factor", counted_factor)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--in", str(DOCS / f"{doc}.json")])
    assert code == 0
    assert normal_forms and max(normal_forms.values()) == 1
    assert radical_maps and max(radical_maps.values()) == 1
    assert all(n == 1 for n in factored.values()), factored


@pytest.mark.parametrize("command,doc", CASES)
def test_one_regularity_verdict_per_pencil(monkeypatch, command, doc):
    # a pencil keeps its verdict: Delta's coefficient list is the pencil's
    # own, so at most one separability test per list
    keep, tests = [], Counter()
    separable = poly.bf_is_separable

    def counted(gf, c):
        keep.append(c)
        tests[id(c)] += 1
        return separable(gf, c)

    monkeypatch.setattr(poly, "bf_is_separable", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--in", str(DOCS / f"{doc}.json")])
    assert code == 0
    assert tests and max(tests.values()) == 1, tests


@pytest.mark.parametrize("doc", ["g4_n5_an0", "g2_n3_an0"])
def test_gl2_move_computes_no_second_radical_map(monkeypatch, doc):
    # a_n = 0: the analysis runs on the pencil moved by ensure_an_nonzero,
    # which inherits Omega and Delta by substitution
    computed = 0
    radical_map = Pencil.radical_map

    def counted_radical_map(p):
        nonlocal computed
        computed += p._radical_map is None
        return radical_map(p)

    monkeypatch.setattr(Pencil, "radical_map", counted_radical_map)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["autos", "--in", str(DOCS / f"{doc}.json")])
    assert code == 0
    assert computed == 1
