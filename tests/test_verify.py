import contextlib
import io
import json
import random

import pytest

from qpencil import autos, cli, verify
from qpencil.field import GF
from qpencil.normalform import NormalForm
from qpencil.quadform import QuadraticForm


def test_normal_form_check_catches_a_wrong_model(monkeypatch):
    # a model with r_0 flipped is not isomorphic to the pencil whenever the
    # flip leaves the r-coset; T1.1 must then report a failure under the
    # same description as a pass
    realized = NormalForm.realized

    def flipped(nf):
        r = list(nf.r)
        r[0] ^= 1
        return realized(NormalForm(nf.gf, nf.a, tuple(r), nf.basis))

    monkeypatch.setattr(NormalForm, "realized", flipped)
    result = verify.run_check("T1.1", "small")
    assert not result.passed
    assert "not isomorphic" in result.detail
    assert result.description == "Kronecker normal form and round trip"


def test_stabilizer_failure_stops_at_the_first_case(monkeypatch):
    # no matrix pulls back: the first GF(2) pencil (|Aut| = 2) fails before
    # any case is counted
    monkeypatch.setattr(verify, "pulls_back", lambda q, g, target: False)
    result = verify.run_check("T7.1", "small")
    assert not result.passed
    assert result.checked == 0
    assert result.detail == "GL3(F2) stabilizer 0 != 2"
    assert result.description == "|Aut| = 2^(l-1) = exhaustive GL stabilizer"


def test_checked_counts_the_cases_before_the_failure(monkeypatch):
    law = verify.transformation_law_check
    calls = []

    def fifth_fails(p, s):
        calls.append(s)
        return len(calls) != 5 and law(p, s)

    monkeypatch.setattr(verify, "transformation_law_check", fifth_fails)
    result = verify.run_check("T5.6", "small")
    assert not result.passed
    assert result.checked == 4
    assert result.detail.startswith("failed at m=")
    assert result.description == "Artin-Schreier transformation law"
    assert len(calls) == 5


@pytest.mark.parametrize("scale", ["huge", "Full", "", None])
def test_unknown_scale_is_refused(scale):
    with pytest.raises(ValueError):
        verify.run_suite(scale)
    with pytest.raises(ValueError):
        verify.run_check("HD", scale)


@pytest.mark.parametrize("tag", ["T9.9", "hd", ""])
def test_unknown_tag_is_refused(tag):
    with pytest.raises(ValueError):
        verify.run_check(tag, "small")


def test_pulls_back_matches_transform():
    rng = random.Random(2024)
    fields = [GF(1), GF(2), GF(3), GF(8), GF(17)]
    verdicts = {True: 0, False: 0}
    for case in range(2000):
        gf = fields[case % len(fields)]
        n = 1 + (case // len(fields)) % 7
        keys = [(i, j) for i in range(n) for j in range(i, n)]

        def form():
            return QuadraticForm.from_table(
                gf, n, {k: rng.randrange(gf.order) for k in keys})

        q = form()
        g = [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]
        image = q.transform(g)
        kind = case % 3
        if kind == 0:
            target = image
        elif kind == 1:
            target = form()
        else:
            t = {(i, j): image.rows[i][j] for i, j in keys}
            k = rng.choice(keys)
            t[k] ^= rng.randrange(1, gf.order)
            target = QuadraticForm.from_table(gf, n, t)
        verdict = verify.pulls_back(q, g, target)
        assert verdict == (image == target), (gf, q, g, target)
        verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_a_failed_certificate_fails_only_its_check(monkeypatch):
    # one element dropped from G: aut_x's own certificate of R x| G fails
    # inside AX, which reports it as a failure; run_suite goes on with the
    # other checks, and the verify subcommand exits 1, not 3
    stabilizer = autos.delta_stabilizer
    monkeypatch.setattr(autos, "delta_stabilizer", lambda p, ext: stabilizer(p, ext)[:-1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--scale", "small"])
    assert code == 1
    results = json.loads(out.getvalue())["results"]
    assert [(r["tag"], r["passed"]) for r in results] == [
        (tag, tag != "AX") for tag in verify.CHECKS]
    detail = next(r["detail"] for r in results if r["tag"] == "AX")
    assert detail == "internal certificate failed: R x| G is not closed under its product law"
    assert [line.split()[:2] for line in err.getvalue().splitlines()] == [
        ["[FAIL]" if tag == "AX" else "[PASS]", tag] for tag in verify.CHECKS]
