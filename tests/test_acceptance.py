"""Acceptance suite: every criterion at full scale, one line per criterion.

All arithmetic is exact, so every comparison is equality; the stated time
budgets are asserted as well.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the per-criterion lines as they pass).
"""

from qpencil.verify import run_check


def _criterion(number, tag, budget_seconds):
    res = run_check(tag, "full")
    print(f"ACCEPTANCE {number:>2}: {res.line()}", flush=True)
    assert res.passed, f"criterion {number} failed: {res.detail}"
    assert res.seconds < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget "
        f"({res.seconds:.1f}s)"
    )
    return res


def test_criterion_01_half_discriminant():
    res = _criterion(1, "HD", 1.0)
    assert res.checked == 1000


def test_criterion_02_regularity():
    res = _criterion(2, "REG", 120.0)
    assert res.checked >= 3906 + 500  # exhaustive n=3 plus 500 random n=5


def test_criterion_03_normal_form():
    res = _criterion(3, "T1.1", 120.0)
    assert res.checked == 500


def test_criterion_04_dual_basis_and_squaring():
    res_a = _criterion(4, "T5.3", 30.0)
    res_b = _criterion(4, "T5.4", 30.0)
    assert res_a.checked == 100 and res_b.checked == 100


def test_criterion_05_transformation_law():
    res = _criterion(5, "T5.6", 60.0)
    assert res.checked == 200


def test_criterion_06_classification():
    res = _criterion(6, "T1.5", 300.0)
    assert res.checked == 672  # every regular pair with a_3 != 0 over GF(2)


def test_criterion_07_automorphism_count():
    res = _criterion(7, "T7.1", 300.0)
    assert res.checked == 7  # four pencils over GF(2), three over GF(4)


def test_criterion_08_reflections():
    res = _criterion(8, "T7.3", 60.0)
    assert res.checked == 2


def test_criterion_09_generators():
    res = _criterion(9, "C7.4", 300.0)
    assert res.checked == 2


def test_criterion_10_canonical_plane():
    res = _criterion(10, "CP", 10.0)
    assert res.checked == 5


def test_criterion_11_arf():
    res = _criterion(11, "T6.1", 30.0)
    assert res.checked == 60


def test_criterion_12_lattice():
    res = _criterion(12, "L8", 300.0)
    assert res.checked == 2


def test_supplementary_aut_x():
    # Aut(X) = R x| G against the exhaustive projective stabilizer; not a
    # numbered criterion but part of the verify surface.
    res = run_check("AX", "full")
    print(f"ACCEPTANCE  +: {res.line()}", flush=True)
    assert res.passed
    assert res.checked == 2
