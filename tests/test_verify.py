from qpencil import verify
from qpencil.normalform import NormalForm


def test_normal_form_check_catches_a_wrong_model(monkeypatch):
    # a model with r_0 flipped is not isomorphic to the pencil whenever the
    # flip leaves the r-coset; T1.1 must then report a failure under the
    # same description as a pass
    realized = NormalForm.realized

    def flipped(nf):
        r = list(nf.r)
        r[0] ^= 1
        return realized(NormalForm(nf.a, tuple(r), nf.basis))

    monkeypatch.setattr(NormalForm, "realized", flipped)
    result = verify.check_normal_form("small")
    assert not result.passed
    assert "not isomorphic" in result.detail
    assert result.description == "Kronecker normal form and round trip"
