import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import serialize_pencil
from qpencil import verify
from qpencil.cli import MAX_DIMENSION, SINGLE_DOC_COMMANDS, main, parse_pencil

M1_DOC = {
    "field": {"degree": 1},
    "n": 3,
    "q0": [[2, 2, 1], [2, 3, 1]],
    "q1": [[1, 1, 1], [2, 2, 1], [1, 3, 1]],
}

DP_DOC = {
    "field": {"degree": 1, "modulus": 2},
    "n": 5,
    "q0": [[2, 2, 1], [3, 3, 1], [2, 4, 1], [3, 5, 1]],
    "q1": [[1, 1, 1], [2, 2, 1], [3, 3, 1], [1, 4, 1], [2, 5, 1]],
}


def run_cli(args, stdin_doc=None, files=None, tmp_path=None):
    argv = [sys.executable, "-m", "qpencil"] + args
    inp = json.dumps(stdin_doc) if stdin_doc is not None else None
    proc = subprocess.run(
        argv, input=inp, capture_output=True, text=True, timeout=600
    )
    return proc


def write_doc(tmp_path, name, doc):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def test_document_roundtrip(g2):
    p = parse_pencil(M1_DOC)
    assert p.n == 3
    doc = serialize_pencil(p)
    p2 = parse_pencil(doc)
    assert p2.q0 == p.q0 and p2.q1 == p.q1
    assert serialize_pencil(p2) == doc


def test_parse_errors():
    from qpencil.errors import InputError

    bad = dict(M1_DOC)
    bad["q0"] = [[0, 1, 1]]  # 0-based index: invalid
    with pytest.raises(InputError):
        parse_pencil(bad)
    bad2 = dict(M1_DOC)
    bad2["q0"] = [[1, 1, 7]]  # element outside the field
    with pytest.raises(InputError):
        parse_pencil(bad2)
    with pytest.raises(InputError):
        parse_pencil({"field": {"degree": 1}})


def test_repeated_triples_are_added(tmp_path, capsys):
    # a triple that repeats (i, j) adds its element to that coefficient: two
    # copies of [1, 1, 1] cancel, so the document reads as the one without
    # them
    twice = dict(M1_DOC, q0=M1_DOC["q0"] + [[1, 1, 1], [1, 1, 1]])
    assert parse_pencil(twice) == parse_pencil(M1_DOC)
    payloads = []
    for name, doc in (("twice.json", twice), ("once.json", M1_DOC)):
        assert main(["halfdisc", "--in", write_doc(tmp_path, name, doc)]) == 0
        payloads.append(capsys.readouterr().out)
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0])["a"] == [0, 1, 1, 1]


def test_cli_halfdisc_and_normalform():
    proc = run_cli(["halfdisc"], stdin_doc=M1_DOC)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == [0, 1, 1, 1]
    proc = run_cli(["normalform"], stdin_doc=M1_DOC)
    data = json.loads(proc.stdout)
    assert data["a"] == [0, 1, 1, 1]
    assert data["r"] == [0, 0]


def test_cli_regular_and_exit_codes():
    proc = run_cli(["regular"], stdin_doc=M1_DOC)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["regular"] is True
    bad = {
        "field": {"degree": 1},
        "n": 3,
        "q0": [[1, 1, 1]],
        "q1": [[1, 1, 1]],
    }
    proc = run_cli(["regular"], stdin_doc=bad)
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "input"


def test_cli_precondition_exit_code():
    # canonical plane needs m >= 2
    proc = run_cli(["canonical-plane"], stdin_doc=M1_DOC)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "precondition"


def test_cli_rinv_and_isiso(tmp_path):
    doc_r01 = {
        "field": {"degree": 1},
        "n": 3,
        "q0": [[2, 2, 1], [2, 3, 1], [3, 3, 1]],
        "q1": [[1, 1, 1], [2, 2, 1], [1, 3, 1]],
    }
    proc = run_cli(["rinv"], stdin_doc=doc_r01)
    data = json.loads(proc.stdout)
    assert data["r_coeffs"] == [0, 1]
    assert data["trivial_class"] is False
    a = write_doc(tmp_path, "a.json", M1_DOC)
    b = write_doc(tmp_path, "b.json", doc_r01)
    proc = run_cli(["isiso", a, b])
    assert json.loads(proc.stdout)["isomorphic"] is False
    proc = run_cli(["isiso", a, a])
    out = json.loads(proc.stdout)
    assert out["isomorphic"] is True and out["witness"] is not None


def test_cli_autos_and_reflections():
    proc = run_cli(["autos"], stdin_doc=M1_DOC)
    data = json.loads(proc.stdout)
    assert data["order"] == 2 and data["components"] == 2
    proc = run_cli(["reflections"], stdin_doc=M1_DOC)
    data = json.loads(proc.stdout)
    assert len(data["reflections"]) == 3
    assert data["ext"] == {"degree": 2, "modulus": 7}
    assert data["match_idempotents"] is True


def test_cli_generators_lattice_canonical_plane():
    proc = run_cli(["generators"], stdin_doc=DP_DOC)
    data = json.loads(proc.stdout)
    assert data["count"] == 16
    assert data["ext"]["degree"] == 4
    proc = run_cli(["canonical-plane"], stdin_doc=DP_DOC)
    data = json.loads(proc.stdout)
    assert data["point_basis"] == [[0, 1, 1, 0, 0]]
    proc = run_cli(["lattice"], stdin_doc=DP_DOC)
    data = json.loads(proc.stdout)
    assert data["is_signed_cartan_d"] is True
    assert data["cartan_sign"] == -1


def test_cli_arf():
    proc = run_cli(["arf"], stdin_doc=M1_DOC)
    assert json.loads(proc.stdout)["matches_r"] is True


def test_cli_deterministic_output():
    out1 = run_cli(["normalform"], stdin_doc=DP_DOC).stdout
    out2 = run_cli(["normalform"], stdin_doc=DP_DOC).stdout
    assert out1 == out2
    out3 = run_cli(["lattice"], stdin_doc=DP_DOC).stdout
    out4 = run_cli(["lattice"], stdin_doc=DP_DOC).stdout
    assert out3 == out4


def test_cli_verify_small():
    proc = run_cli(["verify", "--scale", "small"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["all_passed"] is True
    assert [(r["tag"], r["checked"]) for r in data["results"]] == [
        ("HD", 100), ("REG", 190), ("T1.1", 60), ("T5.3", 20), ("T5.4", 20),
        ("T5.6", 30), ("T1.5", 336), ("T7.1", 4), ("T7.3", 2), ("C7.4", 2),
        ("CP", 5), ("T6.1", 15), ("L8", 1), ("AX", 1),
    ]
    for r in data["results"]:
        assert r["passed"] is True


def test_main_entry_returns_int(tmp_path):
    a = write_doc(tmp_path, "a.json", M1_DOC)
    rc = main(["halfdisc", "--in", a, "--out", str(tmp_path / "out.json")])
    assert rc == 0
    data = json.loads((tmp_path / "out.json").read_text())
    assert data["a"] == [0, 1, 1, 1]


def test_autx_picks_a_quasi_split_field(tmp_path):
    # r = (0, 1): Delta splits over GF(4) but the r-coset dies only over
    # GF(16), the field generators and lattice pick for this document too
    doc = {
        "field": {"degree": 1},
        "n": 3,
        "q0": [[2, 2, 1], [2, 3, 1], [3, 3, 1]],
        "q1": [[1, 1, 1], [2, 2, 1], [1, 3, 1]],
    }
    path = write_doc(tmp_path, "doc.json", doc)
    outputs = {}
    for argv in (["autx"], ["autx", "--ext-degree", "4"], ["generators"]):
        out = tmp_path / "out.json"
        assert main(argv + ["--in", path, "--out", str(out)]) == 0
        outputs[" ".join(argv)] = json.loads(out.read_text())
    assert outputs["autx"]["ext"] == {"degree": 4, "modulus": 19}
    assert outputs["generators"]["ext"] == outputs["autx"]["ext"]
    assert outputs["autx"] == outputs["autx --ext-degree 4"]
    out = tmp_path / "out.json"
    assert main(["autx", "--ext-degree", "2", "--in", path, "--out", str(out)]) == 1
    assert "not quasi-split" in json.loads(out.read_text())["error"]["message"]


@pytest.mark.parametrize("degree", ["-1", "0"])
def test_ext_degree_below_one_is_an_input_error(degree):
    doc = Path(__file__).parent / "golden" / "docs" / "g2_n3_all_roots.json"
    proc = run_cli(["reflections", "--ext-degree", degree, "--in", str(doc)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "input" and "--ext-degree" in error["message"]


def _with(doc, path, value):
    """A copy of doc with the entry at path (a tuple of keys) replaced."""
    out = json.loads(json.dumps(doc))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "path,value",
    [
        (("q0", 0, 2), 1.7),
        (("q0", 0, 2), True),
        (("q0", 0, 2), "1"),
        (("q1", 1), [2, 2]),
        (("q1",), 5),
        (("n",), 3.2),
        (("n",), "3"),
        (("field", "degree"), 1.9),
        (("field", "degree"), True),
        (("field", "degree"), 0),
        (("field", "degree"), -2),
        (("field", "modulus"), 3.0),
        (("field", "modulus"), -7),
    ],
)
def test_only_json_integers_are_accepted(tmp_path, capsys, path, value):
    # each of these exited 0 with a truncated value, or with a traceback
    doc = write_doc(tmp_path, "doc.json", _with(M1_DOC, path, value))
    assert main(["halfdisc", "--in", doc]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "input"


def _wrong_substitution(monkeypatch, key):
    """QuadraticForm.transform with coefficient `key` of its image flipped."""
    from qpencil.quadform import QuadraticForm

    transform = QuadraticForm.transform

    def wrong(q, g):
        image = transform(q, g)
        return image.add(QuadraticForm.from_table(image.gf, image.n, {key: 1}))

    monkeypatch.setattr(QuadraticForm, "transform", wrong)


def test_certificate_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a substitution that returns a wrong pairing breaks the round trip of
    # extract_normal_form: exit 3 with one JSON object, not a traceback
    _wrong_substitution(monkeypatch, (0, 1))
    doc = write_doc(tmp_path, "doc.json", DP_DOC)
    assert main(["normalform", "--in", doc]) == 3
    out = capsys.readouterr().out
    error = json.loads(out)["error"]
    assert error["type"] == "internal"
    assert error["message"] == "normal form does not reproduce the pencil"


def test_wrong_diagonal_fails_the_half_discriminant_check(tmp_path, capsys, monkeypatch):
    # a and r are read off the diagonal of q o B, so a wrong q(w_0) is
    # caught by the check of a against the half-discriminant
    _wrong_substitution(monkeypatch, (0, 0))
    doc = write_doc(tmp_path, "doc.json", DP_DOC)
    assert main(["normalform", "--in", doc]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "internal"
    assert error["message"] == "extracted coefficients disagree with the half-discriminant"


def test_dependent_radical_map_is_an_internal_failure(tmp_path, capsys, monkeypatch):
    # regularity is decided on the true Omega; a cached Omega with w_1 = w_0
    # then makes the Kronecker pairing system inconsistent: a failed
    # certificate (exit 3), not an irregular input (exit 1)
    from qpencil import cli
    from qpencil.normalform import extract_normal_form

    def dependent(doc):
        p = parse_pencil(doc)
        assert p.is_regular()
        w = p.radical_map()
        p._radical_map = [w[0], list(w[0])] + w[2:]
        return p

    message = "Kronecker pairing system is inconsistent on a regular pencil"
    with pytest.raises(AssertionError, match=message):
        extract_normal_form(dependent(DP_DOC))
    monkeypatch.setattr(cli, "parse_pencil", dependent)
    assert main(["normalform", "--in", write_doc(tmp_path, "doc.json", DP_DOC)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["message"]) == ("internal", message)


@pytest.mark.parametrize(
    "field,argv,degree",
    [
        ({"degree": 3000}, [], 3000),
        ({"degree": 65}, [], 65),
        ({"degree": 3, "modulus": (1 << 100) | 1}, [], 100),
        ({"degree": 1}, ["--ext-degree", "65"], 65),
        ({"degree": 2}, ["--ext-degree", "33"], 66),
    ],
)
def test_field_degree_limit_is_checked_before_any_search(
        tmp_path, capsys, monkeypatch, field, argv, degree):
    # degree 3000 used to hang in default_modulus; the refusal must come
    # before any modulus search or irreducibility test
    from qpencil import field as field_module

    def refuse(m):
        raise AssertionError("irreducibility test above the limit")

    if argv:
        field_module.GF(field["degree"])  # the base field is within the limit
    monkeypatch.setattr(field_module, "p2_is_irreducible", refuse)
    doc = write_doc(tmp_path, "doc.json", _with(M1_DOC, ("field",), field))
    assert main(["reflections", *argv, "--in", doc]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "precondition"
    assert error["info"] == {"limit": 64, "degree": degree}


@pytest.mark.parametrize("n", [MAX_DIMENSION + 1, MAX_DIMENSION + 2, 4001])
def test_dimension_limit_is_checked_before_any_triple(tmp_path, capsys, n):
    # n = 4001 used to print nothing within 20 s; the refusal comes before
    # the coefficient triples are read, so even malformed ones are not seen
    doc = _with(M1_DOC, ("n",), n)
    doc["q0"] = "not a list of triples"
    assert main(["halfdisc", "--in", write_doc(tmp_path, "doc.json", doc)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "precondition"
    assert error["info"] == {"limit": MAX_DIMENSION, "n": n}


def test_dimension_at_the_limit_is_accepted(tmp_path, capsys):
    doc = _with(M1_DOC, ("n",), MAX_DIMENSION)
    assert main(["halfdisc", "--in", write_doc(tmp_path, "doc.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out) == {"a": [0] * (MAX_DIMENSION + 1)}


def test_field_degree_64_is_accepted(tmp_path, capsys):
    doc = write_doc(tmp_path, "doc.json", _with(M1_DOC, ("field",), {"degree": 64}))
    assert main(["halfdisc", "--in", doc]) == 0
    assert json.loads(capsys.readouterr().out) == {"a": [0, 1, 1, 1]}


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuchcmd"],
        ["halfdisc", "--bogus"],
        ["verify", "--scale", "huge"],
        ["reflections", "--ext-degree", "x"],
        [],
        ["halfdisc", "--in"],
    ],
)
def test_bad_argv_is_an_input_error(capsys, argv):
    # argparse printed its usage to stderr, left stdout empty and exited
    # through SystemExit
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["type"] == "input"
    assert captured.err == ""


def test_bad_argv_in_a_process_prints_json_only():
    proc = run_cli(["verify", "--scale", "huge"])
    assert proc.returncode == 2
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error == {"type": "input",
                     "message": "argument --scale: invalid choice: 'huge' "
                                "(choose from 'small', 'full')"}


@pytest.mark.parametrize("command", ["reflections", "autx"])
def test_automatic_extension_above_the_limit_is_refused(capsys, monkeypatch, command):
    # Delta of this document splits over the degree-10 extension of
    # GF(2^24); the CLI used to build GF(2^240) for it (12 s for
    # reflections) while --ext-degree 10 was refused
    from qpencil import field as field_module

    def refuse(m):
        raise AssertionError("irreducibility test above the limit")

    doc = Path(__file__).parent / "golden" / "docs" / "gk24_n7_25.json"
    field_module.GF(24)  # the base field is within the limit
    monkeypatch.setattr(field_module, "p2_is_irreducible", refuse)
    assert main([command, "--in", str(doc)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "precondition"
    assert error["info"] == {"limit": 64, "degree": 240}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["halfdisc", "--help"],
                                  ["reflections", "-h"], ["isiso", "--help"]])
def test_help_is_one_json_object(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    text = json.loads(captured.out)["help"]
    prog = "qpencil" if argv[0].startswith("-") else f"qpencil {argv[0]}"
    assert text.startswith(f"usage: {prog} ")


def test_help_in_a_process_does_not_depend_on_columns():
    outputs = set()
    for columns in ("30", "200"):
        for argv in (["-h"], ["reflections", "--help"]):
            env = {**os.environ, "COLUMNS": columns}
            proc = subprocess.run([sys.executable, "-m", "qpencil"] + argv,
                                  capture_output=True, text=True, env=env,
                                  timeout=600)
            assert proc.returncode == 0 and proc.stderr == ""
            outputs.add((tuple(argv), proc.stdout))
    assert len(outputs) == 2
    assert all(set(json.loads(out)) == {"help"} for _, out in outputs)


GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"


@pytest.mark.parametrize("command", ["rinv", "arf"])
def test_rinv_and_arf_move_an_a_n_zero_pencil(capsys, command):
    # a_n = 0: the answer is for the pencil moved by the reported GL(2) move
    assert main([command, "--in", str(GOLDEN_DOCS / "g2_n3_an0.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gl2"] == [[0, 1], [1, 0]]
    # a_n != 0: no move, no "gl2" key
    assert main([command, "--in", str(GOLDEN_DOCS / "g2_n3_m1.json")]) == 0
    assert "gl2" not in json.loads(capsys.readouterr().out)
    # every rational point is a root: the error autos gives
    errors = []
    for cmd in (command, "autos"):
        path = str(GOLDEN_DOCS / "g2_n3_all_roots.json")
        assert main([cmd, "--in", path]) == 1
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert errors[0] == errors[1]
    assert errors[0]["info"] == {"extension_degree": 2}


@pytest.mark.parametrize("out", ["{tmp}", "{tmp}/missing/out.json"],
                         ids=["directory", "missing_directory"])
def test_unwritable_out_is_an_input_error_on_stdout(tmp_path, capsys, out):
    # the payload, and then the error object, went to the same path: a
    # traceback, nothing on stdout, exit 1
    out = out.format(tmp=tmp_path)
    doc = write_doc(tmp_path, "doc.json", M1_DOC)
    for argv in (["halfdisc", "--in", doc], ["isiso", doc, doc]):
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["type"] == "input"
        assert error["message"].startswith("cannot write output: ")
        assert captured.err == ""


def test_reflections_on_a_zero_delta_is_not_regular(capsys):
    # Delta = 0: the automatic extension is the splitting field of Delta,
    # which is factored only once the pencil is known to be regular
    path = str(GOLDEN_DOCS / "g2_n3_delta_zero.json")
    assert main(["reflections", "--in", path]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "not-regular"


@pytest.mark.parametrize("out", ["{tmp}", "{tmp}/missing/out.json"],
                         ids=["directory", "missing_directory"])
def test_unwritable_out_keeps_a_failed_commands_payload(tmp_path, capsys, monkeypatch, out):
    # a failed command's own error was replaced by "cannot write output" and
    # exit 2: a not-regular pencil did not say so
    out = out.format(tmp=tmp_path)
    failing = verify.VerifyResult("T0", "a failing check", False, 1, 0.0, "stubbed")
    monkeypatch.setattr(verify, "run_suite", lambda scale: [failing])
    for argv, code in ((["halfdisc", "--in", str(tmp_path / "no.json")], 2),
                       (["normalform", "--in", str(GOLDEN_DOCS / "g2_n5_not_regular.json")], 1),
                       (["verify"], 1)):
        assert main(argv) == code
        expected = json.loads(capsys.readouterr().out)
        assert main(argv + ["--out", out]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("output_error").startswith("cannot write output: ")
        assert payload == expected


@pytest.mark.parametrize("content, message", [
    (b'{"field": {"degree": 1}, "n": 3, "q0": [[1, 1, \xff]], "q1": []}',
     "cannot read document: 'utf-8' codec can't decode byte 0xff in position 47: "
     "invalid start byte"),
    (b"[" * (10 * sys.getrecursionlimit()) + b"]" * (10 * sys.getrecursionlimit()),
     "cannot read document: nested too deeply"),
], ids=["not_utf8", "nested_too_deeply"])
def test_unreadable_document_is_an_input_error(tmp_path, capsys, monkeypatch, content, message):
    # UnicodeDecodeError and RecursionError escaped as tracebacks, exit 1
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["halfdisc", "--in", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {"type": "input",
                                                           "message": message}
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), "utf-8"))
    assert main(["rinv"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {"type": "input",
                                                           "message": message}


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)
_NOT_INT = _JSON.filter(lambda x: type(x) is not int)
_TRIPLES = st.lists(st.lists(st.integers(-1, 12), max_size=4) | _JSON, max_size=8) | _JSON
# every key optional and every value either plausible or any JSON; n stays
# small or above the limit, so no example runs a large radical map
_DOCS = st.fixed_dictionaries({}, optional={
    "field": st.fixed_dictionaries(
        {"degree": st.integers(-2, 70) | _NOT_INT},
        optional={"modulus": st.integers(-1, 2**70) | _NOT_INT}) | _JSON,
    "n": st.integers(-3, 11) | st.integers(min_value=MAX_DIMENSION + 1) | _NOT_INT,
    "q0": _TRIPLES,
    "q1": _TRIPLES,
}) | _JSON


@settings(max_examples=80, deadline=2000)
@given(_DOCS.map(lambda d: json.dumps(d).encode()) | st.binary(max_size=80))
def test_any_document_gets_one_json_object_and_a_documented_exit_code(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["halfdisc", "--in", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2)
    assert isinstance(json.loads(buf.getvalue()), dict)


# argv fuzz: documents whose every subcommand stays cheap at any listed
# --ext-degree, and --out targets of which only the first can be written
_ARGV_DOCS = [str(GOLDEN_DOCS / f"{name}.json") for name in (
    "g2_n3_m1", "g2_n3_irreducible", "g2_n3_an0", "g2_n5_not_regular",
    "g4_n3_split_r0", "g4_n3_12", "g2_n3_delta_zero", "bad_element",
    "no_such_document")]
_OUTS = ["{tmp}/out.json", "{tmp}/missing/out.json", "{tmp}"]
_EXT_COMMANDS = ("reflections", "generators", "lattice", "autx")
_DOC = st.sampled_from(_ARGV_DOCS)
# misplaced or malformed parts, appended after a mostly well-formed core; a
# bare --out is left out, since it would write to the token after it
_STRAY = st.one_of(
    _DOC.map(lambda path: [path]),
    st.tuples(st.just("--in"), _DOC).map(list),
    st.tuples(st.just("--ext-degree"), st.sampled_from(["1", "x"])).map(list),
    st.tuples(st.just("--scale"), st.sampled_from(["small", "huge"])).map(list),
    st.sampled_from(["-h", "--in", "--ext-degree", "--bogus", "-", "", "extra"])
    .map(lambda token: [token]),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*SINGLE_DOC_COMMANDS, "isiso", "verify",
                                    "nosuchcommand"]))
    argv = [command]
    if command == "isiso":
        argv += [draw(_DOC), draw(_DOC)]
    elif draw(st.booleans()):
        argv += ["--in", draw(_DOC)]
    if command in _EXT_COMMANDS and draw(st.booleans()):
        argv += ["--ext-degree", draw(st.sampled_from(["-1", "0", "1", "2", "65", "x"]))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--scale", draw(st.sampled_from(["small", "full", "huge", ""]))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(_OUTS))]
    for part in draw(st.lists(_STRAY, max_size=2)):
        argv += part
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_any_argv_gets_one_json_object_and_a_documented_exit_code(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "run_suite", lambda scale: [])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(M1_DOC)))
    argv = [token.format(tmp=tmp_path) for token in argv]
    written = tmp_path / "out.json"
    written.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    outputs = [text for text in (buf.getvalue(), written.exists() and written.read_text())
               if text]
    assert len(outputs) == 1
    assert isinstance(json.loads(outputs[0]), dict)
