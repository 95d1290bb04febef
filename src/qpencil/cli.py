"""Command-line driver with bit-exact JSON I/O.

A pencil document looks like

    {
      "field": {"degree": 2, "modulus": 7},
      "n": 3,
      "q0": [[1, 1, 1], [2, 3, 1]],
      "q1": [[1, 2, 1]]
    }

Coefficient triples are (i, j, element) with 1 <= i <= j <= n, and
triples that repeat (i, j) are added in the field; field elements are the
integers whose binary digits are the power-basis coordinates, so documents
round-trip byte-identically.  "modulus" may be omitted to get the fixed
default modulus for that degree.  Extension fields created on demand are
reported in the output (with their modulus) so results are reproducible
without hidden state.

Exit codes: 0 success, 1 precondition violation (with a machine-readable
error object), 2 malformed input, 3 a failed internal certificate (a bug:
a result did not survive its own substitution check).  Malformed argv (an
unknown subcommand or flag, a bad option value) is malformed input too:
the parser raises InputError, so stdout holds {"error": {"type": "input",
"message": ...}} and the exit code is 2.  -h/--help prints {"help": the
usage text} and exits 0.  A well-formed command line is read without
argparse (_simple_args); the parser is built on first use, for the rest
(help, errors and verify).  An --out that cannot be written is malformed
input (exit 2) when the command succeeded; when the command failed,
stdout holds its own payload and exit code, with "output_error" added.

Every field is limited to GF(2^64), the extension fields the CLI picks by
itself included: Field refuses a degree above field.MAX_FIELD_DEGREE
(exit 1, with info {"limit": 64, "degree": d}) before any irreducibility
test.  The dimension is limited to MAX_DIMENSION = 61:
a larger n is refused (exit 1, with info {"limit": 61, "n": n}) before
any coefficient triple is parsed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from operator import le
from types import SimpleNamespace

from .autos import (
    aut_x,
    automorphism_group,
    pair_algebra,
    reflections,
    reflections_match_idempotents,
)
from .errors import InputError, NotRegularError, PreconditionError
from .field import GF, Field, field_from_modulus
from .geometry import (
    canonical_plane,
    enumerate_generators,
    quasi_split_over,
    splitting_degree,
)
from .invariants import arf_invariant, is_isomorphic, r_invariant
from .lattice import cartan_d, lattice_for
from .normalform import extract_normal_form
from .pencil import Pencil
from .quadform import QuadraticForm

# the scales of the verify harness, offered by the parser; verify reads
# them from here, so that only the verify subcommand imports the harness
SCALES = ("small", "full")

# the radical map of a regular pencil costs O(n^3) field products (O(n^4)
# when it is not regular): halfdisc on a dense regular pencil with n = 61
# takes about 0.25 s over GF(2^8) and 3 s over GF(2^64)
MAX_DIMENSION = 61


def _json_int(x, what: str) -> int:
    """x itself when it is a JSON integer; bools, floats and strings are
    refused rather than coerced."""
    if type(x) is not int:
        raise InputError(f"{what} must be a JSON integer, got {json.dumps(x)}")
    return x


def parse_field(doc: dict) -> Field:
    try:
        fd = doc["field"]
        degree = _json_int(fd["degree"], "field degree")
    except (KeyError, TypeError) as e:
        raise InputError(f"bad field description: {e}")
    if degree < 1:
        raise InputError(f"field degree must be >= 1, got {degree}")
    if "modulus" not in fd:
        return GF(degree)
    modulus = _json_int(fd["modulus"], "field modulus")
    try:
        gf = field_from_modulus(modulus)
    except ValueError as e:
        raise InputError(str(e))
    if gf.degree != degree:
        raise InputError("field degree does not match the modulus")
    return gf


def parse_form(gf: Field, n: int, triples, name: str) -> QuadraticForm:
    """The form of a list of coefficient triples.  A well-formed list is
    checked in whole-list passes and its triples added straight into the
    rows; any other is handed to _parse_form_by_item, whose per-item
    checks name the first bad triple."""
    if type(triples) is list and set(map(type, triples)) <= {list} \
            and set(map(len, triples)) <= {3}:
        rows = [[0] * (n + 1) for _ in range(n + 1)]  # 1-based
        if triples:
            i_s, j_s, c_s = zip(*triples)
            if not (set(map(type, i_s + j_s + c_s)) == {int}
                    and min(i_s) >= 1 and max(j_s) <= n and all(map(le, i_s, j_s))
                    and min(c_s) >= 0 and max(c_s) < gf.order):
                return _parse_form_by_item(gf, n, triples, name)
            for i, j, c in triples:
                rows[i][j] ^= c
        return QuadraticForm(gf, n, tuple(tuple(row[1:]) for row in rows[1:]))
    return _parse_form_by_item(gf, n, triples, name)


def _parse_form_by_item(gf: Field, n: int, triples, name: str) -> QuadraticForm:
    if not isinstance(triples, list):
        raise InputError(f"{name}: expected a list of coefficient triples")
    table = {}
    for item in triples:
        if not (isinstance(item, list) and len(item) == 3
                and all(type(x) is int for x in item)):
            raise InputError(f"{name}: coefficient triple {item!r} is malformed")
        i, j, c = item
        if not (1 <= i <= j <= n):
            raise InputError(f"{name}: indices {(i, j)} violate 1 <= i <= j <= n")
        if not (0 <= c < gf.order):
            raise InputError(f"{name}: {c} is not an element of the field")
        key = (i - 1, j - 1)
        table[key] = table.get(key, 0) ^ c
    return QuadraticForm.from_table(gf, n, table)


def parse_pencil(doc: dict) -> Pencil:
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    gf = parse_field(doc)
    try:
        n = _json_int(doc["n"], "n")
        if n > MAX_DIMENSION:
            raise PreconditionError(f"dimension {n} is above the limit {MAX_DIMENSION}",
                                    limit=MAX_DIMENSION, n=n)
        q0 = parse_form(gf, n, doc["q0"], "q0")
        q1 = parse_form(gf, n, doc["q1"], "q1")
    except KeyError as e:
        raise InputError(f"missing document key: {e}")
    try:
        return Pencil(q0, q1)
    except ValueError as e:
        raise InputError(str(e))


def field_info(gf: Field) -> dict:
    return {"degree": gf.degree, "modulus": gf.modulus}


# ---------------------------------------------------------------------------
# subcommands


def cmd_halfdisc(p: Pencil, args) -> dict:
    return {"a": p.half_discriminant()}


def cmd_regular(p: Pencil, args) -> dict:
    return {"regular": p.is_regular(), "a": p.half_discriminant()}


def cmd_normalform(p: Pencil, args) -> dict:
    nf = extract_normal_form(p)
    return {"a": nf.a, "r": nf.r, "basis": nf.basis}


def _moved(an, payload: dict) -> dict:
    """payload, with the GL(2) move under "gl2" when the analysis runs on a
    moved pencil (a_n = 0 in the given one)."""
    if an.gl2 != ((1, 0), (0, 1)):
        payload["gl2"] = an.gl2
    return payload


def cmd_rinv(p: Pencil, args) -> dict:
    an = pair_algebra(p)
    rep, trivial = r_invariant(an)
    return _moved(an, {
        "f": an.algebra.f,
        "r_coeffs": an.nf.r,
        "value": an.r_value,
        "canonical_rep": rep,
        "trivial_class": trivial,
    })


def cmd_autos(p: Pencil, args) -> dict:
    group = automorphism_group(p)
    return {
        "order": len(group),
        "components": pair_algebra(p).algebra.num_components,
        "elements": [
            {"s_coords": g.s_coeffs, "matrix": g.matrix}
            for g in group
        ],
    }


def _extension(p: Pencil, args, quasi_split: bool = True) -> Field:
    """GF(2^(k*e)) for e = --ext-degree when given; otherwise e is the
    splitting degree of Delta, joined (lcm) when quasi_split with the
    smallest degree over which the r-coset dies."""
    if args.ext_degree is not None:
        if args.ext_degree < 1:
            raise InputError(f"--ext-degree must be >= 1, got {args.ext_degree}")
        return GF(p.gf.degree * args.ext_degree)
    j = quasi_split_over(p)[0] if quasi_split else 1
    return GF(p.gf.degree * math.lcm(splitting_degree(p), j))


def cmd_reflections(p: Pencil, args) -> dict:
    ext = _extension(p, args, quasi_split=False)
    refl = reflections(p, ext)
    return {
        "ext": field_info(ext),
        "reflections": [
            {
                "root": r.root,
                "singular_vector": r.singular_vector,
                "matrix": r.matrix,
            }
            for r in refl
        ],
        "match_idempotents": (
            reflections_match_idempotents(p, ext, refl)
            if p.half_discriminant()[p.n] != 0
            else None
        ),
    }


def cmd_generators(p: Pencil, args) -> dict:
    ext = _extension(p, args)
    gens = enumerate_generators(p, ext)
    return {
        "ext": field_info(ext),
        "count": len(gens),
        "generators": gens,
    }


def cmd_canonical_plane(p: Pencil, args) -> dict:
    cp = canonical_plane(p)
    return {"l0": cp.l0, "l1": cp.l1, "point_basis": cp.point_basis}


def cmd_arf(p: Pencil, args) -> dict:
    an = pair_algebra(p)
    data = arf_invariant(an)
    return _moved(an, {
        "arf": data.arf,
        "arf_class": data.arf_class,
        "matches_r": data.matches_r,
        "qa_w": data.qa_w,
        "qa_v": data.qa_v,
    })


def cmd_lattice(p: Pencil, args) -> dict:
    ext = _extension(p, args)
    refl = reflections(p, ext)
    lat = lattice_for(p, ext, refl)
    sign = (-1) ** (p.m - 1)
    # gram_alpha is a tuple of row tuples, and a tuple never equals a list
    expected = tuple(tuple(sign * x for x in row) for row in cartan_d(p.m))
    return {
        "ext": field_info(ext),
        "rank": lat.rank,
        "gram_e": lat.gram,
        "gram_alpha": lat.gram_alpha,
        "cartan_sign": sign,
        "is_signed_cartan_d": lat.gram_alpha == expected,
        "lam_empty_in_e": lat.lam_empty_in_e,
        "line_gram": lat.line_gram,
    }


def cmd_autx(p: Pencil, args) -> dict:
    ext = _extension(p, args)
    ax = aut_x(p, ext)
    return {
        "ext": field_info(ax.ext),
        "order": ax.order,
        "pair_autos": ax.pair_autos,
        "g_elements": ax.g_elements,
        "g_lifts": ax.g_lifts,
        "mult_table": ax.mult_table,
    }


SINGLE_DOC_COMMANDS = {
    "halfdisc": cmd_halfdisc,
    "regular": cmd_regular,
    "normalform": cmd_normalform,
    "rinv": cmd_rinv,
    "autos": cmd_autos,
    "reflections": cmd_reflections,
    "generators": cmd_generators,
    "canonical-plane": cmd_canonical_plane,
    "arf": cmd_arf,
    "lattice": cmd_lattice,
    "autx": cmd_autx,
}


def _read_json(path: str | None):
    """The document at path (stdin without one).  A file that cannot be
    opened, is not UTF-8, is not JSON or nests too deeply for the decoder
    is malformed input."""
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, ValueError) as e:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"cannot read document: {e}")
    except RecursionError:
        raise InputError("cannot read document: nested too deeply")


def _emit(payload: dict, code: int, args) -> int:
    """Write payload to --out, or to stdout without one, and return the
    exit code.  An --out that cannot be written goes to stdout instead.
    When the command itself failed (code != 0), its payload and exit code
    stand, with the write failure under "output_error", so that the
    command's own error is not hidden.  Otherwise the unwritable --out is
    malformed input: its error object, with exit 2."""
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(_dumps(payload))
            return code
        except OSError as e:
            message = f"cannot write output: {e}"
            if code:
                payload = {**payload, "output_error": message}
            else:
                payload, code = _error("input", message), 2
    sys.stdout.write(_dumps(payload))
    return code


def _dumps(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", the same
    bytes, written by _encode: each all-int list is one str.join.  A
    payload holding anything else that JSON encodes (floats, keys that
    are not strings) is handed to json.dumps whole."""
    out = []
    try:
        _encode(payload, "\n", out)
    except _NotEncoded:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


class _NotEncoded(Exception):
    """A value that _encode leaves to json.dumps."""


def _encode(value, newline: str, out: list) -> None:
    """Append the indented JSON of value to out, as json.dumps writes it
    with indent=2 and sorted keys; newline is a line break with the
    indent of value's own line."""
    kind = type(value)
    if kind is int:
        out.append(int.__repr__(value))
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == {int}:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
            return
        out.append("[")
        sep = inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        if set(map(type, value)) != {str}:
            raise _NotEncoded
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise _NotEncoded


def _error(kind: str, message, **info) -> dict:
    return {"error": {"type": kind, "message": str(message), **info}}


class _HelpRequested(Exception):
    """-h/--help: the usage text, to be printed as JSON."""


# the subcommands that take --ext-degree, and the option names of the
# single-document subcommands and isiso with the attributes they set
_EXT_COMMANDS = ("reflections", "generators", "lattice", "autx")
_DESTS = {"--in": "infile", "--out": "out", "--ext-degree": "ext_degree"}


@functools.cache
def build_parser():
    """The argparse parser of every command line, built on first use
    (argparse loads gettext and locale, which a well-formed call does not
    need; see _simple_args).  Its failures raise InputError: malformed
    argv gets the JSON error object and exit 2, as a malformed document
    does.  Help is laid out 80 columns wide whatever the terminal, and
    raised as _HelpRequested instead of printed."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            kwargs.setdefault("formatter_class",
                              functools.partial(argparse.HelpFormatter, width=80))
            super().__init__(**kwargs)

        def error(self, message):
            raise InputError(message)

        def print_help(self, file=None):
            raise _HelpRequested(self.format_help())

    ap = Parser(
        prog="qpencil",
        description="Exact classification of pencils of quadratic forms on "
        "odd-dimensional spaces in characteristic 2.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SINGLE_DOC_COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--in", dest="infile", default=None,
                        help="pencil document (default: stdin)")
        sp.add_argument("--out", dest="out", default=None)
        if name in _EXT_COMMANDS:
            sp.add_argument("--ext-degree", dest="ext_degree", type=int,
                            default=None,
                            help="relative extension degree (default: "
                            "smallest adequate field)")
    iso = sub.add_parser("isiso")
    iso.add_argument("first", help="first pencil document")
    iso.add_argument("second", help="second pencil document")
    iso.add_argument("--out", dest="out", default=None)
    ver = sub.add_parser("verify")
    ver.add_argument("--scale", choices=SCALES, default="small")
    ver.add_argument("--out", dest="out", default=None)
    return ap


def _simple_args(argv: list):
    """The namespace that build_parser() gives for a well-formed argv,
    read without it: COMMAND [--in P] [--out P] [--ext-degree N] for a
    single-document command (--ext-degree where it takes one), or
    isiso A B [--out P], options in any order and the last of a repeat
    winning.  None for anything else, for the parser to explain or
    refuse: verify, help, --opt=value, abbreviations, a value or
    positional starting with "-", a bad --ext-degree."""
    command, *rest = argv or ("",)
    if command == "isiso":
        ns = {"command": command, "out": None}
    elif command in SINGLE_DOC_COMMANDS:
        ns = {"command": command, "infile": None, "out": None}
        if command in _EXT_COMMANDS:
            ns["ext_degree"] = None
    else:
        return None
    positional = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            positional.append(token)
            continue
        # an option without a value reads "-", which the parser refuses
        dest, value = _DESTS.get(token), next(tokens, "-")
        if dest not in ns or value.startswith("-"):
            return None
        if dest == "ext_degree":
            try:
                value = int(value)
            except ValueError:
                return None
        ns[dest] = value
    if command == "isiso" and len(positional) == 2:
        ns["first"], ns["second"] = positional
    elif positional or command == "isiso":
        return None
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    args = None
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _simple_args(argv) or build_parser().parse_args(argv)
        payload, code = _run(args)
    except _HelpRequested as e:
        payload, code = {"help": str(e)}, 0
    except InputError as e:
        payload, code = _error("input", e), 2
    except NotRegularError as e:
        payload, code = _error("not-regular", e), 1
    except PreconditionError as e:
        payload, code = _error("precondition", e, info=getattr(e, "info", {})), 1
    except AssertionError as e:  # the package's certificates raise these
        payload, code = _error("internal", e), 3
    return _emit(payload, code, args)


def _run(args) -> tuple[dict, int]:
    """The payload and exit code of one parsed command line."""
    if args.command == "verify":
        from dataclasses import asdict

        from .verify import run_suite

        results = run_suite(args.scale)
        for res in results:
            print(res.line(), file=sys.stderr)
        payload = {
            "scale": args.scale,
            "results": [
                {**asdict(r), "seconds": round(r.seconds, 3)} for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        return payload, 0 if payload["all_passed"] else 1
    if args.command == "isiso":
        p1 = parse_pencil(_read_json(args.first))
        p2 = parse_pencil(_read_json(args.second))
        ok, witness = is_isomorphic(p1, p2)
        return {"isomorphic": ok, "witness": witness}, 0
    pencil = parse_pencil(_read_json(args.infile))
    return SINGLE_DOC_COMMANDS[args.command](pencil, args), 0


if __name__ == "__main__":
    sys.exit(main())
