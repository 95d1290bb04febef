"""Independent checks of CLI answers against the known construction.

Each check returns None when the answer is right and a one-line reason
when it is not.  All arithmetic is the benchmark's own (gf.py); the only
convention shared with the program is the documented one for extension
fields: the field given by the reported modulus, with the base field
embedded through the smallest root of its modulus.
"""

from __future__ import annotations

import json

import docs
import gf

# subcommands that refuse a non-regular pencil with exit 1 / not-regular
NEEDS_REGULAR = {"normalform", "rinv", "autos", "isiso", "reflections", "generators",
                 "canonical-plane", "arf", "lattice", "autx"}


class Checker:
    def __init__(self):
        self._ext = {}  # (k, degree, modulus) -> (field, embedding root)

    def check(self, case: docs.Case, code, text: str) -> str | None:
        try:
            out = json.loads(text)
        except ValueError:
            return f"{case.op}: output is not JSON (exit {code})"
        if not case.regular and case.op in NEEDS_REGULAR:
            if code == 1 and out.get("error", {}).get("type") == "not-regular":
                return None
            return f"{case.op}: non-regular input gave exit {code}, {str(out)[:80]}"
        if code != 0:
            return f"{case.op}: exit {code}, {str(out)[:120]}"
        try:
            return getattr(self, "_" + case.op.replace("-", "_"))(case, out)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as e:
            return f"{case.op}: malformed answer ({type(e).__name__}: {e})"

    # -- helpers ----------------------------------------------------------

    def _extension(self, case: docs.Case, ext: dict):
        """The reported extension field and the pencil mapped into it."""
        if ext["degree"] != case.ext_degree:
            raise ValueError(f"extension degree {ext['degree']}, expected {case.ext_degree}")
        key = (case.k, ext["degree"], ext["modulus"])
        if key not in self._ext:
            E = gf.Field(ext["degree"], ext["modulus"])
            self._ext[key] = (E, gf.embedding_root(case.docs[0].F, E))
        E, root = self._ext[key]
        p = case.docs[0]
        return E, gf.map_table(E, root, p.q0), gf.map_table(E, root, p.q1)

    @staticmethod
    def _preserves(F, q0, q1, g) -> bool:
        return gf.transform(F, q0, g) == q0 and gf.transform(F, q1, g) == q1

    # -- one method per subcommand -------------------------------------------

    def _halfdisc(self, case, out):
        if out["a"] != case.docs[0].a:
            return "halfdisc: Delta differs from the constructed one"
        return None

    def _regular(self, case, out):
        if out["a"] != case.docs[0].a or out["regular"] is not case.regular:
            return f"regular: got {out['regular']}, expected {case.regular}"
        return None

    def _normalform(self, case, out):
        p = case.docs[0]
        F, n = p.F, p.n
        if out["a"] != p.a or len(out["r"]) != n - 1:
            return "normalform: a differs from the constructed Delta"
        basis = out["basis"]
        if gf.rank(F, basis) != n:
            return "normalform: basis is singular"
        want0, want1 = docs.model(F, p.a, out["r"])
        if gf.transform(F, p.q0, basis) != want0 or gf.transform(F, p.q1, basis) != want1:
            return "normalform: basis does not give the Kronecker shape"
        return None

    def _rinv(self, case, out):
        p = case.docs[0]
        if out["f"] != p.a or len(out["r_coeffs"]) != p.n - 1:
            return "rinv: f differs from the constructed Delta"
        if case.r_zero and (out["trivial_class"] is not True or any(out["canonical_rep"])):
            return "rinv: the r-class of an r = 0 model is not trivial"
        return None

    def _arf(self, case, out):
        return None if out["matches_r"] is True else "arf: Arf class does not match r"

    def _autos(self, case, out):
        p = case.docs[0]
        order = 1 << (case.components - 1)
        mats = [e["matrix"] for e in out["elements"]]
        if out["components"] != case.components or out["order"] != order or len(mats) != order:
            return f"autos: order {out['order']}, expected {order}"
        if len({json.dumps(m) for m in mats}) != order:
            return "autos: repeated automorphism"
        if not all(self._preserves(p.F, p.q0, p.q1, g) for g in mats):
            return "autos: a matrix does not preserve (q0, q1)"
        return None

    def _isiso(self, case, out):
        if out["isomorphic"] is not case.iso:
            return f"isiso: verdict {out['isomorphic']}, expected {case.iso}"
        w = out["witness"]
        if not case.iso:
            return None if w is None else "isiso: witness for a non-isomorphic pair"
        first, second = case.docs
        F = first.F
        if gf.transform(F, second.q0, w) != first.q0 or gf.transform(F, second.q1, w) != first.q1:
            return "isiso: witness fails substitution"
        return None

    def _reflections(self, case, out):
        E, q0, q1 = self._extension(case, out["ext"])
        n = case.n
        mats = [r["matrix"] for r in out["reflections"]]
        if len(mats) != n:
            return f"reflections: {len(mats)} reflections, expected {n}"
        eye = gf.identity(n)
        prod = eye
        for g in mats:
            if not self._preserves(E, q0, q1, g):
                return "reflections: a matrix does not preserve (q0, q1)"
            if gf.mat_mul(E, g, g) != eye:
                return "reflections: a reflection is not an involution"
            prod = gf.mat_mul(E, prod, g)
        if prod != eye:
            return "reflections: the product of the reflections is not 1"
        want = True if case.docs[0].a[n] else None
        if out["match_idempotents"] is not want:
            return "reflections: reflections do not match the idempotents"
        return None

    def _generators(self, case, out):
        E, q0, q1 = self._extension(case, out["ext"])
        m = (case.n - 1) // 2
        gens = out["generators"]
        if out["count"] != 1 << (2 * m) or len(gens) != out["count"]:
            return f"generators: {len(gens)} generators, expected {1 << (2 * m)}"
        if len({json.dumps(g) for g in gens}) != len(gens):
            return "generators: repeated generator"
        for g in gens:
            if len(g) != m or gf.rank(E, g) != m:
                return "generators: a generator does not have dimension m"
            if not (gf.vanishes_on_span(E, q0, g) and gf.vanishes_on_span(E, q1, g)):
                return "generators: a generator is not totally singular"
        return None

    def _lattice(self, case, out):
        self._extension(case, out["ext"])
        m = (case.n - 1) // 2
        if out["is_signed_cartan_d"] is not True or out["rank"] != 2 * m + 2:
            return "lattice: root basis is not of type D_{2m+1}"
        return None

    def _canonical_plane(self, case, out):
        p = case.docs[0]
        F, m = p.F, (p.n - 1) // 2
        for i in range(m + 1):
            if F.mul(out["l0"][i], out["l0"][i]) != p.a[2 * i] or \
                    F.mul(out["l1"][i], out["l1"][i]) != p.a[2 * i + 1]:
                return "canonical-plane: l0, l1 are not the square roots of a"
        basis = out["point_basis"]
        if len(basis) != m - 1 or gf.rank(F, basis) != m - 1:
            return "canonical-plane: plane has the wrong dimension"
        if not (gf.vanishes_on_span(F, p.q0, basis) and gf.vanishes_on_span(F, p.q1, basis)):
            return "canonical-plane: plane is not on X"
        return None

    def _autx(self, case, out):
        E, q0, q1 = self._extension(case, out["ext"])
        pair = out["pair_autos"]
        if len(pair) != 1 << (case.n - 1):
            return f"autx: {len(pair)} pair automorphisms, expected {1 << (case.n - 1)}"
        if not all(self._preserves(E, q0, q1, g) for g in pair):
            return "autx: a pair automorphism does not preserve (q0, q1)"
        order = len(pair) * len(out["g_elements"])
        table = out["mult_table"]
        if out["order"] != order or len(table) != order or \
                any(len(row) != order for row in table):
            return f"autx: order {out['order']}, expected {order}"
        return None
