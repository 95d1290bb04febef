"""Per-layer spans recorded from outside the package.

The benchmark wraps public functions of each qpencil module after import.
A function that another module pulled in with `from .x import f` is
replaced in that module's namespace too, so every call path goes through
the wrapper.  Two passes use two recorders:

- `Spans` times each listed function.  Self time is a span's duration
  minus the time covered by the spans it called; total time counts only
  the outermost active span of each name, so recursion is not counted
  twice.
- `Counts` only counts calls of the field arithmetic, which runs millions
  of times; timing it would inflate every self time above it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute path), and the workloads on which the span
# must fire; an empty tuple means it is reported but not required
SPANS = [
    ("cli.main", "cli", "main", ("cli-cold", "classify-wide", "big-field")),
    ("cli.parse_pencil", "cli", "parse_pencil", ("cli-cold",)),
    ("field.Field.init", "field", "Field.__init__", ("cli-cold",)),
    ("field.find_embedding", "field", "find_embedding", ("cli-cold",)),
    ("linalg.rref", "linalg", "rref", ("classify-wide", "big-field")),
    ("linalg.solve", "linalg", "solve", ("classify-wide", "big-field")),
    ("linalg.nullspace", "linalg", "nullspace", ()),
    ("linalg.inverse", "linalg", "inverse", ("classify-wide", "big-field")),
    ("linalg.mat_mul", "linalg", "mat_mul", ("classify-wide", "big-field")),
    ("poly.roots", "poly", "roots", ("cli-cold",)),
    ("poly.bf_projective_roots", "poly", "bf_projective_roots", ("cli-cold",)),
    ("poly.factor", "poly", "factor", ("classify-wide", "big-field")),
    ("poly.bf_is_separable", "poly", "bf_is_separable", ("classify-wide", "big-field")),
    ("pencil.Pencil.radical_map", "pencil", "Pencil.radical_map", ("classify-wide",)),
    ("pencil.Pencil.half_discriminant", "pencil", "Pencil.half_discriminant", ("classify-wide",)),
    ("pencil.Pencil.ensure_an_nonzero", "pencil", "Pencil.ensure_an_nonzero", ("classify-wide",)),
    ("normalform.extract_normal_form", "normalform", "extract_normal_form",
     ("cli-cold", "classify-wide", "big-field")),
    ("normalform.realize", "normalform", "realize", ("classify-wide", "big-field")),
    ("quadform.QuadraticForm.transform", "quadform", "QuadraticForm.transform",
     ("classify-wide", "big-field")),
    ("algebra.EtaleAlgebra.solve_artin_schreier", "algebra", "EtaleAlgebra.solve_artin_schreier",
     ("classify-wide", "big-field")),
    ("algebra.EtaleAlgebra.coset_reduce", "algebra", "EtaleAlgebra.coset_reduce",
     ("classify-wide", "big-field")),
    ("invariants.r_invariant", "invariants", "r_invariant", ("classify-wide", "big-field")),
    ("invariants.is_isomorphic", "invariants", "is_isomorphic", ("classify-wide", "big-field")),
    ("invariants.arf_invariant", "invariants", "arf_invariant", ("classify-wide", "big-field")),
    ("autos.automorphism_group", "autos", "automorphism_group", ("cli-cold",)),
    ("autos.pair_algebra", "autos", "pair_algebra", ("cli-cold",)),
    ("autos.reflections", "autos", "reflections", ("cli-cold",)),
    ("autos.delta_stabilizer", "autos", "delta_stabilizer", ("cli-cold",)),
    ("autos.aut_x", "autos", "aut_x", ("cli-cold",)),
    ("geometry.splitting_degree", "geometry", "splitting_degree", ("cli-cold",)),
    ("geometry.quasi_split_over", "geometry", "quasi_split_over", ("cli-cold",)),
    ("geometry.canonical_plane", "geometry", "canonical_plane", ("cli-cold",)),
    ("geometry.enumerate_generators", "geometry", "enumerate_generators", ("cli-cold",)),
    ("lattice.lattice_for", "lattice", "lattice_for", ("cli-cold",)),
]

# counted in the counting pass: (metric name, attribute of field.Field)
COUNTED = [
    ("field.Field.mul.calls", "mul"),
    ("field.Field.inv.calls", "inv"),
    ("field.Field.pow.calls", "pow"),
    ("field.Field.sqrt.calls", "sqrt"),
]
REQUIRED_COUNTS = {"field.Field.mul.calls": ("cli-cold", "classify-wide", "big-field")}


def _replace(mod_name: str, path: str, make):
    """Swap the object at `path` in qpencil.<mod_name> for make(original),
    in every qpencil module that holds the same object."""
    mod = importlib.import_module("qpencil." + mod_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    original = owner.__dict__[attr] if owner_name else getattr(mod, attr)
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if not owner_name:
        for name, other in list(sys.modules.items()):
            if name.startswith("qpencil.") and other is not mod:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)


class Spans:
    """Calls, total and self time per span name."""

    def __init__(self):
        self.calls = {name: 0 for name, *_ in SPANS}
        self.total = {name: 0.0 for name, *_ in SPANS}
        self.self_time = {name: 0.0 for name, *_ in SPANS}
        self.radical_maps_computed = 0
        self.pgl2_yielded = 0
        self.stabilizer_kept = 0
        self._stack = []  # [name, child seconds]
        self._depth = {name: 0 for name, *_ in SPANS}

    def _wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dt - frame[1]
                if depth[name] == 0:
                    self.total[name] += dt
                if stack:
                    stack[-1][1] += dt

        return span

    def install(self):
        for name, mod, path, _ in SPANS:
            _replace(mod, path, functools.partial(self._wrap, name))
        self._install_counters()

    def _install_counters(self):
        def radical_map(fn):
            @functools.wraps(fn)
            def wrapper(pencil):
                if pencil._radical_map is None:
                    self.radical_maps_computed += 1
                return fn(pencil)
            return wrapper

        def pgl2(fn):
            @functools.wraps(fn)
            def wrapper(gf):
                out = fn(gf)
                self.pgl2_yielded += len(out)
                return out
            return wrapper

        def stabilizer(fn):
            @functools.wraps(fn)
            def wrapper(*args):
                out = fn(*args)
                self.stabilizer_kept += len(out)
                return out
            return wrapper

        _replace("pencil", "Pencil.radical_map", radical_map)
        _replace("autos", "pgl2_elements", pgl2)
        _replace("autos", "delta_stabilizer", stabilizer)

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "radical_maps_computed": self.radical_maps_computed,
            "pgl2_yielded": self.pgl2_yielded,
            "stabilizer_kept": self.stabilizer_kept,
        }


class Counts:
    """Call counts of the field arithmetic, without timing."""

    def __init__(self):
        self.counts = {name: 0 for name, _ in COUNTED}

    def install(self):
        for name, attr in COUNTED:
            _replace("field", "Field." + attr, functools.partial(self._wrap, name))

    def _wrap(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def report(self) -> dict:
        return {"counts": self.counts}
