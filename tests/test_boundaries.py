"""Module boundaries of the package, read from its source with `ast`.

- `verify` holds the harness and the package's brute-force oracles.  No
  production module imports it, and `cli` imports it only inside the
  function that runs the `verify` subcommand.  A cold CLI call loads
  neither `dataclasses` (with `inspect`), `fractions` nor `argparse`
  (with `gettext` and `locale`), and builds GF(2^16) on the wide kernel,
  which has no tables of elements.
- An oracle in `verify` reads only the production names in ALLOWED, so it
  stays independent of the paths it checks: Delta, its roots, the radical
  map, the Pfaffian vector and the regularity criterion are left out.  A
  reference in `tests/oracles.py` (code the package replaced) reads only
  the names in its REFERENCES entry, never the function that replaced it.
- Every public top-level function of the package is used somewhere in
  `src/` or `scripts/` outside its own definition: API that only its own
  unit tests call is deleted.  The same holds for the methods, properties
  and record fields (the annotated names of the class body) of its public
  classes, matched by attribute name: a method's own body and a field's
  reads inside the function that builds the record do not count.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qpencil"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

# the oracles of verify; the trace oracle is algebra_trace with the
# projection built on it
ORACLES = (
    "smoothness_oracle",
    "_singular_among",
    "points_on_X",
    "brute_force_lines",
    "pulls_back",
    "gl_elements",
    "all_forms",
    "algebra_trace",
    "trace_projection",
)

# the production names (modules, classes, functions, methods and
# properties, matched by name) that the oracles may use: fields and
# embeddings, the forms and their coefficients, plain linear algebra, and
# the algebra's multiplication and the inverse behind 1/f'
ALLOWED = {
    "poly", "GF", "Field", "find_embedding", "degree", "order", "elements",
    "mul", "mat_mul", "Pencil", "over", "n", "m", "QuadraticForm",
    "from_table", "polar", "add", "PreconditionError",
    "nullspace", "normalize_subspace", "EtaleAlgebra", "t_power",
    "from_poly", "monic_f", "inverse_mod", "derivative",
}

# what the oracles check, and so may not use
FORBIDDEN = {
    "half_discriminant", "bf_projective_roots", "radical_map",
    "pfaffian_vector", "radical_elimination", "is_regular",
}

# code the package replaced, kept in tests/oracles.py to compare against,
# and the scalar loops that check the packed paths: each reference, the
# function that replaced it or that it checks (which it may not use) and
# the production names it reads
REFERENCES = {
    "quasi_split_by_scan": ("quasi_split_over", {
        "pair_algebra", "splitting_degree", "require_regular", "GF", "degree",
        "over", "PreconditionError", "witness",
    }),
    # image.add is a set's, matched by name
    "stabilizer_by_scan": ("delta_stabilizer", {
        "pgl2_elements", "_projective_key", "over", "projective_roots", "n",
        "mul", "add", "PreconditionError",
    }),
    "aut_x_table_by_products": ("aut_x", {"mat_mul", "_projective_key"}),
    "default_modulus_by_search": ("default_modulus", {"p2_is_irreducible"}),
    "rref_by_loop": ("rref", {"mul", "inv"}),
    "nullspace_by_loop": ("nullspace", {"mul", "inv"}),
    "inverse_by_loop": ("inverse", {"mul", "inv"}),
    "divmod_by_loop": ("divmod_", {"mul", "inv"}),
    "square_mod_by_loop": ("square_mod", {"mul", "inv"}),
    "pfaffian_vector_fraction_free": ("pfaffian_vector", {"mul", "pow", "inv"}),
    "kronecker_completion_full_system": ("complete_kronecker", {
        "m", "polar", "mat_mul", "solve", "transpose", "_vv_correction",
    }),
    "proportional_by_scaling": ("_proportional", {"vec_scale", "div"}),
    "coset_by_dense_bits": ("coset_reduce", {"degree", "n", "element", "add", "mul"}),
    "sqrt_by_bits": ("sqrt", {"pow", "order", "mul", "degree"}),
    "transform_by_definition": ("transform", {"QuadraticForm", "from_table"}),
    "idempotents_by_extended_gcd": ("idempotents", {
        "poly", "divexact", "divmod_", "add", "mul", "inv", "vec_scale", "factors",
        "from_poly", "monic_f",
    }),
    "factor_by_squarings": ("factor", {
        "poly", "_seed_from", "monic", "square_table", "square_mod", "gcd", "add",
        "divexact", "degree", "trim", "order",
    }),
}


def _imports_verify(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        source = "." * node.level + (node.module or "")
        if source in (".verify", "qpencil.verify"):
            return True
        return source in (".", "qpencil") and any(a.name == "verify" for a in node.names)
    if isinstance(node, ast.Import):
        return any(a.name == "qpencil.verify" for a in node.names)
    return False


def _production_names() -> set:
    names = set()
    for module, tree in TREES.items():
        if module in ("verify", "__init__", "__main__"):
            continue
        names.add(module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {sub.name for sub in node.body
                          if isinstance(sub, ast.FunctionDef)
                          and not sub.name.startswith("__")}
    return names


def _used_names(name: str, functions: dict, seen: set) -> set:
    """The names function `name` of verify reads, through the other
    functions of verify that it calls; its own parameters and local
    variables are left out."""
    if name in seen:
        return set()
    seen.add(name)
    func = functions[name]
    local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
    local |= {node.id for node in ast.walk(func)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    used = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in functions:
            used |= _used_names(node.id, functions, seen)
        elif isinstance(node, ast.Name) and node.id not in local:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_no_production_module_imports_verify():
    offenders = [module for module, tree in TREES.items()
                 if module not in ("cli", "verify")
                 and any(_imports_verify(node) for node in ast.walk(tree))]
    assert offenders == []


def test_cli_imports_verify_only_inside_the_verify_branch():
    tree = TREES["cli"]
    module_level = [node for node in tree.body if _imports_verify(node)]
    assert module_level == []
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_run")
    assert any(_imports_verify(node) for node in ast.walk(run))
    everywhere = sum(_imports_verify(node) for node in ast.walk(tree))
    assert everywhere == 1


def test_importing_cli_does_not_load_verify():
    code = "import sys, qpencil.cli; print('qpencil.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_cold_call_loads_only_what_it_uses():
    # `python -m qpencil halfdisc` after importing the CLI: dataclasses
    # (which loads inspect), fractions and argparse (which loads gettext
    # and locale) are never imported, and GF(2^16) is built on the wide
    # kernel, without the byte kernel's tables
    doc = ROOT / "tests" / "golden" / "docs" / "g8_n5_113.json"
    code = (
        "import json, runpy, sys\n"
        "import qpencil.cli\n"
        f"sys.argv = ['qpencil', 'halfdisc', '--in', {str(doc)!r}]\n"
        "try:\n"
        "    runpy.run_module('qpencil', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    exit_code = stop.code\n"
        "from qpencil.field import GF\n"
        "loaded = sorted({'dataclasses', 'inspect', 'fractions', 'argparse', 'gettext',\n"
        "                 'locale'} & set(sys.modules))\n"
        "print(json.dumps([exit_code, loaded, GF(16)._rows is None]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, [], True]


def test_oracles_use_only_allowed_production_names():
    production = _production_names()
    assert FORBIDDEN <= production
    assert not FORBIDDEN & ALLOWED
    assert ALLOWED <= production
    functions = {node.name: node for node in TREES["verify"].body
                 if isinstance(node, ast.FunctionDef)}
    outside = {}
    for oracle in ORACLES:
        used = _used_names(oracle, functions, set()) & production
        if used - ALLOWED:
            outside[oracle] = sorted(used - ALLOWED)
    assert outside == {}


def test_references_use_only_their_allowed_production_names():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    production = _production_names()
    for name, (replacement, allowed) in REFERENCES.items():
        used = _used_names(name, functions, set()) & production
        assert allowed <= production and replacement not in allowed
        assert used == allowed, name


def _bindings(tree, module: str, own: bool) -> tuple[dict, set]:
    """The local names in tree bound to public functions of qpencil.<module>
    (local name -> function name), and those bound to the module itself."""
    bare = {node.name: node.name for node in TREES[module].body if own
            and isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    holders = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if source in ("." + module, "qpencil." + module):
                    bare[alias.asname or alias.name] = alias.name
                if source in (".", "qpencil") and alias.name == module:
                    holders.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            holders |= {a.asname for a in node.names
                        if a.name == "qpencil." + module and a.asname}
    return bare, holders


def _reads(tree) -> list:
    """(identifier, the name it is an attribute of or None, the top-level
    statement holding it) for each name read and each attribute of a name."""
    out = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((node.id, None, stmt))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                out.append((node.attr, node.value.id, stmt))
    return out


def _src_and_scripts() -> dict:
    files = dict(TREES)
    files.update({"scripts/" + path.name: ast.parse(path.read_text())
                  for path in sorted((ROOT / "scripts").glob("*.py"))})
    return files


def test_every_public_function_is_used_in_src_or_scripts():
    used = set()
    for key, tree in _src_and_scripts().items():
        reads = _reads(tree)
        for module in TREES:
            bare, holders = _bindings(tree, module, own=key == module)
            for ident, holder, stmt in reads:
                name = bare.get(ident) if holder is None else (
                    ident if holder in holders else None)
                # a function's own body does not count as a use of it
                if name and not (key == module and getattr(stmt, "name", None) == name):
                    used.add((module, name))
    unused = [f"{module}.{node.name}" for module, tree in TREES.items()
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and (module, node.name) not in used]
    assert unused == []


def _public_members() -> dict:
    """(module, class, name) -> the method's definition, or None for a
    record field (an annotated name), over the public classes of the package."""
    out = {}
    for module, tree in TREES.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for sub in cls.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    out[(module, cls.name, sub.name)] = sub
                elif (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                      and not sub.target.id.startswith("_")):
                    out[(module, cls.name, sub.target.id)] = None
    return out


def _module_names(tree) -> set:
    """The names tree binds to modules by its imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (
                "." * node.level + (node.module or "")) in (".", "qpencil"):
            out |= {a.asname or a.name for a in node.names if a.name in TREES}
    return out


def _attribute_reads(node, modules: set, around=()):
    """(attribute name, the enclosing function and class definitions) for
    each attribute read below node, except the attributes of the names in
    modules: poly.mul is the module's function, not a method named mul."""
    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)):
        yield node.attr, around
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        around = around + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _attribute_reads(child, modules, around)


def _called_names(func) -> set:
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(func) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_every_public_member_is_read_in_src_or_scripts():
    members = _public_members()
    by_name = {}
    for key in members:
        by_name.setdefault(key[2], []).append(key)
    used = set()
    for tree in _src_and_scripts().values():
        for name, around in _attribute_reads(tree, _module_names(tree)):
            for key in by_name.get(name, ()):
                method = members[key]
                if method is None:
                    if any(isinstance(f, ast.FunctionDef) and key[1] in _called_names(f)
                           for f in around):
                        continue  # read by the function that builds the record
                elif method in around:
                    continue  # a method's own body
                used.add(key)
    unused = [".".join(key) for key in members if key not in used]
    assert unused == []
