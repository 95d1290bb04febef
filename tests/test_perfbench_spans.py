"""Every function the benchmark's traced run wraps (perfbench/tracing.py)
must exist in qpencil, or the traced run breaks on a rename."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


def _resolve(module: str, path: str):
    obj = importlib.import_module("qpencil." + module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_span_target_resolves():
    targets = [(mod, path) for _, mod, path, _ in tracing.SPANS]
    targets += [("field", "Field." + attr) for _, attr in tracing.COUNTED]
    # wrapped by Spans._install_counters
    targets += [("pencil", "Pencil.radical_map"), ("autos", "pgl2_elements"),
                ("autos", "delta_stabilizer")]
    missing = []
    for mod, path in targets:
        try:
            assert callable(_resolve(mod, path))
        except (ImportError, AttributeError, AssertionError):
            missing.append(f"{mod}.{path}")
    assert not missing, missing


def test_radical_map_cache_attribute_exists(g2):
    # the radical-map counter reads Pencil._radical_map
    from qpencil.normalform import realize

    p = realize(g2, [0, 1, 1, 1], [0, 0])
    assert p._radical_map is None
    p.radical_map()
    assert p._radical_map is not None
