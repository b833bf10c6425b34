"""The benchmark's tracer reads the package by name: those names must resolve."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# Tables of bench/tracing.py that are read by a traced name.
TABLES = {"calls", "self_by_name", "info_sum", "errors"}
# The traced names that no longer resolve: the functions were renamed or
# folded into others, so their per-layer metrics read 0 (ROADMAP item 1b).
STALE = {"wave.wave_params", "wave.fd_dk", "linop.fourier_diff_matrix", "evolve._rk4_step"}


def traced_names() -> set[str]:
    """Every literal name ``layer.attr[.attr]`` that bench/tracing.py looks up
    in its tables or keys ``_INFO`` with, but the numpy kernels."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        keys = []
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in TABLES:
            key = node.slice
            keys = [key.elts[0] if isinstance(key, ast.Tuple) else key]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) \
                and any(getattr(t, "id", None) == "_INFO" for t in node.targets):
            keys = node.value.keys
        names.update(key.value for key in keys
                     if isinstance(key, ast.Constant) and isinstance(key.value, str))
    return {name for name in names if not name.startswith("kernel.")}


def resolves(name: str) -> bool:
    layer, *path = name.split(".")
    obj = importlib.import_module(f"mchwave.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_traced_names_resolve():
    names = traced_names()
    assert {"elliptic.complete_k_e", "wave.profile", "wave.validity",
            "evolve._RhsOperator.__call__", "cli.write_json"} <= names
    assert {name for name in names if not resolves(name)} == STALE
