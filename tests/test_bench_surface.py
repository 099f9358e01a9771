"""The benchmark's view of the package.

Every function the traced benchmark wraps, and every ``nclift`` name its
workloads call, must still resolve; a rename then fails here in well under a
second instead of in the benchmark's own minutes-long subprocess suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    for prefix, mod_name, path, _ in _load_tracing().TARGETS:
        owner = importlib.import_module(f"nclift.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer patches owner.__dict__[attr], so it must be held right there
        assert callable(vars(owner).get(attr)), prefix


def test_workload_names_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"nclift.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "nclift"
               for alias in node.names}
    assert modules
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used if not hasattr(modules[mod], attr))
    assert missing == []
