"""The benchmark's view of the package.

Every function the traced benchmark wraps, and every ``nclift`` name its
workloads call, must still resolve, and every call the workloads make must
still bind to its signature; a rename or a dropped parameter then fails here
in well under a second instead of in the benchmark's own minutes-long
subprocess suite.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _workload_modules(tree):
    return {alias.asname or alias.name: importlib.import_module(f"nclift.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "nclift"
            for alias in node.names}


def test_workload_names_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = _workload_modules(tree)
    assert modules
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used if not hasattr(modules[mod], attr))
    assert missing == []


def test_workload_calls_bind():
    """Each call of an ``nclift`` attribute in the workloads, made directly or
    through ``_attempt(fn, *args, **kwargs)``, binds to the function's
    signature with as many positional and the same keyword arguments."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = _workload_modules(tree)
    checked = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "_attempt" and args:
            func, args = args[0], args[1:]
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            continue
        shape = ast.unparse(node)
        assert not any(isinstance(a, ast.Starred) for a in args), shape
        assert all(kw.arg is not None for kw in node.keywords), shape
        fn = getattr(modules[func.value.id], func.attr)
        try:
            inspect.signature(fn).bind(*[None] * len(args),
                                       **dict.fromkeys(kw.arg for kw in node.keywords))
        except TypeError as exc:
            raise AssertionError(f"{shape}: {exc}") from None
        checked.append(shape)
    assert len(checked) >= 10, checked
