"""The benchmark under perfbench/ is not collected by this suite, so these
tests check that every t3s name it imports still resolves, and that each of
its workloads still runs and passes its own checks at tiny sizes."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import t3s

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _t3s_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) for every `from t3s[...] import name` under perfbench/."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "t3s" or node.module.startswith("t3s."):
                    found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_benchmark_t3s_imports_resolve():
    imports = _t3s_imports()
    assert imports, f"no t3s imports found under {PERFBENCH}"
    missing = [
        f"{path}: from {module} import {name}"
        for path, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_patched_layer_norm_exists():
    # the benchmark replaces this module global to count layer-norm calls
    from t3s import toymodel

    assert callable(toymodel.layer_norm)


@pytest.fixture(scope="module")
def bench():
    """perfbench's `workloads` and `spans` modules, imported with this
    process's t3s and without writing bytecode under perfbench/."""
    src = str(Path(t3s.__file__).resolve().parents[1])
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path[:0] = [src, str(PERFBENCH)]
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads"), importlib.import_module("spans")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
        for name in ("workloads", "spans"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_workloads_run_and_check_at_tiny_sizes(bench, traced):
    # what each workload reads of t3s, down to attributes: prepare, one op
    # and one reference op with its correctness checks on; `finish` is left
    # out, as its coverage_report call takes most of a second
    workloads, spans = bench
    for name, workload in workloads.WORKLOADS.items():
        tracer = spans.Tracer() if traced else spans.NULL
        w = workload(0, workloads.TINY_SIZES[name])
        inputs = w.prepare(0, tracer)
        assert w.op(inputs, 0, tracer, True) > 0.0
        assert w.ref(inputs, 0, tracer, True) > 0.0
        assert w.op_pass is not None and w.base_pass is not None
        assert tracer.enabled == traced
