"""The benchmark under perfbench/ is not collected by this suite, so these
tests check that every t3s name it imports still resolves."""

import ast
import importlib
from pathlib import Path

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
