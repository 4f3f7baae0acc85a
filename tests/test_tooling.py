"""Repository hygiene checks that need only the standard library."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import fpplab

PACKAGE = Path(fpplab.__file__).resolve().parent


def _unused_module_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    unused = [hit for path in sorted(PACKAGE.glob("*.py"))
              for hit in _unused_module_imports(path)]
    assert unused == []


def _constant_field_isinstance_calls(path):
    tree = ast.parse(path.read_text())
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if "ConstantField" in names:
                hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_only_model_asks_whether_sigma_is_constant():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
            for hit in _constant_field_isinstance_calls(path)]
    assert hits == []
    assert _constant_field_isinstance_calls(PACKAGE / "model.py") != []


def test_importing_the_cli_does_not_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fpplab.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
