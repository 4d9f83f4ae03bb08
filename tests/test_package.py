"""Package-level checks: the demos run clean and every export resolves."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import relpsi

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(relpsi.__path__, "relpsi."))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, src_env):
    # each demo asserts its own results, so exit 0 means they held
    proc = subprocess.run([sys.executable, str(demo)], env=src_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"


def test_package_imports_are_exports():
    # every name relpsi/__init__.py imports must be in its module's __all__
    tree = ast.parse(Path(relpsi.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"relpsi.{node.module}")
            for alias in node.names:
                assert alias.name in getattr(module, "__all__", ()), (
                    f"relpsi imports {alias.name!r}, which relpsi.{node.module} does not export"
                )
