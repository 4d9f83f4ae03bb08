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
    # every name relpsi/__init__.py imports or serves lazily must be in its module's __all__
    tree = ast.parse(Path(relpsi.__file__).read_text())
    names = [(alias.name, node.module) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert names
    for name, module in names + list(relpsi._LAZY.items()):
        assert name in getattr(importlib.import_module(f"relpsi.{module}"), "__all__", ()), (
            f"relpsi exports {name!r}, which relpsi.{module} does not export"
        )


def test_package_names_resolve_and_are_listed():
    assert set(relpsi._LAZY) <= set(relpsi.__all__) <= set(dir(relpsi))
    for name in relpsi.__all__:
        assert getattr(relpsi, name) is not None
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        relpsi.no_such_name


def test_lazy_names_follow_their_module(monkeypatch):
    # looked up on every access, so a module attribute swapped and restored
    # (as perfbench's tracer does) shows through the package and the CLI
    from relpsi import cli, order_sums

    original = order_sums.psi_relative
    monkeypatch.setattr(order_sums, "psi_relative", lambda G, H: 0)
    assert relpsi.psi_relative is cli.psi_relative is order_sums.psi_relative is not original
    monkeypatch.undo()
    assert relpsi.psi_relative is cli.psi_relative is original


def test_closed_forms_load_no_numpy(src_env):
    # a fresh process, since this one has numpy loaded already
    code = """if True:
        import sys
        import relpsi
        import relpsi.budget
        assert "numpy" not in sys.modules, sorted(sys.modules)
        from relpsi.cli import main
        assert main(["psi-cyclic", "1001"]) == 0
        assert main(["frobenius", "--r", "5"]) == 0
        assert "numpy" not in sys.modules, sorted(sys.modules)
        assert "dataclasses" not in sys.modules, sorted(sys.modules)
        assert main(["psi-cyclic", "1001", "--brute-force"]) == 0
        assert main(["scan", "--max-order", "8"]) == 0
        assert "numpy" in sys.modules
    """
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# perfbench's tracer test reads `verify.psi_relative`, which verify itself
# no longer calls; the entry stays until that test stops reading it
UNUSED_IMPORTS_ALLOWED = {("relpsi.verify", "psi_relative")}


@pytest.mark.parametrize("name", ["relpsi", *MODULES])
def test_every_import_is_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert {(name, n) for n in unused} <= UNUSED_IMPORTS_ALLOWED, f"{name} imports unused {unused}"
