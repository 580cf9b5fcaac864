"""The public surface: the package imports, every module's ``__all__``
names only what the module has, and every name the benchmark's tracer
wraps exists."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import triggercraft

SRC = Path(triggercraft.__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(triggercraft.__path__))
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_the_package_imports_in_a_fresh_interpreter():
    # A fresh interpreter: the import order of the tests cannot hide an import cycle.
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", "import triggercraft"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"triggercraft.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [symbol for symbol in exported if not hasattr(module, symbol)] == []


def test_every_name_the_tracer_wraps_resolves():
    # perfbench/tracing.py wraps program names from outside; deleting one
    # breaks the benchmark, which tier-1 does not run.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("triggercraft.workbench")
    targets = tracing._targets(triggercraft)
    assert targets
    assert [(owner, attr) for owner, attr, *_ in targets if not hasattr(owner, attr)] == []


def _unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads, outside ``__future__`` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # The package __init__ imports names only to re-export them.
    tests = Path(__file__).resolve().parent
    paths = [p for p in sorted((SRC / "triggercraft").glob("*.py")) if p.name != "__init__.py"]
    assert [name for path in paths + sorted(tests.glob("*.py"))
            for name in _unread_imports(path)] == []
