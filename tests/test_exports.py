"""The public surface: the package imports, and every module's ``__all__``
names only what the module has."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import triggercraft

SRC = Path(triggercraft.__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(triggercraft.__path__))


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
