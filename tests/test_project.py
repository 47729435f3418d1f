"""The project metadata promises only what the package provides."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
MODULES = ["core", "points", "pieces", "diagram", "corpus"]


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"alttree.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_package_needs_no_numpy():
    # Every module imports in a fresh interpreter without loading numpy, and
    # the project does not list it as a dependency.
    imports = "; ".join(f"import alttree.{m}" for m in MODULES)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {imports}; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        deps = tomllib.load(f)["project"].get("dependencies", [])
    assert not [dep for dep in deps if dep.lower().startswith("numpy")]
