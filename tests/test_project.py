"""The project metadata promises only what the package provides."""

import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module", ["core", "points", "pieces", "diagram", "corpus"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"alttree.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), name
