"""The package metadata points at things that exist."""

import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_every_script_target_imports():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_readme_exists():
    assert (ROOT / _project()["readme"]).is_file()
