"""The package metadata points at things that exist, and importing the
package stays light."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_every_script_target_imports():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_readme_exists():
    assert (ROOT / _project()["readme"]).is_file()


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # every fresh interpreter that imports grflab would pay their import time
    # and memory, the set-up time and peak RSS of every perfbench workload
    code = ("import sys, grflab; print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'interpolate'], "
            "['scipy', 'sparse']))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []
