"""Every narrative script under demos/ runs to completion, and the
README's library tour names only what the package has."""

import glob
import importlib
import os
import re
import subprocess
import sys

import pytest

import detindex

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_present():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, path], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_names_resolve():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        rows = re.findall(r"^\| `detindex\.(\w+)` \|(.*)\|$", fh.read(), re.M)
    assert len(rows) >= 6
    for module_name, contents in rows:
        module = importlib.import_module("detindex." + module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            assert hasattr(module, name), (module_name, name)
    for name in detindex.__all__:
        assert hasattr(detindex, name), name
