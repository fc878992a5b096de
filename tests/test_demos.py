"""Smoke test: the quick demos and README's quick start run against the current API."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("demo", ["01_channel_walkthrough.py", "02_guided_scrambling.py",
                                  "04_analytic_bounds.py", "05_rate_sweep.py"])
def test_demo_runs(demo):
    proc = run_python([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(demo):
    """Every ``from sneakpath... import name`` in a demo names something that exists, checked
    from the source without running it: a slow demo is not run by this suite."""
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "sneakpath":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    try:  # a submodule, as in ``from sneakpath import mlp``
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{node.module}.{alias.name}")
    assert missing == []


def test_readme_quick_start_runs():
    """README's first ```python block, run as written, so the doc cannot drift from the API."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr
