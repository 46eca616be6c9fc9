"""The demos in demos/ run against the package as it is, so that an API
rename cannot break one unnoticed. The quick demos are run; the filter
count ablation (tens of seconds) only has its gwmixer imports checked."""

import ast
import os
import subprocess
import sys

import pytest

import gwmixer

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("name", ["filter_responses", "dependency_graphs", "train_copy_task"])
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, f"{name}.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_ablation_demo_imports_are_exported():
    with open(os.path.join(DEMOS, "filter_count_ablation.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "gwmixer"
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(gwmixer, n)] == []
