"""Every demo script runs to completion against the package as installed from ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


def run_demo(demo, cwd):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    assert run_demo(demo, tmp_path).stdout.strip()


def test_nine_vertex_demo_matches_spec(tmp_path):
    proc = run_demo(ROOT / "demos" / "nine_vertex_walkthrough.py", tmp_path)
    assert "merge spec equals pipeline: True" in proc.stdout.splitlines()
