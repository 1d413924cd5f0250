from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), flags=re.M | re.S)


def test_demo_list_includes_metrics_demo():
    assert "04_metrics.py" in [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_experiment_demo_runs_under_spawn(tmp_path):
    """A spawned worker imports the demo again: its body must be guarded."""
    demo = next(d for d in DEMOS if d.name == "05_experiment.py")
    code = (
        "import multiprocessing, runpy, sys\n"
        "multiprocessing.set_start_method('spawn')\n"
        "runpy.run_path(sys.argv[1], run_name='__main__')\n"
    )
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "reproduces: True" in proc.stdout
