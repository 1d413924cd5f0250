"""Cross-commit golden result tree.

tests/fixtures/golden/ holds a small experiment config (default clusterer
order), tree.sha256 with the SHA-256 of every file its `fairsched run`
tree contained when the fixture was written, and one run record from that
tree. A change that alters any RNG stream, float operation order or output
format changes a hash here; regenerate the manifest only together with a
declared, versioned change of results.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from fairsched.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


@pytest.fixture(scope="module")
def golden_tree(tmp_path_factory) -> Path:
    """The golden config run from a fresh directory, as `run` resolves the
    config's relative output_dir against the working directory."""
    workdir = tmp_path_factory.mktemp("golden")
    shutil.copy(GOLDEN / "config.json", workdir / "config.json")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        assert main(["run", "--config", "config.json", "--quiet"]) == 0
    return workdir / "results"


def test_run_reproduces_golden_manifest(golden_tree):
    expected = {}
    for line in (GOLDEN / "tree.sha256").read_text().splitlines():
        digest, rel = line.split(maxsplit=1)
        expected[rel] = digest
    actual = {
        p.relative_to(golden_tree).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(golden_tree.rglob("*"))
        if p.is_file()
    }
    assert sorted(actual) == sorted(expected)
    assert [rel for rel in expected if actual[rel] != expected[rel]] == []


def test_eval_reproduces_metrics_of_default_order_tree(golden_tree, tmp_path):
    assert main(["eval", "--runs", str(golden_tree / "runs"), "--out", str(tmp_path), "--quiet"]) == 0
    metrics = golden_tree / "metrics"
    names = sorted(p.name for p in metrics.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    assert [n for n in names if (metrics / n).read_bytes() != (tmp_path / n).read_bytes()] == []


def test_golden_record_replays(capsys):
    assert main(["replay", "--record", str(GOLDEN / "d2_mdnc_rep01.json"), "--quiet"]) == 0
    assert "front matches the stored record" in capsys.readouterr().out
