"""The benchmark's own tests: python3 -m pytest perfbench

Every workload runs in quick mode, traced and untraced, and must print
every metric BENCHMARK.json names with its unit; the checker must count a
front with one objective moved by one ulp as a failed operation; and the
benchmark must refuse to report anything when the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

from checks import fronts_digest  # noqa: E402
from tracing import NullTracer, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, WideDecode  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_mode_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = "\n".join(lines[:-1])
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert f"{m['name']} " in report and f" {m['unit']}\n" in report + "\n"
    assert "fronts_sha256 " in report


def test_one_ulp_perturbation_is_a_failed_operation(tmp_path):
    workload = WideDecode(seed=3, quick=True, workdir=tmp_path)
    contexts = workload.setup(NullTracer())
    outputs = [workload.collect(workload.run_pass(contexts, NullTracer(), k), k) for k in range(2)]
    clean = workload.check(contexts, outputs)
    assert clean.failed == 0 and clean.attempted == 2 * len(contexts)

    objectives, genes = outputs[0][0][1]
    bumped = list(objectives)
    bumped[0] = (float(np.nextafter(bumped[0][0], np.inf)),) + tuple(bumped[0][1:])
    outputs[0][0] = (fronts_digest([("", (bumped, genes))]), (bumped, genes))
    verdict = workload.check(contexts, outputs)
    # the perturbed front fails its own check, and pass 1 no longer matches it
    assert verdict.failed == 2
    assert verdict.failed / verdict.attempted > 0
    assert verdict.digest != clean.digest


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "table2", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(10) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert percentile(range(1, 101), 90) == 90
