"""Fuzzing of stored run records: every mutated record either loads or is
refused with a FormatError that names the file."""

from __future__ import annotations

import json

import pytest
from fuzzing import mutated_text
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsched.cli import main
from fairsched.experiment import RunRecord, load_record
from fairsched.io import FormatError


@pytest.fixture(scope="module")
def record_doc(tmp_path_factory):
    """The record of a one-dataset run, as a JSON document."""
    root = tmp_path_factory.mktemp("fuzz")
    config = {
        "datasets": [{"name": "t", "n_workflows": 2, "task_count_range": [3, 4], "ccr": 0.5, "parallelism_degree": 0.5}],
        "clusterers": ["none"],
        "optimizer": {"population": 6, "generations": 2, "divisions": 6},
        "repetitions": 1,
        "seed": 1,
        "output_dir": str(root / "results"),
    }
    (root / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(root / "config.json"), "--quiet"]) == 0
    path = root / "results" / "runs" / "t" / "none" / "rep00.json"
    return root, json.loads(path.read_text())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_record_loads_or_raises_format_error(record_doc, data):
    root, doc = record_doc
    target = root / "rep00.json"
    target.write_text(mutated_text(data, doc))
    try:
        record = load_record(target)
    except FormatError as exc:
        assert str(exc).startswith(str(target)), exc
    else:
        assert isinstance(record, RunRecord)

