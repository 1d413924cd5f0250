"""Fuzzing of the documents a user writes: native JSON datasets, resource
files and experiment configs. Every mutated document either loads (and a
config validates) or is refused with a FormatError or ConfigError, and then
`fairsched run` and `fairsched eval` exit 2 without a traceback.

A config that loads and validates may still ask for a run of any size, so
no experiment is ever started from a fuzzed document."""

from __future__ import annotations

import json

import pytest
from fuzzing import mutated_text
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsched.cli import main
from fairsched.experiment import ConfigError, ExperimentConfig, load_config
from fairsched.generator import GeneratorSpec, generate
from fairsched.io import FormatError, default_catalog, load_native, load_resources, save_native, save_resources
from fairsched.model import ResourceCatalog, WorkflowSet

DATASET = {"name": "t", "n_workflows": 2, "task_count_range": [3, 4], "ccr": 0.5, "parallelism_degree": 0.5}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A directory holding a small native dataset, the default resource
    file, and the config and run records of a one-dataset experiment."""
    root = tmp_path_factory.mktemp("fuzz-docs")
    save_native(generate(GeneratorSpec(2, (3, 4), 0.5, 0.5, seed=1)), root / "dataset.json")
    save_resources(default_catalog(), root / "resources.json")
    config = {
        "datasets": [DATASET, {"name": "file", "path": str(root / "dataset.json")}],
        "clusterers": ["none"],
        "optimizer": {"population": 6, "generations": 1, "divisions": 6},
        "repetitions": 1,
        "seed": 1,
        "resources": str(root / "resources.json"),
        "output_dir": str(root / "results"),
    }
    (root / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(root / "config.json"), "--quiet"]) == 0
    return root


def _run_config(root, **fields) -> str:
    """A small valid config with fields replaced, written beside the fuzzed
    documents; returns its path."""
    config = {
        "datasets": [DATASET],
        "clusterers": ["none"],
        "optimizer": {"population": 4, "generations": 0, "divisions": 4},
        "repetitions": 1,
        "output_dir": str(root / "refused"),
        **fields,
    }
    path = root / "run_config.json"
    path.write_text(json.dumps(config))
    return str(path)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_dataset_loads_or_raises_format_error(documents, data):
    target = documents / "fuzzed_dataset.json"
    target.write_text(mutated_text(data, json.loads((documents / "dataset.json").read_text())))
    try:
        ws = load_native(target)
    except FormatError as exc:
        assert str(exc).startswith(str(target)), exc
        config = _run_config(documents, datasets=[{"name": "file", "path": str(target)}])
        assert main(["run", "--config", config, "--quiet"]) == 2
    else:
        assert isinstance(ws, WorkflowSet)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_resource_file_loads_or_raises_format_error(documents, data):
    target = documents / "fuzzed_resources.json"
    target.write_text(mutated_text(data, json.loads((documents / "resources.json").read_text())))
    try:
        catalog = load_resources(target)
    except FormatError as exc:
        assert str(exc).startswith(str(target)), exc
        assert main(["run", "--config", _run_config(documents, resources=str(target)), "--quiet"]) == 2
    else:
        assert isinstance(catalog, ResourceCatalog)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_config_loads_or_raises_config_error(documents, data):
    """The fuzzed config sits beside the stored runs, where `eval` reads it
    for the row order and IGD normalization: `eval` and `run` refuse a
    config that does not load or does not validate, and `eval` scores with
    one that does."""
    target = documents / "results" / "config.json"
    target.write_text(mutated_text(data, json.loads((documents / "config.json").read_text())))
    run_args = ["run", "--config", str(target), "--quiet"]
    eval_args = ["eval", "--runs", str(documents / "results" / "runs"), "--out", str(documents / "scores"), "--quiet"]
    try:
        cfg = load_config(target)
        assert isinstance(cfg, ExperimentConfig)
        cfg.validate()
    except ConfigError:
        assert main(eval_args) == 2
        assert main(run_args) == 2
        return
    assert main(eval_args) == 0
