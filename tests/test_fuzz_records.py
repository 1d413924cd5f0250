"""Fuzzing of stored run records: every mutated record either loads or is
refused with a FormatError that names the file."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsched.cli import main
from fairsched.experiment import RunRecord, load_record
from fairsched.io import FormatError

# JSON values a field may be replaced with, integers beyond every float and
# machine-integer range included.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


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


def _paths(doc, prefix=()):
    """The key or index path of every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, op, value):
    """A copy of doc with the value at path dropped or replaced."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "drop":
        del parent[last]
    else:
        parent[last] = value
    return doc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_record_loads_or_raises_format_error(record_doc, data):
    root, doc = record_doc
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        paths = [(), *_paths(doc)]
        path = data.draw(st.sampled_from(paths), label="path")
        op = data.draw(st.sampled_from(["drop", "replace"]) if path else st.just("replace"), label="op")
        doc = _mutate(doc, path, op, data.draw(VALUES, label="value") if op == "replace" else None)
    text = json.dumps(doc)
    cut = data.draw(st.none() | st.integers(0, len(text)), label="cut")
    target = root / "rep00.json"
    target.write_text(text if cut is None else text[:cut])
    try:
        record = load_record(target)
    except FormatError as exc:
        assert str(exc).startswith(str(target)), exc
    else:
        assert isinstance(record, RunRecord)

