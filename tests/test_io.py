from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from fairsched.generator import GeneratorSpec, generate
from fairsched.io import (
    FormatError,
    default_catalog,
    load_dax,
    load_native,
    load_resources,
    save_native,
    save_resources,
    workflow_set_from_dict,
    workflow_set_to_dict,
)
from fairsched.model import WorkflowSet

FIXTURES = Path(__file__).parent / "fixtures"


def test_native_round_trip(diamond_set, tmp_path):
    path = tmp_path / "ws.json"
    save_native(diamond_set, path)
    assert load_native(path) == diamond_set


def test_native_round_trip_generated(tmp_path):
    ws = generate(GeneratorSpec(4, (5, 9), 2.0, 0.5, seed=42))
    path = tmp_path / "gen.json"
    save_native(ws, path)
    again = load_native(path)
    assert again == ws
    # exact float survival through JSON
    save_native(again, tmp_path / "gen2.json")
    assert (tmp_path / "gen.json").read_text() == (tmp_path / "gen2.json").read_text()


def test_native_field_names(diamond_set):
    doc = workflow_set_to_dict(diamond_set)
    w = doc["workflows"][0]
    assert set(w.keys()) == {"id", "tasks", "edges"}
    assert set(w["tasks"][0].keys()) == {"id", "workload"}
    assert set(w["edges"][0].keys()) == {"src", "dst", "data_size"}


def test_native_negative_workload_rejected():
    doc = {"workflows": [{"id": "w", "tasks": [{"id": "a", "workload": -1.0}], "edges": []}]}
    with pytest.raises(FormatError, match="workload"):
        workflow_set_from_dict(doc)


def test_native_non_finite_edge_rejected(tmp_path):
    # json accepts NaN; the decoder would then drop the edge silently
    doc = {
        "workflows": [
            {
                "id": "w",
                "tasks": [{"id": "a", "workload": 1.0}, {"id": "b", "workload": 1.0}],
                "edges": [{"src": "a", "dst": "b", "data_size": float("nan")}],
            }
        ]
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    with pytest.raises(FormatError, match=r"edges\[0\]\.data_size: must be finite"):
        load_native(path)


def test_native_unknown_edge_endpoint_rejected():
    doc = {
        "workflows": [
            {"id": "w1", "tasks": [{"id": "a", "workload": 1.0}], "edges": []},
            {
                "id": "w2",
                "tasks": [{"id": "b", "workload": 1.0}],
                "edges": [{"src": "a", "dst": "b", "data_size": 1.0}],
            },
        ]
    }
    with pytest.raises(FormatError, match="cross-workflow or unknown"):
        workflow_set_from_dict(doc)


def test_native_missing_field_named():
    doc = {"workflows": [{"id": "w", "tasks": [{"id": "a"}], "edges": []}]}
    with pytest.raises(FormatError, match=r"tasks\[0\].*workload"):
        workflow_set_from_dict(doc)


def test_native_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_native(p)


def test_resources_round_trip(tmp_path):
    cat = default_catalog()
    path = tmp_path / "res.json"
    save_resources(cat, path)
    again = load_resources(path)
    assert tuple(again) == tuple(cat)


def test_resources_field_checks(tmp_path):
    path = tmp_path / "res.json"
    path.write_text(json.dumps({"resources": [{"id": "r0", "cpu": 0, "bandwidth": 1, "cost_per_interval": 1, "billing_interval": 1}]}))
    with pytest.raises(FormatError, match="cpu"):
        load_resources(path)
    path.write_text(json.dumps({"resources": []}))
    with pytest.raises(FormatError):
        load_resources(path)
    path.write_text('{"resources": [{"id": "r0", "cpu": Infinity, "bandwidth": 1, "cost_per_interval": 1, "billing_interval": 1}]}')
    with pytest.raises(FormatError, match="cpu: must be finite"):
        load_resources(path)


def test_default_catalog_shape():
    cat = default_catalog()
    assert len(cat) == 6
    caps = [r.cpu_capacity for r in cat]
    assert caps == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    # superlinear pricing: faster is more expensive overall but cheaper is never free
    costs = [r.cost_per_interval for r in cat]
    assert costs == sorted(costs)
    assert all(c > 0 for c in costs)
    assert len({r.bandwidth for r in cat}) == 1


def test_load_dax_pipeline():
    w = load_dax(FIXTURES / "pipeline3.dax")
    assert w.id == "pipeline3"
    assert [t.id for t in w.tasks] == ["ID00000", "ID00001", "ID00002"]
    assert w.task("ID00000").workload == 13.5
    assert w.topological_order() == ["ID00000", "ID00001", "ID00002"]
    assert w.edge("ID00000", "ID00001").data_size == 1000.0
    assert w.edge("ID00001", "ID00002").data_size == 2000.0


def test_load_dax_fan_aggregates_sizes():
    w = load_dax(FIXTURES / "fan4.dax")
    assert w.n_tasks == 4
    assert set(w.predecessors("J4")) == {"J2", "J3"}
    assert w.edge("J1", "J2").data_size == 300.0
    assert w.edge("J1", "J3").data_size == 700.0
    assert w.edge("J2", "J4").data_size == 50.0


def test_load_dax_prefix():
    w = load_dax(FIXTURES / "fan4.dax", id_prefix="m1.")
    assert [t.id for t in w.tasks] == ["m1.J1", "m1.J2", "m1.J3", "m1.J4"]
    assert set(w.successors("m1.J1")) == {"m1.J2", "m1.J3"}


def test_load_dax_missing_runtime(tmp_path):
    p = tmp_path / "bad.dax"
    p.write_text('<adag name="x"><job id="a"/></adag>')
    with pytest.raises(FormatError, match="runtime"):
        load_dax(p)


@pytest.mark.parametrize("size", ["12kB", "inf", "nan"])
def test_load_dax_bad_file_size(tmp_path, size):
    p = tmp_path / "bad.dax"
    p.write_text(f'<adag name="x"><job id="a" runtime="1"><uses file="f" link="output" size="{size}"/></job></adag>')
    with pytest.raises(FormatError, match=rf"bad\.dax: job 'a' has file size '{size}', not a finite number"):
        load_dax(p)


def test_load_dax_unknown_parent(tmp_path):
    p = tmp_path / "bad.dax"
    p.write_text('<adag name="x"><job id="a" runtime="1"/><child ref="a"><parent ref="ghost"/></child></adag>')
    with pytest.raises(FormatError, match="ghost"):
        load_dax(p)


def test_load_dax_malformed_xml(tmp_path):
    p = tmp_path / "bad.dax"
    p.write_text("<adag><job id=")
    with pytest.raises(FormatError, match="malformed XML"):
        load_dax(p)


def test_load_dax_empty(tmp_path):
    p = tmp_path / "empty.dax"
    p.write_text('<adag name="none"></adag>')
    w = load_dax(p)
    assert w.n_tasks == 0
    assert w.topological_order() == []


def test_dax_set_round_trips_natively(tmp_path):
    ws = WorkflowSet([
        load_dax(FIXTURES / "pipeline3.dax", id_prefix="p."),
        load_dax(FIXTURES / "fan4.dax", id_prefix="f."),
    ])
    save_native(ws, tmp_path / "combo.json")
    assert load_native(tmp_path / "combo.json") == ws
