from __future__ import annotations

import enum
import json
import math
import re
from collections import OrderedDict, namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsched.io
from fairsched.clustering import make_plan, order_interleave
from fairsched.experiment import DatasetSpec, RunRecord
from fairsched.generator import GeneratorSpec, generate
from fairsched.io import (
    FormatError,
    default_catalog,
    load_dax,
    load_native,
    load_resources,
    resources_to_dict,
    save_native,
    save_resources,
    workflow_set_from_dict,
    workflow_set_to_dict,
    write_json,
)
from fairsched.io import _indented
from fairsched.model import WorkflowSet
from fairsched.nsga3 import OptimizerConfig, run

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


# ---------------------------------------------------------------------------
# write_json: the bytes of json.dumps(doc, indent=2) and a newline

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, 1.5e300, math.nan, math.inf, -math.inf]
EDGE_INTS = [0, -1, 2**63, 2**64, -(2**64) - 1, 10**30]
TEXTS = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "%s", "%r", "%%", 'q"\\', "\x00\x1f\x7f", "é\u2028😀"]
)
INTS = st.integers() | st.sampled_from(EDGE_INTS)
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXTS
KEYS = TEXTS | INTS | FLOATS | st.booleans() | st.none()


@st.composite
def tables(draw):
    """Lists of dicts with equal keys, each column of one type or of mixed ones."""
    keys = draw(st.lists(TEXTS, unique=True, max_size=4))
    columns = [draw(st.sampled_from([INTS, FLOATS, TEXTS, st.booleans(), SCALARS])) for _ in keys]
    rows = draw(st.lists(st.tuples(*columns), max_size=5))
    return [dict(zip(keys, row)) for row in rows]


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4)
        | st.lists(st.lists(INTS | st.booleans(), max_size=4), max_size=4)  # bools among ints
        | st.lists(st.lists(INTS | FLOATS, min_size=1, max_size=4), max_size=4)
        | st.lists(FLOATS, max_size=5)
        | st.lists(TEXTS, max_size=5)
        | tables()
    )


DOCUMENTS = st.recursive(SCALARS, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_indented_text_equals_json_dumps(doc):
    """The fast path itself, whichever path write_json takes here."""
    assert _indented(doc) == json.dumps(doc, indent=2)


@settings(max_examples=50, deadline=None)
@given(DOCUMENTS)
def test_write_json_writes_json_dumps_bytes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


class _Colour(enum.IntEnum):
    RED = 1


class _Text(str):
    pass


class _Map(dict):
    pass


_Pair = namedtuple("_Pair", "a b")


@pytest.mark.parametrize(
    "doc",
    [
        [True, 1, False, 0],
        [[1, True], [2, 3]],
        [{"a": 1}, {"a": True}],
        [{"a": 1.0, "b": "x"}, {"b": "x", "a": 1.0}],  # equal keys in another order
        [{"a": 1}, {"a": 1, "b": 2}],
        [{"a": [1]}, {"a": [2]}],
        [{}, {}],
        [{1: "x"}, {1: "y"}],
        [[], [1.0]],
        [_Colour.RED, 2],
        [[_Colour.RED, 2]],
        [{"c": _Colour.RED}],
        [_Text("x"), "y"],
        [np.float64(0.1), 0.2],
        [[np.float64(0.1)]],
        {"n": [1, math.nan], "i": [[math.inf, 1]], "t": [{"x": -math.inf}, {"x": 1.0}]},
        {1.5: 1, True: 2, None: 3, -0.0: 4},
        ("a", (1, 2), [()]),
        OrderedDict([(1, "x")]),
        [_Map(a=1, b=[2.0, {"c": None}])],
        {"p": _Pair(1, [2, {"q": 3.5}])},
        {_Text("k"): 1, "l": [2]},
        [[1, 2], [3]],
        [[], []],
        [{"a": 1.0, "b": "x"}, {"a": math.nan, "b": "y"}],
        {"a": {"b": {}}},
    ],
)
def test_indented_text_of_subclasses_and_near_misses(doc):
    assert _indented(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [
        {1, 2},
        b"x",
        [1, 2, 1j],
        [[1, 2], [3, np.int64(4)]],
        [{"a": 1}, {"a": object()}],
        [{"a": 1.0}, {"a": Path("x")}],
        {(1, 2): 3},
        {"a": [1, {2: {3}}]},
        OrderedDict([((1, 2), 3)]),
    ],
)
def test_write_json_refuses_what_json_refuses(tmp_path, doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as raised:
        _indented(doc)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", doc)


def test_write_json_refuses_a_container_that_holds_itself(tmp_path):
    looped = [1, {"a": []}]
    looped[1]["a"].append(looped)
    with pytest.raises(ValueError, match="Circular reference detected"):
        _indented(looped)
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_json(tmp_path / "x.json", looped)


def test_result_tree_documents_never_reach_json(monkeypatch):
    """A run record with a front, a generated native set and a catalog hold
    only exact types and bulk shapes, so `_indented` writes them without
    json's pure-Python encoder."""
    spec = GeneratorSpec(3, (20, 30), 1.0, 0.5, seed=11)
    ws = generate(spec)
    catalog = default_catalog()
    plan = make_plan(ws, catalog, "dfs-cst")
    opt = OptimizerConfig(population=6, generations=2, divisions=4, seed=3)
    front = run(ws, catalog, plan, order_interleave(plan, ws), opt)
    assert len(front) >= 1
    record = RunRecord(DatasetSpec(name="d", generator=spec), "dfs-cst", 0, opt, catalog, front)
    docs = [record.to_dict(), workflow_set_to_dict(ws), resources_to_dict(catalog)]
    dumps, calls = json.dumps, []
    monkeypatch.setattr(fairsched.io.json, "dumps", lambda *args, **kwargs: calls.append(args) or dumps(*args, **kwargs))
    texts = list(map(_indented, docs))
    monkeypatch.undo()
    assert calls == []
    assert texts == [json.dumps(doc, indent=2) for doc in docs]


def test_saved_native_set_and_catalog_are_json_dumps_text(tmp_path):
    ws = generate(GeneratorSpec(3, (5, 9), 1000.0, 0.3, seed=7))
    save_native(ws, tmp_path / "ws.json")
    save_resources(default_catalog(), tmp_path / "r.json")
    assert (tmp_path / "ws.json").read_text() == json.dumps(workflow_set_to_dict(ws), indent=2) + "\n"
    assert (tmp_path / "r.json").read_text() == json.dumps(resources_to_dict(default_catalog()), indent=2) + "\n"


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


@pytest.mark.parametrize("load", [load_native, load_resources])
def test_undecodable_file_is_named(tmp_path, load):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff{}")
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: invalid JSON: .*can't decode byte 0xff"):
        load(p)


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
