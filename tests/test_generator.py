from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsched.generator import GeneratorSpec, generate, stable_seed, table2_specs
from fairsched.io import save_native, workflow_set_to_dict
from fairsched.model import validate
from oracles import entry_set, generate_numpy_calls


def levels_of(w):
    """Longest-path depth per task; in the layered model this recovers the layer."""
    depth = {}
    for tid in w.topological_order():
        preds = w.predecessors(tid)
        depth[tid] = 1 + max((depth[p] for p in preds), default=-1)
    return depth


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(0, (5, 10), 1.0, 0.5, 1).validate()
    with pytest.raises(ValueError):
        GeneratorSpec(1, (10, 5), 1.0, 0.5, 1).validate()
    with pytest.raises(ValueError):
        GeneratorSpec(1, (5, 10), 0.0, 0.5, 1).validate()
    with pytest.raises(ValueError):
        GeneratorSpec(1, (5, 10), 1.0, 1.5, 1).validate()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GeneratorSpec(1, (5, 10), 1.0, 0.5, -1).validate()
    GeneratorSpec(1, (5, 10), 1.0, 1.0, 1).validate()


@pytest.mark.parametrize("ccr", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_ccr(ccr):
    with pytest.raises(ValueError, match="ccr must be finite and > 0"):
        GeneratorSpec(1, (5, 10), ccr, 0.5, 1).validate()


def test_determinism_bit_identical():
    spec = GeneratorSpec(5, (10, 20), 0.5, 0.3, seed=99)
    a = json.dumps(workflow_set_to_dict(generate(spec)), sort_keys=True)
    b = json.dumps(workflow_set_to_dict(generate(spec)), sort_keys=True)
    assert a == b
    c = json.dumps(workflow_set_to_dict(generate(GeneratorSpec(5, (10, 20), 0.5, 0.3, seed=100))), sort_keys=True)
    assert a != c


@pytest.mark.parametrize(
    "spec, sha256",
    [
        (GeneratorSpec(5, (10, 20), 0.1, 0.05, seed=11), "33b16796e2c3755d9c1ae88277f0722412940f1a180cdb681e74538c37cb701c"),
        (GeneratorSpec(30, (40, 60), 1000.0, 0.30, seed=12), "f906d16511925c616caeb2b06805d49054ca0bf3dac2bfdd517f51bbe58133fb"),
        # 1-3 tasks at full parallelism: width-1 layers, and parents drawn from a whole layer
        (GeneratorSpec(8, (1, 3), 1.0, 1.0, seed=13), "50d14131e76dec81dfd97c6d0277ccfc99fe1419333f6d943a28cc73173ea691"),
        (GeneratorSpec(6, (5, 25), 2.5, 1.0, seed=14), "5dda5e299c6db6ea977428fe01807f5d0ba0945df0c9c46b34129b2b6d62cfbc"),
    ],
)
def test_generated_bytes_are_pinned(tmp_path, spec, sha256):
    """Generation is part of every stored result: the native-format bytes of
    these sets must not change, whatever the generator's draws are made with."""
    path = tmp_path / "set.json"
    save_native(generate(spec), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@st.composite
def generator_specs(draw):
    """Specs of 1-8 workflows, task ranges within 1-200, parallelism in
    (0, 1], ccr from 0.1 to 1000 and seeds up to 2**63."""
    lo = draw(st.integers(1, 200), label="lo")
    hi = draw(st.integers(lo, 200), label="hi")
    return GeneratorSpec(
        n_workflows=draw(st.integers(1, 8), label="n_workflows"),
        task_count_range=(lo, hi),
        ccr=draw(st.floats(0.1, 1000.0), label="ccr"),
        parallelism_degree=draw(st.floats(0.0, 1.0, exclude_min=True), label="parallelism"),
        seed=draw(st.integers(0, 2**63), label="seed"),
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(spec=generator_specs())
def test_generate_matches_numpy_calls(spec):
    """The stream-driven generator gives, byte for byte, the set that the
    same draws as numpy `Generator` calls give."""
    ours = json.dumps(workflow_set_to_dict(generate(spec)), sort_keys=True)
    assert ours == json.dumps(workflow_set_to_dict(generate_numpy_calls(spec)), sort_keys=True)


def test_structure_counts_and_widths():
    spec = GeneratorSpec(5, (10, 20), 0.1, 0.05, seed=1)
    ws = generate(spec)
    assert validate(ws) == []
    assert len(ws) == 5
    for w in ws:
        assert 10 <= w.n_tasks <= 20
        cap = math.ceil(0.05 * w.n_tasks)
        depth = levels_of(w)
        widths = {}
        for tid, lv in depth.items():
            widths[lv] = widths.get(lv, 0) + 1
        assert max(widths.values()) <= cap
        # every non-entry task has 1..3 parents, all one level up
        for t in w.tasks:
            preds = w.predecessors(t.id)
            if depth[t.id] == 0:
                assert preds == ()
            else:
                assert 1 <= len(preds) <= 3
                assert all(depth[p] == depth[t.id] - 1 for p in preds)
        assert set(entry_set(w)) == {tid for tid, lv in depth.items() if lv == 0}
    for w in ws:
        for t in w.tasks:
            assert 10.0 <= t.workload <= 100.0


def test_low_parallelism_small_tasks_degenerates_to_chains():
    ws = generate(GeneratorSpec(5, (10, 20), 0.1, 0.05, seed=7))
    for w in ws:
        # ceil(0.05 * n) == 1 for n <= 20, so each workflow is a chain
        assert all(len(w.successors(t.id)) <= 1 for t in w.tasks)
        assert len(entry_set(w)) == 1


def test_full_parallelism_can_put_everything_in_one_layer():
    hit = False
    for seed in range(30):
        ws = generate(GeneratorSpec(1, (3, 3), 1.0, 1.0, seed=seed))
        w = ws.workflows[0]
        if not w.edges:
            hit = True
            break
    assert hit, "parallelism 1.0 never produced a single-layer workflow in 30 seeds"


def test_empirical_ccr_tracks_requested():
    for ccr in (0.1, 1.0, 1000.0):
        ws = generate(GeneratorSpec(6, (10, 20), ccr, 0.3, seed=13))
        workloads = [t.workload for w in ws for t in w.tasks]
        sizes = [e.data_size for w in ws for e in w.edges]
        empirical = (sum(sizes) / len(sizes)) / (sum(workloads) / len(workloads))
        assert abs(empirical - ccr) <= 0.2 * ccr


def test_jitter_bounds_per_edge():
    ws = generate(GeneratorSpec(3, (8, 12), 2.0, 0.4, seed=5))
    for w in ws:
        mean_wl = sum(t.workload for t in w.tasks) / w.n_tasks
        for e in w.edges:
            assert 0.8 * 2.0 * mean_wl <= e.data_size <= 1.2 * 2.0 * mean_wl


def test_task_ids_unique_across_set():
    ws = generate(GeneratorSpec(10, (5, 10), 1.0, 0.5, seed=3))
    ids = [t.id for w in ws for t in w.tasks]
    assert len(ids) == len(set(ids))


def test_table2_design():
    rows = table2_specs(0)
    assert len(rows) == 16
    assert [name for name, _ in rows] == [f"ds{i:02d}" for i in range(1, 17)]
    combos = {(s.task_count_range, s.n_workflows, s.ccr, s.parallelism_degree) for _, s in rows}
    assert len(combos) == 16
    for _, s in rows:
        assert s.task_count_range in ((10, 20), (40, 60))
        assert s.n_workflows in (5, 30)
        assert s.ccr in (0.1, 1000.0)
        assert s.parallelism_degree in (0.05, 0.30)
    # first row: small tasks, few workflows, compute heavy, near serial
    _, first = rows[0]
    assert first == GeneratorSpec(5, (10, 20), 0.1, 0.05, seed=first.seed)
    # every spec generates a valid set
    for _, s in rows:
        assert validate(generate(s)) == []


def test_stable_seed_is_stable():
    assert stable_seed(1, "ds01", "p2p", 0) == stable_seed(1, "ds01", "p2p", 0)
    assert stable_seed(1, "ds01", "p2p", 0) != stable_seed(1, "ds01", "p2p", 1)
    assert stable_seed(1, "ds01", "p2p", 0) != stable_seed(2, "ds01", "p2p", 0)
    # independent derivation: sha256 of the joined labels, top 63 bits
    import hashlib

    digest = hashlib.sha256(b"0|dataset|ds01").digest()
    assert stable_seed(0, "dataset", "ds01") == int.from_bytes(digest[:8], "big") >> 1
    assert 0 <= stable_seed(0, "dataset", "ds01") < 2**63
