from __future__ import annotations

import json
import math
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairsched import experiment
from fairsched.cli import main
from fairsched.generator import generate, table2_specs
from fairsched.io import default_catalog, load_native, load_resources, save_native, save_resources, workflow_set_to_dict
from fairsched.model import Edge, Resource, ResourceCatalog, Task, Workflow, WorkflowSet, validate


def write_config(path: Path, out_dir: Path, **overrides) -> Path:
    doc = {
        "datasets": [
            {"name": "t", "n_workflows": 2, "task_count_range": [3, 4], "ccr": 0.5, "parallelism_degree": 0.5}
        ],
        "clusterers": ["none"],
        "optimizer": {"population": 6, "generations": 3, "divisions": 6},
        "repetitions": 1,
        "seed": 1,
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_gen_single_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    argv = [
        "gen", "--out", str(out), "--seed", "3", "--name", "toy",
        "--workflows", "2", "--tasks", "3", "5", "--ccr", "0.5", "--parallelism", "0.5",
    ]
    assert main(argv) == 0
    ws = load_native(out / "toy.json")
    assert validate(ws) == []
    assert len(load_resources(out / "resources.json")) == 6
    printed = capsys.readouterr().out
    assert "toy.json" in printed and "resources.json" in printed
    # same arguments, fresh directory: byte-identical files
    out2 = tmp_path / "data2"
    main(["gen", "--out", str(out2), "--seed", "3", "--name", "toy",
          "--workflows", "2", "--tasks", "3", "5", "--ccr", "0.5", "--parallelism", "0.5"])
    assert (out / "toy.json").read_bytes() == (out2 / "toy.json").read_bytes()


def test_gen_table2_design(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["gen", "--out", str(out), "--table2", "--quiet"]) == 0
    files = sorted(p.name for p in out.glob("ds*.json"))
    assert files == [f"ds{i:02d}.json" for i in range(1, 17)]
    assert (out / "resources.json").exists()
    assert capsys.readouterr().out == ""


def test_gen_table2_files_are_json_dumps_text(tmp_path):
    out = tmp_path / "bench"
    assert main(["gen", "--out", str(out), "--table2", "--seed", "5", "--quiet"]) == 0
    for name, spec in table2_specs(5):
        expected = json.dumps(workflow_set_to_dict(generate(spec)), indent=2) + "\n"
        assert (out / f"{name}.json").read_text() == expected, name


def test_gen_requires_spec_or_table2(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--workflows" in err


def test_run_eval_replay_pipeline(tmp_path, capsys):
    out_dir = tmp_path / "results"
    cfg = write_config(tmp_path / "config.json", out_dir)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    assert str(out_dir) in capsys.readouterr().out
    record = out_dir / "runs" / "t" / "none" / "rep00.json"
    assert record.exists()

    metrics_out = tmp_path / "rescored"
    assert main(["eval", "--runs", str(out_dir / "runs"), "--out", str(metrics_out), "--quiet"]) == 0
    assert (metrics_out / "aggregate.csv").read_bytes() == (out_dir / "metrics" / "aggregate.csv").read_bytes()

    front_csv = tmp_path / "replayed.csv"
    assert main(["replay", "--record", str(record), "--out", str(front_csv), "--quiet"]) == 0
    assert "matches" in capsys.readouterr().out
    assert front_csv.read_bytes() == (out_dir / "runs" / "t" / "none" / "rep00_front.csv").read_bytes()


def test_replay_exit_1_on_mismatch(tmp_path, capsys):
    out_dir = tmp_path / "results"
    cfg = write_config(tmp_path / "config.json", out_dir)
    main(["run", "--config", str(cfg), "--quiet"])
    record = out_dir / "runs" / "t" / "none" / "rep00.json"
    doc = json.loads(record.read_text())
    doc["front"]["objectives"][0][0] += 0.5
    record.write_text(json.dumps(doc))
    assert main(["replay", "--record", str(record), "--quiet"]) == 1
    assert "DIFFERS" in capsys.readouterr().err


def _ulp_up(front):
    front["objectives"][-1][2] = float(np.nextafter(front["objectives"][-1][2], np.inf))


def _next_resource(front):
    front["genes"][0][-1] = (front["genes"][0][-1] + 1) % 6


@pytest.mark.parametrize("edit", [_ulp_up, _next_resource], ids=["objective-one-ulp", "one-gene"])
def test_replay_exit_1_on_one_changed_value(tmp_path, capsys, edit):
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir)), "--quiet"])
    record = out_dir / "runs" / "t" / "none" / "rep00.json"
    doc = json.loads(record.read_text())
    edit(doc["front"])
    record.write_text(json.dumps(doc))
    assert main(["replay", "--record", str(record), "--quiet"]) == 1
    assert capsys.readouterr().err == "replay: front DIFFERS from the stored record\n"


def _chain_config(tmp_path, workloads, catalog):
    """A config over one native set: a chain a -> b with the given
    workloads beside a one-task workflow, on the given catalog."""
    chain = Workflow("w0", [Task("a", "w0", workloads[0]), Task("b", "w0", workloads[1])], [Edge("a", "b", 1.0)])
    single = Workflow("w1", [Task("c", "w1", 1.0)], [])
    save_native(WorkflowSet([chain, single]), tmp_path / "set.json")
    save_resources(catalog, tmp_path / "resources.json")
    return write_config(
        tmp_path / "config.json", tmp_path / "results",
        datasets=[{"name": "big", "path": str(tmp_path / "set.json")}], resources=str(tmp_path / "resources.json"),
    )


@pytest.mark.parametrize(
    "workloads, catalog, named",
    [
        # finite baselines, but the slow resource runs task a for 1e310
        ((1e300, 10.0), ResourceCatalog((Resource("slow", 1e-10, 1.0, 1.0, 1.0), Resource("fast", 1.0, 1.0, 1.0, 1.0))),
         "times, costs or losses overflow the float range"),
        # the cheapest alone cost of the chain is already inf
        ((1e308, 1e308), default_catalog(), "workflow 'w0' has alone-run baselines makespan 6.25e+306 and cost inf"),
    ],
    ids=["overflowing-time", "overflowing-baseline"],
)
def test_run_refuses_overflowing_set_exit_2(tmp_path, capsys, workloads, catalog, named):
    config = _chain_config(tmp_path, workloads, catalog)
    # a RuntimeWarning is an error under this suite's settings, so none escapes either
    assert main(["run", "--config", str(config), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not list((tmp_path / "results").glob("runs/**/rep*"))


def test_run_overrides(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    cfg = write_config(tmp_path / "config.json", tmp_path / "ignored")
    main(["run", "--config", str(cfg), "--out", str(out_a), "--seed", "7", "--quiet"])
    main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "7", "--quiet"])
    main(["run", "--config", str(cfg), "--out", str(out_c), "--seed", "8", "--quiet"])
    assert not (tmp_path / "ignored").exists()
    ds = Path("datasets") / "t.json"
    assert (out_a / ds).read_bytes() == (out_b / ds).read_bytes()
    # the master seed drives dataset generation too
    assert (out_a / ds).read_bytes() != (out_c / ds).read_bytes()

    main(["run", "--config", str(cfg), "--out", str(tmp_path / "d"), "--reps", "2",
          "--clusterers", "p2p,mdnc", "--quiet"])
    runs = tmp_path / "d" / "runs" / "t"
    assert sorted(p.name for p in runs.iterdir()) == ["mdnc", "p2p"]
    assert len(list((runs / "p2p").glob("rep*.json"))) == 2


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_seed_override_matches_config_seed(tmp_path):
    """--seed acts as if the config held it: explicit dataset seeds stay,
    omitted ones derive from the new master seed."""
    datasets = [
        {"name": "fixed", "n_workflows": 2, "task_count_range": [3, 4], "ccr": 0.5, "parallelism_degree": 0.5, "seed": 42},
        {"name": "derived", "n_workflows": 2, "task_count_range": [3, 4], "ccr": 2.0, "parallelism_degree": 0.3},
    ]
    overridden = write_config(tmp_path / "seed1.json", tmp_path / "a", datasets=datasets, seed=1)
    in_file = write_config(tmp_path / "seed5.json", tmp_path / "b", datasets=datasets, seed=5)
    assert main(["run", "--config", str(overridden), "--seed", "5", "--quiet"]) == 0
    assert main(["run", "--config", str(in_file), "--quiet"]) == 0
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert sorted(a) == sorted(b)
    for name in a:
        if name == "config.json":
            doc_a, doc_b = json.loads(a[name]), json.loads(b[name])
            assert doc_a.pop("output_dir") != doc_b.pop("output_dir")
            assert doc_a == doc_b
        else:
            assert a[name] == b[name], name
    record = json.loads(a["runs/fixed/none/rep00.json"])
    assert record["dataset"]["seed"] == 42


def test_run_seed_override_of_array_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1, 2]")
    assert main(["run", "--config", str(cfg), "--seed", "3", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config document must be a JSON object" in err
    assert "Traceback" not in err


def test_run_rejects_unknown_clusterer(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", tmp_path / "results")
    assert main(["run", "--config", str(cfg), "--clusterers", "bogus", "--quiet"]) == 2
    assert "error: --clusterers: unknown clusterer 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, named",
    [
        (["--clusterers", ","], "error: --clusterers: no clusterers configured"),
        (["--out", ""], "error: --out: output_dir must be a non-empty string, got ''"),
        (["--out", "", "--seed", "5"], "error: --out: output_dir must be a non-empty string, got ''"),
        (["--reps", "0"], "error: --reps: repetitions must be >= 1, got 0"),
        (["--reps", "0", "--clusterers", "bogus"], "error: --reps, --clusterers: "),
    ],
)
def test_run_bad_override_names_the_option(tmp_path, capsys, options, named):
    """A config file that is valid alone is not blamed for a bad override."""
    cfg = write_config(tmp_path / "config.json", tmp_path / "results")
    assert main(["run", "--config", str(cfg), *options, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert str(cfg) not in err
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


def test_run_bad_file_is_blamed_despite_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", tmp_path / "results", clusterers=["bogus"])
    assert main(["run", "--config", str(cfg), "--reps", "2", "--quiet"]) == 2
    assert f"error: {cfg}: unknown clusterer 'bogus'" in capsys.readouterr().err


def test_run_override_mends_the_file(tmp_path):
    cfg = write_config(tmp_path / "config.json", tmp_path / "results", repetitions=0)
    assert main(["run", "--config", str(cfg), "--reps", "2", "--quiet"]) == 0
    assert sorted(p.name for p in (tmp_path / "results" / "runs" / "t" / "none").glob("rep*.json")) == [
        "rep00.json", "rep01.json",
    ]


def test_run_failing_dataset_same_error_with_workers(tmp_path, capsys, monkeypatch):
    """The second of three datasets is a missing file: two workers report it
    as one does, and leave no worker running."""
    datasets = [
        {"name": "t1", "n_workflows": 2, "task_count_range": [3, 4], "ccr": 0.5, "parallelism_degree": 0.5},
        {"name": "gone", "path": str(tmp_path / "no_such.json")},
        {"name": "t3", "n_workflows": 3, "task_count_range": [3, 4], "ccr": 2.0, "parallelism_degree": 0.5},
    ]
    errors = []
    for cpus in (1, 2):  # 2: a pool even on one CPU
        monkeypatch.setattr(experiment, "_available_cpus", lambda: cpus)
        cfg = write_config(tmp_path / f"config{cpus}.json", tmp_path / f"results{cpus}", datasets=datasets)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert multiprocessing.active_children() == []
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: dataset 'gone': file {tmp_path / 'no_such.json'} does not exist\n"


def test_run_missing_config_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_run_non_finite_inputs_exit_2(tmp_path, capsys):
    nan_set = tmp_path / "nan_set.json"
    nan_set.write_text(
        '{"workflows": [{"id": "w", "tasks": [{"id": "a", "workload": 1}, {"id": "b", "workload": 1}],'
        ' "edges": [{"src": "a", "dst": "b", "data_size": NaN}]}]}'
    )
    inf_catalog = tmp_path / "inf_resources.json"
    inf_catalog.write_text(
        '{"resources": [{"id": "r0", "cpu": Infinity, "bandwidth": 1, "cost_per_interval": 1, "billing_interval": 1}]}'
    )
    cases = {
        "data_size": {"datasets": [{"name": "n", "path": str(nan_set)}]},
        "cpu": {"resources": str(inf_catalog)},
    }
    for field, overrides in cases.items():
        cfg = write_config(tmp_path / "config.json", tmp_path / field, **overrides)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"{field}: must be finite" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"optimizer": []}, "optimizer must be a JSON object"),
        ({"optimizer": {"population": 8.9}}, "optimizer.population must be an integer"),
        ({"optimizer": {"population": True}}, "optimizer.population must be an integer"),
        ({"optimizer": {"generations": "3"}}, "optimizer.generations must be an integer"),
        ({"optimizer": {"mutation_rate": "0.1"}}, "optimizer.mutation_rate must be a number"),
        ({"optimizer": {"populaton": 8}}, "optimizer: unknown field(s) populaton"),
        ({"clusterers": "dfs-cst"}, "clusterers must be a list of names"),
        ({"clusterers": ["dfs-cst", 3]}, "clusterers must be a list of names"),
        ({"repetitions": 1.5}, "repetitions must be an integer"),
        ({"seed": "1"}, "seed must be an integer"),
        ({"normalize_igd": "false"}, "normalize_igd must be true or false"),
        ({"resources": 5}, "resources must be a file path"),
        ({"datasets": [5]}, "dataset entries must be JSON objects"),
        ({"datasets": [{"name": 5, "path": "x.json"}]}, "dataset entry needs a name string"),
        ({"datasets": [{"name": "p", "path": 7}]}, "dataset 'p': path must be a string"),
        (
            {"datasets": [{"name": "t", "n_workflows": 2.5, "task_count_range": [3, 4], "ccr": 0.5, "parallelism_degree": 0.5}]},
            "dataset 't': n_workflows must be an integer",
        ),
        (
            {"datasets": [{"name": "t", "n_workflows": 2, "task_count_range": [3, 4], "ccr": True, "parallelism_degree": 0.5}]},
            "dataset 't': ccr must be a number",
        ),
        (
            {"datasets": [{"name": "t", "n_workflows": 2, "task_count_range": [3, 4], "ccr": float("inf"), "parallelism_degree": 0.5}]},
            "dataset 't': ccr must be finite and > 0, got inf",
        ),
        ({"optimizer": {"seed": 4}}, "optimizer.seed is not used"),
        ({"output_dir": None}, "output_dir must be a non-empty string, got None"),
        ({"output_dir": 3}, "output_dir must be a non-empty string, got 3"),
        ({"output_dir": ""}, "output_dir must be a non-empty string, got ''"),
    ],
)
def test_run_bad_config_shapes_exit_2(tmp_path, capsys, overrides, named):
    cfg = write_config(tmp_path / "config.json", tmp_path / "results", **overrides)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "optimizer, named",
    [
        ({"populaton": 6}, "optimizer: unknown field(s) populaton"),
        ({"population": "6"}, "optimizer.population must be an integer"),
        ("fast", "optimizer must be a JSON object"),
        ({"seed": -3}, "seed must be >= 0"),
    ],
)
def test_replay_bad_optimizer_block_exit_2(tmp_path, capsys, optimizer, named):
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir)), "--quiet"])
    record = out_dir / "runs" / "t" / "none" / "rep00.json"
    doc = json.loads(record.read_text())
    doc["optimizer"] = {**doc["optimizer"], **optimizer} if isinstance(optimizer, dict) else optimizer
    record.write_text(json.dumps(doc))
    assert main(["replay", "--record", str(record), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "rep00.json" in err
    assert "Traceback" not in err


def _drop(field):
    def edit(doc):
        del doc[field]
        return doc

    return edit


def _set_front(objectives, genes):
    def edit(doc):
        doc["front"] = {"objectives": objectives, "genes": genes}
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        (_drop("clusterer"), "run record lacks field(s) clusterer"),
        (_drop("front"), "run record lacks field(s) front"),
        (lambda doc: [doc], "a run record must be a JSON object"),
        (lambda doc: {**doc, "clusterer": ["none"]}, "clusterer must be a string"),
        (lambda doc: {**doc, "repetition": "0"}, "repetition must be an integer"),
        (lambda doc: {**doc, "front": []}, "front must be an object with 'objectives' and 'genes' lists"),
        (_set_front([[1.0, 2.0, 3.0]], []), "front has 1 objective rows but 0 gene rows"),
        (_set_front([[1.0, 2.0]], [[0]]), "front objectives must be rows of 3 numbers"),
        (_set_front([[1.0, 2.0, "3"]], [[0]]), "front objectives must be rows of 3 numbers"),
        (_set_front([[1.0, 2.0, 3.0]], [[0.5]]), "front genes must be rows of integers of one length"),
        (_set_front([[1.0, 2.0, 3.0]] * 2, [[0, 1], [0]]), "front genes must be rows of integers of one length"),
        (lambda doc: json.dumps(doc)[:40], "rep00.json: invalid JSON"),
        (lambda doc: {**doc, "dataset": {k: v for k, v in doc["dataset"].items() if k != "seed"}}, "generator dataset lacks its seed"),
        (lambda doc: {**doc, "repetition": "x"}, "repetition must be an integer, got 'x'"),
        (lambda doc: {**doc, "seed": 1.5}, "seed must be an integer"),
        (lambda doc: {**doc, "seed": doc["seed"] + 1}, "differs from optimizer.seed"),
        (lambda doc: {**doc, "dataset": 3}, "dataset entries must be JSON objects"),
        (lambda doc: {**doc, "dataset": {**doc["dataset"], "ccr": "x"}}, "ccr must be a number"),
        (lambda doc: {**doc, "clusterer": "nope"}, "unknown clusterer 'nope'"),
        (lambda doc: {**doc, "dataset": {**doc["dataset"], "n_workflows": 0}}, "n_workflows must be >= 1"),
        (lambda doc: {**doc, "dataset": {**doc["dataset"], "seed": -1}}, "dataset 't': seed must be >= 0"),
        (lambda doc: {**doc, "optimizer": {**doc["optimizer"], "mutation_rate": 2.0}}, "mutation_rate must be in [0, 1]"),
        (lambda doc: {**doc, "front": {**doc["front"], "genes": [[6] + g[1:] for g in doc["front"]["genes"]]}},
         "front genes must be resource indices in 0..5"),
        (lambda doc: {**doc, "front": {**doc["front"], "genes": [g + [0] for g in doc["front"]["genes"]]}},
         "front genes have 7 entries, but the rebuilt plan has 6 clusters"),
        # JSON reads an integer literal beyond the float range as an int that float() refuses
        (lambda doc: {**doc, "dataset": {**doc["dataset"], "ccr": 10**400}}, "dataset 't': ccr is out of the float range"),
        (lambda doc: {**doc, "optimizer": {**doc["optimizer"], "crossover_rate": 10**400}},
         "optimizer.crossover_rate is out of the float range"),
        (lambda doc: {**doc, "resources": {"resources": [{**doc["resources"]["resources"][0], "cpu": 10**400}]}},
         "rep00.json.resources[0].cpu: must be finite"),
        # numpy reads JSON true and false among numbers as 1 and 0
        (lambda doc: {**doc, "front": {**doc["front"], "genes": [[True] + g[1:] for g in doc["front"]["genes"]]}},
         "front genes must be rows of integers of one length"),
        (lambda doc: {**doc, "front": {**doc["front"], "objectives": [[False] + o[1:] for o in doc["front"]["objectives"]]}},
         "front objectives must be rows of 3 numbers"),
        (lambda doc: {**doc, "dataset": {"name": "t", "path": "nope.json"}},
         "rep00.json: dataset 't': file nope.json does not exist"),
        # Python's json reads NaN and Infinity
        (lambda doc: {**doc, "front": {**doc["front"], "objectives": [[math.nan] + o[1:] for o in doc["front"]["objectives"]]}},
         "front objectives must be rows of 3 numbers, all finite"),
        (lambda doc: {**doc, "front": {**doc["front"], "objectives": [o[:2] + [-math.inf] for o in doc["front"]["objectives"]]}},
         "front objectives must be rows of 3 numbers, all finite"),
    ],
)
def test_replay_bad_record_schema_exit_2(tmp_path, capsys, edit, named):
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir)), "--quiet"])
    record = out_dir / "runs" / "t" / "none" / "rep00.json"
    edited = edit(json.loads(record.read_text()))
    record.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    assert main(["replay", "--record", str(record), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "rep00.json" in err
    assert "Traceback" not in err


def test_eval_follows_config_normalize_igd(tmp_path):
    out_dir = tmp_path / "results"
    cfg = write_config(tmp_path / "config.json", out_dir, normalize_igd=False, repetitions=2)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    for flags, name in (([], "default"), (["--raw-igd"], "raw")):
        assert main(["eval", "--runs", str(out_dir / "runs"), "--out", str(tmp_path / name), "--quiet", *flags]) == 0
        for csv_name in ("t_runs.csv", "aggregate.csv"):
            assert (tmp_path / name / csv_name).read_bytes() == (out_dir / "metrics" / csv_name).read_bytes()


def test_eval_names_record_with_invalid_json(tmp_path, capsys):
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir, repetitions=2)), "--quiet"])
    bad = out_dir / "runs" / "t" / "none" / "rep01.json"
    bad.write_text(bad.read_text()[:40])
    assert main(["eval", "--runs", str(out_dir / "runs"), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: invalid JSON" in err
    assert "Traceback" not in err


def test_undecodable_config_and_record_are_named(tmp_path, capsys):
    """Bytes that do not decode name their file, whichever verb reads them."""
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir, repetitions=2)), "--quiet"])
    config = tmp_path / "bad.json"
    record = out_dir / "runs" / "t" / "none" / "rep01.json"
    for path in (config, record):
        path.write_bytes(b"\xff{}")
    for argv, path in (
        (["run", "--config", str(config)], config),
        (["replay", "--record", str(record)], record),
        (["eval", "--runs", str(out_dir / "runs"), "--out", str(tmp_path / "o")], record),
    ):
        assert main([*argv, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: ")
        assert "can't decode byte 0xff in position 0" in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_eval_names_record_with_non_finite_objective(tmp_path, capsys, value):
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir, repetitions=2)), "--quiet"])
    bad = out_dir / "runs" / "t" / "none" / "rep01.json"
    doc = json.loads(bad.read_text())
    doc["front"]["objectives"][0][1] = value
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--runs", str(out_dir / "runs"), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: front objectives must be rows of 3 numbers, all finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [[], ["--raw-igd"]])
def test_eval_names_run_whose_igd_overflows(tmp_path, capsys, raw):
    """A finite objective far beyond the union reference's range passes
    load_record, but its squared distance overflows float: exit 2, naming
    the run, where the metrics used to come out changed with exit 0."""
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir, repetitions=2)), "--quiet"])
    bad = out_dir / "runs" / "t" / "none" / "rep01.json"
    doc = json.loads(bad.read_text())
    doc["front"]["objectives"][0] = [1e200, 1e200, 1e200]
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--runs", str(out_dir / "runs"), "--out", str(tmp_path / "o"), "--quiet", *raw]) == 2
    err = capsys.readouterr().err
    assert "error: dataset t, clusterer none, repetition 1: " in err
    assert "overflows float" in err and "Traceback" not in err


def test_eval_names_record_with_empty_front(tmp_path, capsys):
    """A record may store an empty front (replay reaches its dataset check),
    but eval has no metrics for it: exit 2, naming the record."""
    out_dir = tmp_path / "results"
    main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir, repetitions=2)), "--quiet"])
    bad = out_dir / "runs" / "t" / "none" / "rep01.json"
    doc = json.loads(bad.read_text())
    doc["front"] = {"objectives": [], "genes": []}
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--runs", str(out_dir / "runs"), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: the front is empty" in err
    assert "Traceback" not in err


def test_eval_refuses_config_beside_runs(tmp_path, capsys):
    """The config.json beside runs/ must load and validate, as for `run`;
    the error names the file."""
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(write_config(tmp_path / "config.json", out_dir)), "--quiet"]) == 0
    stored = out_dir / "config.json"
    for fields, message in (
        ({"clusterers": "none"}, "clusterers must be a list of names"),
        ({"datasets": []}, "no datasets configured"),
        ({"repetitions": 0, "optimizer": {"population": 1}}, "repetitions must be >= 1"),
    ):
        write_config(stored, out_dir, **fields)
        assert main(["eval", "--runs", str(out_dir / "runs"), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"{stored}: {message}" in err
        assert "Traceback" not in err


def test_eval_missing_runs_exit_2(tmp_path, capsys):
    assert main(["eval", "--runs", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "gen"
    proc = subprocess.run(
        [sys.executable, "-m", "fairsched", "gen", "--out", str(out), "--seed", "1",
         "--workflows", "1", "--tasks", "3", "3", "--ccr", "1.0", "--parallelism", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "dataset.json").exists()
    help_proc = subprocess.run(
        [sys.executable, "-m", "fairsched", "--help"], capture_output=True, text=True
    )
    assert help_proc.returncode == 0
    for verb in ("run", "gen", "eval", "replay"):
        assert verb in help_proc.stdout
