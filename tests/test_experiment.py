from __future__ import annotations

import json
import multiprocessing
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairsched import experiment
from fairsched.clustering import make_plan, order_interleave
from fairsched.experiment import (
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    RunRecord,
    load_config,
    load_record,
    replay,
    run_experiment,
    score_stored_runs,
)
from fairsched.evaluation import gene_dtype
from fairsched.generator import GeneratorSpec, generate, stable_seed
from fairsched.io import FormatError, default_catalog, load_native, load_resources, save_native
from fairsched.model import validate
from fairsched.nsga3 import Front, OptimizerConfig, run
from oracles import read_run_scores_csv


def tiny_gen(seed=5, n_workflows=2):
    return GeneratorSpec(
        n_workflows=n_workflows,
        task_count_range=(3, 5),
        ccr=0.5,
        parallelism_degree=0.5,
        seed=seed,
    )


def tiny_config(tmp_path, **overrides):
    base = dict(
        datasets=(
            DatasetSpec(name="dsA", generator=tiny_gen(seed=5)),
            DatasetSpec(name="dsB", generator=tiny_gen(seed=6)),
        ),
        clusterers=("dfs-cst", "none"),
        optimizer=OptimizerConfig(population=8, generations=4, divisions=6, seed=0),
        repetitions=2,
        seed=42,
        output_dir=str(tmp_path / "results"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_dataset_spec_validation():
    with pytest.raises(ConfigError, match="name"):
        DatasetSpec(name="").validate()
    with pytest.raises(ConfigError, match="exactly one"):
        DatasetSpec(name="d").validate()
    with pytest.raises(ConfigError, match="exactly one"):
        DatasetSpec(name="d", generator=tiny_gen(), path="x.json").validate()
    with pytest.raises(ConfigError, match="dsX"):
        DatasetSpec(name="dsX", generator=replace(tiny_gen(), ccr=-1.0)).validate()
    DatasetSpec(name="d", path="x.json").validate()


def test_dataset_spec_dict_round_trip():
    spec = DatasetSpec(name="d", generator=tiny_gen(seed=9))
    again = DatasetSpec.from_dict(spec.to_dict())
    assert again == spec
    p = DatasetSpec(name="d", path="data/x.json")
    assert DatasetSpec.from_dict(p.to_dict()) == p


def test_dataset_spec_seed_defaults_to_master_derivation():
    doc = {"name": "dsQ", "n_workflows": 2, "task_count_range": [3, 5], "ccr": 0.5, "parallelism_degree": 0.5}
    spec = DatasetSpec.from_dict(doc, master_seed=7)
    assert spec.generator.seed == stable_seed(7, "dataset", "dsQ")
    explicit = DatasetSpec.from_dict({**doc, "seed": 123}, master_seed=7)
    assert explicit.generator.seed == 123


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="no datasets"):
        tiny_config(tmp_path, datasets=()).validate()
    dup = (DatasetSpec("d", generator=tiny_gen()), DatasetSpec("d", generator=tiny_gen(6)))
    with pytest.raises(ConfigError, match="unique"):
        tiny_config(tmp_path, datasets=dup).validate()
    with pytest.raises(ConfigError, match="unknown clusterer"):
        tiny_config(tmp_path, clusterers=("dfs-cst", "k-means")).validate()
    with pytest.raises(ConfigError, match="unique"):
        tiny_config(tmp_path, clusterers=("p2p", "p2p")).validate()
    with pytest.raises(ConfigError, match="repetitions"):
        tiny_config(tmp_path, repetitions=0).validate()
    with pytest.raises(ConfigError, match="population"):
        tiny_config(tmp_path, optimizer=OptimizerConfig(population=1)).validate()


def test_invalid_config_fails_before_writing_outputs(tmp_path):
    out = tmp_path / "never"
    cfg = tiny_config(tmp_path, clusterers=("nope",), output_dir=str(out))
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert not out.exists()


def test_config_from_dict_defaults():
    cfg = ExperimentConfig.from_dict({"datasets": [{"name": "d", "path": "x.json"}]})
    assert cfg.clusterers == ("dfs-cst", "p2p", "mdnc")
    assert cfg.repetitions == 10
    assert cfg.optimizer == OptimizerConfig()
    assert cfg.normalize_igd is True
    with pytest.raises(ConfigError, match="datasets"):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.from_dict([1, 2])


def test_config_table2_shorthand():
    cfg = ExperimentConfig.from_dict({"datasets": "table2", "seed": 3})
    assert len(cfg.datasets) == 16
    assert [d.name for d in cfg.datasets] == [f"ds{i:02d}" for i in range(1, 17)]
    assert all(d.generator is not None for d in cfg.datasets)
    assert cfg.datasets[0].generator.seed == stable_seed(3, "dataset", "ds01")


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"datasets": [{"name": "d", "path": "x.json"}], "seed": 9}))
    assert load_config(good).seed == 9


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(tmp_path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_run_experiment_tree_and_contents(tmp_path):
    cfg = tiny_config(tmp_path)
    out = run_experiment(cfg)
    assert out == Path(cfg.output_dir)

    assert json.loads((out / "config.json").read_text()) == cfg.to_dict()
    catalog = load_resources(out / "resources.json")
    assert len(catalog) == 6

    for name in ("dsA", "dsB"):
        ws = load_native(out / "datasets" / f"{name}.json")
        assert validate(ws) == []
        for clusterer in cfg.clusterers:
            run_dir = out / "runs" / name / clusterer
            for rep in range(cfg.repetitions):
                record_path = run_dir / f"rep{rep:02d}.json"
                assert record_path.exists()
                assert (run_dir / f"rep{rep:02d}_front.csv").exists()
                record = load_record(record_path)
                assert record.optimizer.seed == stable_seed(cfg.seed, name, clusterer, rep)
                assert json.loads(record_path.read_text())["seed"] == record.optimizer.seed
                assert len(record.front) >= 1
                assert "wall_time" not in record_path.read_text()

        rows = read_run_scores_csv(out / "metrics" / f"{name}_runs.csv")
        assert len(rows) == len(cfg.clusterers) * cfg.repetitions
        assert {r.algorithm for r in rows} == set(cfg.clusterers)

    agg_lines = (out / "metrics" / "aggregate.csv").read_text().strip().splitlines()
    assert len(agg_lines) == 1 + 2 * len(cfg.clusterers)
    rdi_lines = (out / "metrics" / "rdi.csv").read_text().strip().splitlines()
    assert len(rdi_lines) == 3


def test_run_experiment_rerun_is_bit_identical(tmp_path):
    cfg = tiny_config(tmp_path, datasets=(DatasetSpec(name="dsA", generator=tiny_gen()),), repetitions=1)
    out = run_experiment(cfg)
    snapshot = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert snapshot
    run_experiment(cfg)
    after = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert snapshot == after


def _tree(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_and_two_workers_write_identical_trees(tmp_path, monkeypatch):
    """Datasets of unequal size, one read from a native file: the worker
    that finishes first must not change any file, nor the metrics order."""
    from fairsched.generator import generate

    save_native(generate(tiny_gen(seed=11, n_workflows=3)), tmp_path / "mine.json")
    datasets = (
        DatasetSpec(name="big", generator=replace(tiny_gen(seed=7, n_workflows=5), task_count_range=(8, 12))),
        DatasetSpec(name="mine", path=str(tmp_path / "mine.json")),
        DatasetSpec(name="small", generator=tiny_gen(seed=8, n_workflows=1)),
    )
    trees = []
    for cpus in (1, 2):  # 2: a pool even on one CPU
        monkeypatch.setattr(experiment, "_available_cpus", lambda: cpus)
        workdir = tmp_path / f"cpus{cpus}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)  # the same relative output_dir: config.json echoes it
        out = run_experiment(tiny_config(tmp_path, datasets=datasets, output_dir="results"))
        assert multiprocessing.active_children() == []
        trees.append(_tree(workdir / out))
    # config and catalog, 2 generated sets, 24 record and front files, 5 metric CSVs
    assert len(trees[0]) == 2 + 2 + 3 * 2 * 2 * 2 + 3 + 2
    assert trees[0] == trees[1]


_START_METHOD_SCRIPT = """
import multiprocessing, sys
from fairsched import experiment

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    experiment._available_cpus = lambda: 2  # a pool even on one CPU
    experiment.run_experiment(experiment.load_config("config.json"))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_not_started_by_fork_write_the_same_tree(tmp_path, monkeypatch, method):
    """Such workers import fairsched afresh and inherit nothing of the parent."""
    doc = tiny_config(tmp_path, output_dir="results").to_dict()
    for side in ("serial", method):
        (tmp_path / side).mkdir()
        (tmp_path / side / "config.json").write_text(json.dumps(doc))
    (tmp_path / method / "start.py").write_text(_START_METHOD_SCRIPT)
    proc = subprocess.run(
        [sys.executable, "start.py", method], cwd=tmp_path / method, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path / "serial")
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 1)
    run_experiment(load_config("config.json"))
    serial = _tree(tmp_path / "serial" / "results")
    assert len(serial) > 10
    assert _tree(tmp_path / method / "results") == serial


_LOGGING_SCRIPT = """
import logging, multiprocessing, sys, time
from fairsched import experiment

if __name__ == "__main__":
    method, level, cpus, formatter = sys.argv[1:]
    multiprocessing.set_start_method(method)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s| %(message)s")
    if formatter == "unpicklable":
        logging.getLogger().handlers[0].formatter.converter = lambda secs: time.gmtime(secs)
    experiment._available_cpus = lambda: int(cpus)  # 2: a pool even on one CPU
    experiment.run_experiment(experiment.load_config("config.json"))
"""


@pytest.mark.parametrize(
    "method, level, cpus, formatter",
    [
        pytest.param("fork", "INFO", 1, "plain", id="one-worker"),
        pytest.param("fork", "INFO", 2, "plain", id="fork-INFO"),
        pytest.param("spawn", "INFO", 2, "plain", id="spawn-INFO"),
        pytest.param("forkserver", "INFO", 2, "plain", id="forkserver-INFO"),
        pytest.param("spawn", "WARNING", 2, "plain", id="spawn-WARNING"),
        pytest.param("spawn", "INFO", 2, "unpicklable", id="spawn-INFO-unpicklable-formatter"),
    ],
)
def test_worker_progress_lines_appear_once(tmp_path, method, level, cpus, formatter):
    """A slow dataset before a fast one: every per-run progress line is
    shown once, in the caller's format and in config order, for one worker
    or two however they were started, even when the caller's formatter
    cannot be pickled; at the caller's WARNING level none is."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    datasets = (
        DatasetSpec(name="big", generator=replace(tiny_gen(seed=7, n_workflows=100), task_count_range=(50, 70))),
        DatasetSpec(name="small", generator=tiny_gen(seed=8, n_workflows=1)),
    )
    doc = tiny_config(tmp_path, datasets=datasets, output_dir="results", clusterers=("none",)).to_dict()
    (tmp_path / "config.json").write_text(json.dumps(doc))
    (tmp_path / "start.py").write_text(_LOGGING_SCRIPT)
    proc = subprocess.run(
        [sys.executable, "start.py", method, level, str(cpus), formatter],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    shown = [line for line in proc.stderr.splitlines() if " / none / rep " in line]
    expected = [] if level == "WARNING" else [f"{ds} / none / rep {rep}" for ds in ("big", "small") for rep in (0, 1)]
    assert [line.split(":")[0] for line in shown] == [f"INFO fairsched.experiment| {e}" for e in expected], proc.stderr
    for line in shown:
        assert re.fullmatch(r"INFO fairsched\.experiment\| \w+ / none / rep \d: \d+ front points, \d+\.\d\ds", line), line


def test_worker_count_is_capped_by_cpus_and_datasets(tmp_path, monkeypatch):
    """The pool is asked for its size and refused, so no worker starts."""
    import concurrent.futures

    class NoPool(Exception):
        pass

    sizes = []

    def recording_pool(workers, **options):
        sizes.append(workers)
        raise NoPool

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    three = tuple(DatasetSpec(name=f"ds{i}", generator=tiny_gen(seed=i)) for i in range(3))
    for cpus in (64, 2):
        monkeypatch.setattr(experiment, "_available_cpus", lambda: cpus)
        with pytest.raises(NoPool):
            run_experiment(tiny_config(tmp_path / f"cpus{cpus}", datasets=three))
    assert sizes == [3, 2]
    # one worker, for one dataset or one CPU, runs in this process without a pool
    for cpus, datasets in ((32, three[:1]), (1, three)):
        monkeypatch.setattr(experiment, "_available_cpus", lambda: cpus)
        run_experiment(tiny_config(tmp_path / f"one{cpus}", datasets=datasets, repetitions=1))
    assert sizes == [3, 2]


def test_replaced_loop_name_keeps_datasets_in_this_process(tmp_path, monkeypatch):
    """A stand-in sees every run, as a tracer must: in a forked worker its
    calls would be lost, and a spawned one would not call it at all."""
    real = experiment.run_with_evaluator
    seeds = []

    def counting(evaluator, opt):
        seeds.append(opt.seed)
        return real(evaluator, opt)

    monkeypatch.setattr(experiment, "run_with_evaluator", counting)
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    cfg = tiny_config(tmp_path)
    run_experiment(cfg)
    assert len(seeds) == len(cfg.datasets) * len(cfg.clusterers) * cfg.repetitions
    assert multiprocessing.active_children() == []


def test_failing_dataset_stops_the_pool(tmp_path, monkeypatch):
    """The second dataset fails at once in its worker while the first runs
    on: the first failure in config order is raised, as without workers,
    and no worker is left."""
    (tmp_path / "broken.json").write_text("{")
    datasets = (
        DatasetSpec(name="slow", generator=replace(tiny_gen(seed=7, n_workflows=24), task_count_range=(20, 30))),
        DatasetSpec(name="broken", path=str(tmp_path / "broken.json")),
        *(DatasetSpec(name=f"small{i:02d}", generator=tiny_gen(seed=i)) for i in range(2, 6)),
    )
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(experiment, "_available_cpus", lambda: cpus)
        cfg = tiny_config(tmp_path / f"cpus{cpus}", datasets=datasets)
        with pytest.raises(FormatError, match="broken.json: invalid JSON") as raised:
            run_experiment(cfg)
        assert multiprocessing.active_children() == []
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_missing_native_dataset_fails_before_any_worker_or_record(tmp_path, monkeypatch):
    """The file is checked before config.json is written, so no worker runs
    the first dataset and writes its records."""
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)
    datasets = (
        DatasetSpec(name="fine", generator=tiny_gen(seed=5)),
        DatasetSpec(name="gone", path=str(tmp_path / "no_such.json")),
    )
    out = tmp_path / "results"
    with pytest.raises(ConfigError, match=r"^dataset 'gone': file .*no_such.json does not exist$"):
        run_experiment(tiny_config(tmp_path, datasets=datasets, output_dir=str(out)))
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_run_experiment_accepts_file_datasets(tmp_path):
    from fairsched.generator import generate

    ws = generate(tiny_gen(seed=11))
    data = tmp_path / "mine.json"
    save_native(ws, data)
    cfg = tiny_config(
        tmp_path,
        datasets=(DatasetSpec(name="mine", path=str(data)),),
        clusterers=("none",),
        repetitions=1,
    )
    out = run_experiment(cfg)
    # file datasets are referenced, not copied
    assert not (out / "datasets" / "mine.json").exists()
    record = load_record(out / "runs" / "mine" / "none" / "rep00.json")
    assert record.dataset.path == str(data)


def test_single_run_scores_zero_igd_against_itself(tmp_path):
    cfg = tiny_config(
        tmp_path,
        datasets=(DatasetSpec(name="solo", generator=tiny_gen()),),
        clusterers=("dfs-cst",),
        repetitions=1,
    )
    out = run_experiment(cfg)
    rows = read_run_scores_csv(out / "metrics" / "solo_runs.csv")
    assert len(rows) == 1
    assert rows[0].igd == 0.0
    assert rows[0].hv > 0.0


def test_score_stored_runs_reproduces_metrics(tmp_path):
    for normalize_igd in (True, False):
        cfg = tiny_config(tmp_path / str(normalize_igd), normalize_igd=normalize_igd)
        out = run_experiment(cfg)
        rescored = score_stored_runs(out / "runs", tmp_path / f"rescored_{normalize_igd}")
        for name in ("dsA_runs.csv", "dsB_runs.csv", "aggregate.csv", "rdi.csv"):
            a = (out / "metrics" / name).read_bytes()
            b = (rescored / name).read_bytes()
            assert a == b, (name, normalize_igd)


def test_score_stored_runs_requires_records(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        score_stored_runs(tmp_path / "nope", tmp_path / "out")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError, match="no run records"):
        score_stored_runs(empty, tmp_path / "out")


def test_replay_confirms_stored_front(tmp_path):
    cfg = tiny_config(
        tmp_path,
        datasets=(DatasetSpec(name="dsA", generator=tiny_gen()),),
        clusterers=("p2p",),
        repetitions=1,
    )
    out = run_experiment(cfg)
    record_path = out / "runs" / "dsA" / "p2p" / "rep00.json"
    front, matches = replay(record_path)
    assert matches
    assert len(front) >= 1


def test_replay_detects_tampered_record(tmp_path):
    cfg = tiny_config(
        tmp_path,
        datasets=(DatasetSpec(name="dsA", generator=tiny_gen()),),
        clusterers=("none",),
        repetitions=1,
    )
    out = run_experiment(cfg)
    record_path = out / "runs" / "dsA" / "none" / "rep00.json"
    doc = json.loads(record_path.read_text())
    doc["front"]["objectives"][0][0] += 1.0
    record_path.write_text(json.dumps(doc))
    _, matches = replay(record_path)
    assert not matches


@pytest.mark.parametrize("searched", [True, False], ids=["searched", "empty"])
def test_record_round_trip_keeps_front_matrices(tmp_path, searched):
    ds = DatasetSpec(name="dsA", generator=tiny_gen())
    catalog = default_catalog()
    opt = OptimizerConfig(population=6, generations=2, divisions=4, seed=5)
    front = Front(np.empty((0, 0), dtype=gene_dtype(len(catalog))))
    if searched:
        ws = generate(ds.generator)
        plan = make_plan(ws, catalog, "dfs-cst")
        front = run(ws, catalog, plan, order_interleave(plan, ws), opt)
        assert len(front) >= 1
    RunRecord(ds, "dfs-cst", 0, opt, catalog, front).save(tmp_path / "rec.json")
    loaded = load_record(tmp_path / "rec.json").front
    assert loaded.genes.dtype == gene_dtype(len(catalog))
    for a, b in ((front.genes, loaded.genes), (front.objectives, loaded.objectives)):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def test_replay_missing_dataset_file_fails_clearly(tmp_path):
    record = RunRecord(
        dataset=DatasetSpec(name="gone", path="no/such/file.json"),
        clusterer="none",
        repetition=0,
        optimizer=OptimizerConfig(population=4, generations=1, seed=1),
        catalog=default_catalog(),
        front=Front(),
    )
    path = tmp_path / "record.json"
    record.save(path)
    with pytest.raises(ConfigError, match="does not exist"):
        replay(path)
