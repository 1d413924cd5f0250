from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

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
from fairsched.generator import GeneratorSpec, stable_seed
from fairsched.io import default_catalog, load_native, load_resources, save_native
from fairsched.metrics import read_run_scores_csv
from fairsched.model import validate
from fairsched.nsga3 import Front, OptimizerConfig


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
                assert record.seed == stable_seed(cfg.seed, name, clusterer, rep)
                assert record.optimizer.seed == record.seed
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


def test_replay_missing_dataset_file_fails_clearly(tmp_path):
    record = RunRecord(
        dataset=DatasetSpec(name="gone", path="no/such/file.json"),
        clusterer="none",
        repetition=0,
        seed=1,
        optimizer=OptimizerConfig(population=4, generations=1, seed=1),
        catalog=default_catalog(),
        front=Front(),
    )
    path = tmp_path / "record.json"
    record.save(path)
    with pytest.raises(ConfigError, match="does not exist"):
        replay(path)
