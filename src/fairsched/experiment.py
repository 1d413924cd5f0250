"""Experiment harness: configs, seeded runs, result trees, replay.

A config names datasets (synthetic generator specs or native-format files),
the clusterers to compare, the optimizer settings, and a repetition count.
Each (dataset, clusterer, repetition) run gets its own seed derived from
the master seed by a stable digest, runs the optimizer, and persists a
self-contained run record (dataset definition, catalog, optimizer config,
seed, final front) plus a front CSV. Metrics are then scored per dataset
against the union reference of all its fronts and written as CSV reports.

Datasets run in worker processes, one dataset per task: a worker sets the
dataset up, runs all its clusterers and repetitions and writes their files,
and the parent logs the returned progress lines and scores the returned
fronts in config order.

Determinism: two invocations with the same config produce bit-identical
result trees, whatever the number of workers. For that reason wall-clock
durations are logged but never written into result files, and nothing
iterates over unordered sets when producing output.
"""

from __future__ import annotations

import logging
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import io as wio
from .clustering import CLUSTERERS, make_plan, order_interleave
from .evaluation import Evaluator, compute_baselines, gene_dtype
from .generator import GeneratorSpec, generate, stable_seed, table2_specs
from .metrics import aggregate_scores, score_fronts, write_aggregate_csv, write_rdi_csv, write_run_scores_csv
from .model import ResourceCatalog, WorkflowSet, ensure_valid
from .nsga3 import Front, OptimizerConfig, run_with_evaluator

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """The experiment configuration is unusable."""


def _integer(value, name: str) -> int:
    """An integral JSON number; bools and strings are refused, not cast."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{name} is out of the float range") from None


def _refuse_unknown(doc: dict, known, where: str) -> None:
    """A misspelt field would otherwise be ignored, and its default used."""
    unknown = sorted(map(str, set(doc) - set(known)))
    if unknown:
        raise ConfigError(f"{where}unknown field(s) {', '.join(unknown)}")


_OPTIMIZER_DEFAULTS = {f.name: f.default for f in fields(OptimizerConfig)}
_CONFIG_FIELDS = ("seed", "repetitions", "output_dir", "clusterers", "optimizer", "resources", "normalize_igd", "datasets")
_GENERATOR_FIELDS = ("name", *(f.name for f in fields(GeneratorSpec)))


def _optimizer_from_dict(doc) -> OptimizerConfig:
    """Optimizer settings of a config or run record; omitted fields take the
    OptimizerConfig defaults, given ones must have the type of their default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"optimizer must be a JSON object, got {doc!r}")
    _refuse_unknown(doc, _OPTIMIZER_DEFAULTS, "optimizer: ")
    parse = {int: _integer, float: _real}
    return OptimizerConfig(**{k: parse[type(v)](doc.get(k, v), f"optimizer.{k}") for k, v in _OPTIMIZER_DEFAULTS.items()})


@dataclass(frozen=True)
class DatasetSpec:
    """Either a generator spec or a path to a native-format file."""

    name: str
    generator: GeneratorSpec | None = None
    path: str | None = None

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("dataset entry without a name")
        if (self.generator is None) == (self.path is None):
            raise ConfigError(f"dataset {self.name!r}: exactly one of generator fields or path is required")
        if self.generator is not None:
            try:
                self.generator.validate()
            except ValueError as exc:
                raise ConfigError(f"dataset {self.name!r}: {exc}") from exc

    def to_dict(self) -> dict:
        if self.generator is not None:
            doc = asdict(self.generator)
            doc["task_count_range"] = list(self.generator.task_count_range)
            return {"name": self.name, **doc}
        return {"name": self.name, "path": self.path}

    @classmethod
    def from_dict(cls, doc: dict, master_seed: int = 0) -> "DatasetSpec":
        if not isinstance(doc, dict):
            raise ConfigError(f"dataset entries must be JSON objects, got {doc!r}")
        name = doc.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError(f"dataset entry needs a name string, got {doc!r}")
        if "path" in doc:
            _refuse_unknown(doc, ("name", "path"), f"dataset {name!r} with a path: ")
            if not isinstance(doc["path"], str):
                raise ConfigError(f"dataset {name!r}: path must be a string, got {doc['path']!r}")
            return cls(name=name, path=doc["path"])
        where = f"dataset {name!r}"
        _refuse_unknown(doc, _GENERATOR_FIELDS, f"{where}: ")
        try:
            lo, hi = doc["task_count_range"]
            spec = GeneratorSpec(
                n_workflows=_integer(doc["n_workflows"], f"{where}: n_workflows"),
                task_count_range=(_integer(lo, f"{where}: task_count_range"), _integer(hi, f"{where}: task_count_range")),
                ccr=_real(doc["ccr"], f"{where}: ccr"),
                parallelism_degree=_real(doc["parallelism_degree"], f"{where}: parallelism_degree"),
                seed=_integer(doc.get("seed", stable_seed(master_seed, "dataset", name)), f"{where}: seed"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"dataset {name!r}: bad generator fields ({exc})") from exc
        return cls(name=name, generator=spec)


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    clusterers: tuple[str, ...] = ("dfs-cst", "p2p", "mdnc")
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    repetitions: int = 10
    seed: int = 0
    output_dir: str = "results"
    resources_path: str | None = None
    normalize_igd: bool = True

    def validate(self) -> None:
        if not self.datasets:
            raise ConfigError("no datasets configured")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ConfigError("dataset names must be unique")
        for d in self.datasets:
            d.validate()
        if not self.clusterers:
            raise ConfigError("no clusterers configured")
        for c in self.clusterers:
            if c not in CLUSTERERS:
                raise ConfigError(f"unknown clusterer {c!r}; choose from {sorted(CLUSTERERS)}")
        if len(set(self.clusterers)) != len(self.clusterers):
            raise ConfigError("clusterers must be unique")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        try:
            self.optimizer.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.optimizer.seed != 0:
            raise ConfigError("optimizer.seed is not used: each run's seed comes from the master 'seed'")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "repetitions": self.repetitions,
            "output_dir": self.output_dir,
            "clusterers": list(self.clusterers),
            "optimizer": asdict(self.optimizer),
            "resources": self.resources_path,
            "normalize_igd": self.normalize_igd,
            "datasets": [d.to_dict() for d in self.datasets],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        _refuse_unknown(doc, _CONFIG_FIELDS, "")
        seed = _integer(doc.get("seed", 0), "seed")
        optimizer = _optimizer_from_dict(doc.get("optimizer", {}))
        clusterers = doc.get("clusterers", ["dfs-cst", "p2p", "mdnc"])
        if not isinstance(clusterers, list) or not all(isinstance(c, str) for c in clusterers):
            raise ConfigError(f"clusterers must be a list of names, got {clusterers!r}")
        resources = doc.get("resources")
        if resources is not None and not isinstance(resources, str):
            raise ConfigError(f"resources must be a file path, got {resources!r}")
        normalize_igd = doc.get("normalize_igd", True)
        if not isinstance(normalize_igd, bool):
            raise ConfigError(f"normalize_igd must be true or false, got {normalize_igd!r}")
        output_dir = doc.get("output_dir", "results")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")
        raw_datasets = doc.get("datasets")
        if raw_datasets == "table2":
            datasets = tuple(
                DatasetSpec(name=name, generator=spec) for name, spec in table2_specs(seed)
            )
        elif isinstance(raw_datasets, list):
            datasets = tuple(DatasetSpec.from_dict(d, master_seed=seed) for d in raw_datasets)
        else:
            raise ConfigError("config needs a 'datasets' list (or the string \"table2\")")
        return cls(
            datasets=datasets,
            clusterers=tuple(clusterers),
            optimizer=optimizer,
            repetitions=_integer(doc.get("repetitions", 10), "repetitions"),
            seed=seed,
            output_dir=output_dir,
            resources_path=resources,
            normalize_igd=normalize_igd,
        )


def _parsed(doc) -> ExperimentConfig:
    cfg = ExperimentConfig.from_dict(doc)
    cfg.validate()
    return cfg


def _parses(doc) -> bool:
    try:
        _parsed(doc)
    except ConfigError:
        return False
    return True


def load_config(path, *, labels=None, **overrides) -> ExperimentConfig:
    """Parse and validate a config file. Each non-None override replaces the
    document's top-level field of that name, as if the file held it, so an
    override may mend the file.

    An error in the file alone names the file. An error that only the
    overrides bring about names the overrides that bring it about on their
    own (all of them if none does), each by its entry in `labels`, such as
    the command-line option that set it, or else by its field name."""
    path = Path(path)
    try:
        doc = wio.read_json(path, ConfigError)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    given = {k: v for k, v in overrides.items() if v is not None}
    try:
        return _parsed({**doc, **given} if given and isinstance(doc, dict) else doc)
    except ConfigError as exc:
        error = exc
    if given:
        try:
            _parsed(doc)
        except ConfigError as exc:
            error = exc
        else:
            culprits = [k for k, v in given.items() if not _parses({**doc, k: v})] or list(given)
            names = ", ".join((labels or {}).get(k, k) for k in culprits)
            raise ConfigError(f"{names}: {error}") from error
    raise ConfigError(f"{path}: {error}") from error


@dataclass
class RunRecord:
    """Everything needed to reproduce and audit a single optimizer run."""

    dataset: DatasetSpec
    clusterer: str
    repetition: int
    optimizer: OptimizerConfig
    catalog: ResourceCatalog
    front: Front

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset.to_dict(),
            "clusterer": self.clusterer,
            "repetition": self.repetition,
            "seed": self.optimizer.seed,
            "optimizer": asdict(self.optimizer),
            "resources": wio.resources_to_dict(self.catalog),
            "front": {"objectives": self.front.objectives.tolist(), "genes": self.front.genes.tolist()},
        }

    def save(self, path) -> None:
        wio.write_json(path, self.to_dict())


def _front_rows(rows: list, kinds: str) -> np.ndarray | None:
    """A front's rows as a 2-D array of one of the numpy dtype kinds, or None.
    JSON true and false are neither numbers nor integers, though numpy reads
    them as 1 and 0 among numbers."""
    try:
        array = np.array(rows)
    except ValueError:  # rows of unequal length
        return None
    if array.ndim != 2 or array.dtype.kind not in kinds:
        return None
    return None if bool in set(map(type, chain.from_iterable(rows))) else array


def _front_from_dict(doc, where: str, n_resources: int) -> Front:
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in ("objectives", "genes")):
        raise wio.FormatError(f"{where}: front must be an object with 'objectives' and 'genes' lists")
    if len(doc["objectives"]) != len(doc["genes"]):
        raise wio.FormatError(
            f"{where}: front has {len(doc['objectives'])} objective rows but {len(doc['genes'])} gene rows"
        )
    if not doc["genes"]:
        return Front(np.empty((0, 0), dtype=gene_dtype(n_resources)))
    objectives = _front_rows(doc["objectives"], "iuf")
    if objectives is None or objectives.shape[1] != 3 or not np.isfinite(objectives).all():
        raise wio.FormatError(f"{where}: front objectives must be rows of 3 numbers, all finite")
    genes = _front_rows(doc["genes"], "iu")
    if genes is None:
        raise wio.FormatError(f"{where}: front genes must be rows of integers of one length")
    if genes.min() < 0 or genes.max() >= n_resources:
        raise wio.FormatError(f"{where}: front genes must be resource indices in 0..{n_resources - 1}")
    return Front(genes.astype(gene_dtype(n_resources)), objectives.astype(float))


_RECORD_FIELDS = ("dataset", "clusterer", "repetition", "seed", "optimizer", "resources", "front")


def load_record(path) -> RunRecord:
    """A stored run record; a bad field raises FormatError naming the file."""
    doc = wio.read_json(path)
    if not isinstance(doc, dict):
        raise wio.FormatError(f"{path}: a run record must be a JSON object")
    missing = [k for k in _RECORD_FIELDS if k not in doc]
    if missing:
        raise wio.FormatError(f"{path}: run record lacks field(s) {', '.join(missing)}")
    if isinstance(doc["dataset"], dict) and "path" not in doc["dataset"] and "seed" not in doc["dataset"]:
        raise wio.FormatError(f"{path}: generator dataset lacks its seed")
    if not isinstance(doc["clusterer"], str):
        raise wio.FormatError(f"{path}: clusterer must be a string, got {doc['clusterer']!r}")
    if doc["clusterer"] not in CLUSTERERS:
        raise wio.FormatError(f"{path}: unknown clusterer {doc['clusterer']!r}; choose from {sorted(CLUSTERERS)}")
    try:
        _refuse_unknown(doc, _RECORD_FIELDS, "")
        dataset = DatasetSpec.from_dict(doc["dataset"])
        dataset.validate()
        optimizer = _optimizer_from_dict(doc["optimizer"])
        optimizer.validate()
        repetition = _integer(doc["repetition"], "repetition")
        seed = _integer(doc["seed"], "seed")
    except (ConfigError, ValueError) as exc:
        raise wio.FormatError(f"{path}: {exc}") from exc
    if seed != optimizer.seed:
        # replay runs with optimizer.seed; a record whose seeds disagree
        # would replay a run other than the one it names
        raise wio.FormatError(f"{path}: seed {seed} differs from optimizer.seed {optimizer.seed}")
    catalog = wio.resources_from_dict(doc["resources"], where=str(path))
    front = _front_from_dict(doc["front"], str(path), len(catalog))
    return RunRecord(dataset, doc["clusterer"], repetition, optimizer, catalog, front)


def _native_path(spec: DatasetSpec, base_dir: Path | None = None) -> Path:
    """The file of a native dataset, tried as given and then under base_dir."""
    path = Path(spec.path)
    if base_dir is not None and not path.is_absolute() and not path.exists():
        path = base_dir / path
    if not path.exists():
        raise ConfigError(f"dataset {spec.name!r}: file {spec.path} does not exist")
    return path


def _load_dataset(spec: DatasetSpec, base_dir: Path | None = None) -> WorkflowSet:
    if spec.generator is not None:
        return generate(spec.generator)
    return wio.load_native(_native_path(spec, base_dir))


def _resolve_catalog(cfg: ExperimentConfig) -> ResourceCatalog:
    if cfg.resources_path is None:
        return wio.default_catalog()
    path = Path(cfg.resources_path)
    if not path.exists():
        raise ConfigError(f"resources file {path} does not exist")
    return wio.load_resources(path)


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The names the dataset loop looks up in this module at call time, as
# imported; while one is replaced, run_experiment keeps datasets in-process.
_AS_IMPORTED = {
    name: globals()[name]
    for name in ("generate", "ensure_valid", "compute_baselines", "make_plan", "order_interleave", "Evaluator", "run_with_evaluator")
}


def _run_dataset(
    cfg: ExperimentConfig, catalog: ResourceCatalog, out: Path, ds: DatasetSpec
) -> tuple[dict[str, list[np.ndarray]], list[str]]:
    """Every run of one dataset: set it up, run each clusterer's repetitions,
    write their records and front CSVs; return the fronts by clusterer and
    one progress line per run, for the caller to log."""
    ws = ensure_valid(_load_dataset(ds))
    if ds.generator is not None:
        wio.save_native(ws, out / "datasets" / f"{ds.name}.json")
    baselines = compute_baselines(ws, catalog)
    fronts_by_algorithm: dict[str, list[np.ndarray]] = {}
    lines: list[str] = []
    for clusterer in cfg.clusterers:
        plan = make_plan(ws, catalog, clusterer)
        order = order_interleave(plan, ws)
        evaluator = Evaluator(ws, catalog, plan, order, baselines)
        run_dir = out / "runs" / ds.name / clusterer
        run_dir.mkdir(parents=True, exist_ok=True)
        fronts: list[np.ndarray] = []
        for rep in range(cfg.repetitions):
            opt = replace(cfg.optimizer, seed=stable_seed(cfg.seed, ds.name, clusterer, rep))
            started = time.perf_counter()
            front = run_with_evaluator(evaluator, opt)
            elapsed = time.perf_counter() - started
            RunRecord(ds, clusterer, rep, opt, catalog, front).save(run_dir / f"rep{rep:02d}.json")
            front.to_csv(run_dir / f"rep{rep:02d}_front.csv")
            fronts.append(front.objectives)
            lines.append(f"{ds.name} / {clusterer} / rep {rep}: {len(front)} front points, {elapsed:.2f}s")
        fronts_by_algorithm[clusterer] = fronts
    return fronts_by_algorithm, lines


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Run every (dataset, clusterer, repetition), then score the fronts.

    Datasets run in worker processes, one per available CPU but never more
    than there are datasets; with one worker they run in this process. They
    also run in this process while a name the dataset loop calls has been
    replaced in it, as a tracer's wrapper or a test's stand-in replaces it:
    what a replacement records would stay in a forked worker, and a spawned
    worker would not call it at all. Every run has its own seed and the
    metrics are written in config order, so the tree is the same for any
    number of workers. A missing resources or native dataset file raises
    before anything is written. If datasets fail, the first failure in
    config order is raised, as with one worker, and no worker outlives the
    call; the partial tree left behind is unspecified, because datasets
    after the failed one may already have written their records, and
    which ones differs with the worker count. Worker processes are
    started the platform's default way; a
    script that calls this must guard its top level with
    `if __name__ == "__main__":` where that way is not fork. Workers do
    not log: this process logs each dataset's per-run progress lines at
    INFO once that dataset and every one before it have finished, so they
    come in config order for any worker count.

    Returns the output directory. Layout:

        config.json                      resolved config echo
        resources.json                   catalog used
        datasets/<name>.json             generated datasets, native format
        runs/<ds>/<clusterer>/repNN.json       run records
        runs/<ds>/<clusterer>/repNN_front.csv  front exports
        metrics/<ds>_runs.csv            per-run IGD / hypervolume
        metrics/aggregate.csv            means, stds, RDIs
        metrics/rdi.csv                  wide RDI table
    """
    cfg.validate()
    replaced = any(globals()[name] is not value for name, value in _AS_IMPORTED.items())
    workers = 1 if replaced else min(_available_cpus(), len(cfg.datasets))
    catalog = _resolve_catalog(cfg)
    for ds in cfg.datasets:
        if ds.generator is None:
            _native_path(ds)
    out = Path(cfg.output_dir)
    (out / "datasets").mkdir(parents=True, exist_ok=True)
    (out / "metrics").mkdir(parents=True, exist_ok=True)
    wio.write_json(out / "config.json", cfg.to_dict())
    wio.save_resources(catalog, out / "resources.json")

    pool = None
    if workers > 1:
        # imported here: multiprocessing adds about 0.9 MB to every process
        # that imports it, and most users of this module never start a pool
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers)
    fronts_by_dataset = {}
    try:
        # results in config order: the first failure in config order is raised
        results = (pool.map if pool else map)(partial(_run_dataset, cfg, catalog, out), cfg.datasets)
        for ds, (fronts, lines) in zip(cfg.datasets, results):
            for line in lines:
                log.info(line)
            fronts_by_dataset[ds.name] = fronts
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    _write_metrics(fronts_by_dataset, cfg.normalize_igd, out / "metrics")
    return out


def _write_metrics(fronts_by_dataset, normalize_igd: bool, metrics_dir: Path) -> None:
    """Score each dataset against its own union reference, writing
    <ds>_runs.csv per dataset, then aggregate.csv and rdi.csv."""
    all_scores = []
    for name, fronts_by_algorithm in fronts_by_dataset.items():
        scores = score_fronts(name, fronts_by_algorithm, normalize_igd=normalize_igd)
        write_run_scores_csv(scores, metrics_dir / f"{name}_runs.csv")
        all_scores += scores
    aggregates = aggregate_scores(all_scores)
    write_aggregate_csv(aggregates, metrics_dir / "aggregate.csv")
    write_rdi_csv(aggregates, metrics_dir / "rdi.csv")


def _subdirs(parent: Path, config_order) -> list[Path]:
    """Subdirectories in config order; names the config lacks follow by name."""
    pos = {name: i for i, name in enumerate(config_order)}
    return sorted((p for p in parent.iterdir() if p.is_dir()), key=lambda p: (pos.get(p.name, len(pos)), p.name))


def score_stored_runs(runs_dir, out_dir, normalize_igd: bool | None = None) -> Path:
    """Recompute every metric CSV from stored run records (the `eval` verb),
    in the row order and, unless `normalize_igd` is given, with the IGD
    normalization of the config.json that `run` writes beside runs/. That
    config must load and validate; its errors name the file."""
    runs_dir = Path(runs_dir)
    if not runs_dir.is_dir():
        raise ConfigError(f"runs directory {runs_dir} does not exist")
    config_path = runs_dir.parent / "config.json"
    cfg = None
    if config_path.is_file():
        cfg = load_config(config_path)
    if normalize_igd is None:
        normalize_igd = cfg.normalize_igd if cfg else True
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fronts_by_dataset: dict[str, dict[str, list[np.ndarray]]] = {}
    for ds_dir in _subdirs(runs_dir, [d.name for d in cfg.datasets] if cfg else ()):
        fronts_by_algorithm: dict[str, list[np.ndarray]] = {}
        for cl_dir in _subdirs(ds_dir, cfg.clusterers if cfg else ()):
            fronts = []
            for record_path in sorted(cl_dir.glob("rep*.json")):
                record = load_record(record_path)
                if not record.front:
                    raise wio.FormatError(f"{record_path}: the front is empty, so it has no metrics")
                fronts.append(record.front.objectives)
            if fronts:
                fronts_by_algorithm[cl_dir.name] = fronts
        if fronts_by_algorithm:
            fronts_by_dataset[ds_dir.name] = fronts_by_algorithm
    if not fronts_by_dataset:
        raise ConfigError(f"no run records under {runs_dir}")
    _write_metrics(fronts_by_dataset, normalize_igd, out_dir)
    return out_dir


def replay(record_path) -> tuple[Front, bool]:
    """Re-run a stored record and report whether the front matches exactly."""
    record_path = Path(record_path)
    record = load_record(record_path)
    try:
        ws = ensure_valid(_load_dataset(record.dataset, base_dir=record_path.parent))
    except ConfigError as exc:
        raise ConfigError(f"{record_path}: {exc}") from exc
    plan = make_plan(ws, record.catalog, record.clusterer)
    stored = record.front
    width = stored.genes.shape[1] if stored else plan.n_clusters
    if width != plan.n_clusters:
        raise wio.FormatError(
            f"{record_path}: front genes have {width} entries, but the rebuilt plan has {plan.n_clusters} clusters"
        )
    order = order_interleave(plan, ws)
    front = run_with_evaluator(Evaluator(ws, record.catalog, plan, order), record.optimizer)
    return front, np.array_equal(front.genes, stored.genes) and np.array_equal(front.objectives, stored.objectives)
