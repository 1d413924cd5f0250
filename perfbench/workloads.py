"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone (`setup`), repeats one
fixed unit of work (`run_pass`), and checks every operation of every pass
afterwards (`check`). Passes of one run use identical inputs, so each pass
after the first must reproduce the first bit for bit; the first is checked
against contexts rebuilt independently through the public API.

Why these four:

* table2        the job users run: the 16-dataset design through
                run_experiment, mixing 80-task sets (selection as costly
                as decoding) with 1.5k-task sets (decoding dominates), and
                writing the result tree.
* wide-decode   1.5k-task sets at population 100 through
                run_with_evaluator: decoding is most of the time and every
                genome is distinct.
* small-select  80-task sets at population 92 (91 reference directions,
                rounded up to even): selection, sorting and per-slot random
                draws cost more than decoding, and genomes repeat.
* rescore       score_stored_runs over a record tree that set-up writes:
                record loading and the union reference dominate; nothing
                is decoded.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from fairsched import (
    Evaluator,
    ExperimentConfig,
    GeneratorSpec,
    OptimizerConfig,
    compute_baselines,
    default_catalog,
    ensure_valid,
    generate,
    make_plan,
    order_interleave,
    replay,
    run_experiment,
    score_stored_runs,
    stable_seed,
    table2_specs,
)
from fairsched.experiment import load_record
from fairsched.nsga3 import run_with_evaluator

from checks import fronts_digest, front_problems, front_rows, rebuild_context


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    tree_bytes: int = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def _spec_doc(name: str, spec: GeneratorSpec) -> dict:
    doc = asdict(spec)
    doc["task_count_range"] = list(spec.task_count_range)
    return {"name": name, **doc}


def _file_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _csv_rows(data: bytes, key_width: int) -> dict[tuple[str, ...], str]:
    """Data rows of a metrics CSV keyed by their first key_width fields."""
    lines = data.decode().splitlines()[1:]
    return {tuple(line.split(",")[:key_width]): line for line in lines}


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    name = ""
    n_setups = 5  # set-up is timed this many times; setup_s is the median

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.catalog = default_catalog()

    def reset(self) -> None:
        """Undo the previous set-up's side effects; not timed."""

    def setup(self, tracer):
        raise NotImplementedError

    def run_pass(self, state, tracer, index: int):
        raise NotImplementedError

    def collect(self, output, index: int):
        """Turn a pass's output into what check() needs; not timed."""
        return output

    def check(self, state, outputs: list) -> Verdict:
        raise NotImplementedError


class DirectRuns(Workload):
    """Optimizer runs through run_with_evaluator on prebuilt evaluators,
    with the finest and the coarsest gene spaces: dfs-cst and none."""

    clusterers = ("dfs-cst", "none")
    population = 0
    generations = 0

    def specs(self) -> list[tuple[str, GeneratorSpec]]:
        raise NotImplementedError

    def setup(self, tracer):
        T = tracer.wrap
        contexts = []
        for name, spec in self.specs():
            ws = T("model.ensure_valid", ensure_valid)(T("generator.generate", generate)(spec))
            baselines = T("evaluation.baselines", compute_baselines)(ws, self.catalog)
            for clusterer in self.clusterers:
                plan = T("clustering.make_plan", make_plan)(ws, self.catalog, clusterer)
                order = T("clustering.order", order_interleave)(plan, ws)
                evaluator = T("evaluation.init", Evaluator)(ws, self.catalog, plan, order, baselines)
                cfg = OptimizerConfig(
                    population=self.population,
                    generations=self.generations,
                    seed=stable_seed(self.seed, self.name, name, clusterer),
                )
                contexts.append((f"{name}/{clusterer}", spec, clusterer, evaluator, cfg))
        return contexts

    def run_pass(self, contexts, tracer, index):
        run = tracer.wrap("nsga3.run", run_with_evaluator)
        fronts = []
        for _, _, _, evaluator, cfg in contexts:
            try:
                fronts.append(run(evaluator, cfg))
            except Exception as exc:  # a run that raises is a failed operation
                fronts.append(exc)
        return fronts

    def collect(self, output, index):
        """Per run: the front's digest, and its rows for the first pass only
        (later passes are compared by digest, so their memory is not kept)."""
        collected = []
        for front in output:
            if isinstance(front, Exception):
                collected.append(front)
            else:
                rows = front_rows(front)
                collected.append((fronts_digest([("", rows)]), rows if index == 0 else None))
        return collected

    def check(self, contexts, outputs):
        verdict = Verdict()
        first = outputs[0]
        for i, (label, spec, clusterer, _, _) in enumerate(contexts):
            ctx = rebuild_context(spec, self.catalog, clusterer)
            for k, fronts in enumerate(outputs):
                verdict.attempted += 1
                run = fronts[i]
                if isinstance(run, Exception):
                    verdict.fail(f"pass {k} {label}: raised {run!r}")
                elif k == 0:
                    problems = front_problems(ctx, *run[1])
                    if problems:
                        verdict.fail(f"{label}: {problems[0]}")
                elif isinstance(first[i], Exception) or run[0] != first[i][0]:
                    verdict.fail(f"pass {k} {label}: front differs from pass 0")
        verdict.digest = fronts_digest(
            (label, run[1]) for (label, *_), run in zip(contexts, first) if not isinstance(run, Exception)
        )
        return verdict


class WideDecode(DirectRuns):
    """ds16 shape: 30 workflows x 40-60 tasks, ccr 1000, parallelism 0.30."""

    name = "wide-decode"
    n_setups = 11

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.population, self.generations = (10, 2) if quick else (100, 2)

    def specs(self):
        n_workflows = 4 if self.quick else 30
        spec = GeneratorSpec(n_workflows, (40, 60), 1000.0, 0.30, seed=stable_seed(self.seed, self.name))
        return [("ds16", spec)]


class SmallSelect(DirectRuns):
    """ds01-ds04 shapes: 5 workflows x 10-20 tasks, ccr 0.1/1000, parallelism 0.05/0.30."""

    name = "small-select"
    n_setups = 21

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.population, self.generations = (12, 2) if quick else (92, 8)

    def specs(self):
        shapes = [(ccr, par) for ccr in (0.1, 1000.0) for par in (0.05, 0.30)]
        if self.quick:
            shapes = shapes[:1]
        return [
            (f"ds{i + 1:02d}", GeneratorSpec(5, (10, 20), ccr, par, seed=stable_seed(self.seed, self.name, i)))
            for i, (ccr, par) in enumerate(shapes)
        ]


class Table2(Workload):
    """run_experiment on the 16-dataset design, criterion-5 shape, one repetition."""

    name = "table2"

    def config(self) -> ExperimentConfig:
        if self.quick:
            datasets = [_spec_doc(n, s) for n, s in table2_specs(self.seed) if n in ("ds01", "ds13")]
            generations = 1
        else:
            datasets = "table2"
            generations = 2
        return ExperimentConfig.from_dict(
            {
                "datasets": datasets,
                "clusterers": ["dfs-cst", "p2p", "mdnc"],
                "optimizer": {"population": 30, "generations": generations, "divisions": 12},
                "repetitions": 1,
                "seed": self.seed,
                "output_dir": str(self.workdir / "unused"),
            }
        )

    def setup(self, tracer):
        """The per-dataset preparation run_experiment repeats inside the pass."""
        T = tracer.wrap
        cfg = self.config()
        for ds in cfg.datasets:
            ws = T("model.ensure_valid", ensure_valid)(T("generator.generate", generate)(ds.generator))
            baselines = T("evaluation.baselines", compute_baselines)(ws, self.catalog)
            for clusterer in cfg.clusterers:
                plan = T("clustering.make_plan", make_plan)(ws, self.catalog, clusterer)
                order = T("clustering.order", order_interleave)(plan, ws)
                T("evaluation.init", Evaluator)(ws, self.catalog, plan, order, baselines)
        return cfg

    def run_pass(self, cfg, tracer, index):
        out = self.workdir / f"pass{index}"
        try:
            return tracer.wrap("experiment.run_experiment", run_experiment)(replace(cfg, output_dir=str(out)))
        except Exception as exc:  # the whole pass failed: every run in it counts
            return exc

    def collect(self, output, index):
        if isinstance(output, Exception):
            return output
        digests = _file_digests(output)
        size = _tree_bytes(output)
        if index > 0:
            shutil.rmtree(output)
        return {"root": output, "files": digests, "bytes": size}

    def check(self, cfg, outputs):
        verdict = Verdict()
        # the files each run's outcome shows up in, keyed by (dataset, clusterer, rep)
        owned = {}
        for ds in cfg.datasets:
            for clusterer in cfg.clusterers:
                for rep in range(cfg.repetitions):
                    stem = f"runs/{ds.name}/{clusterer}/rep{rep:02d}"
                    owned[ds.name, clusterer, rep] = (
                        f"{stem}.json", f"{stem}_front.csv", f"datasets/{ds.name}.json", f"metrics/{ds.name}_runs.csv",
                    )
        runs = list(owned)
        first = outputs[0]
        first_files = {} if isinstance(first, Exception) else first["files"]
        all_owned = {f for files in owned.values() for f in files}
        labelled = []
        contexts = {}
        for k, out in enumerate(outputs):
            if isinstance(out, Exception):
                verdict.attempted += len(runs)
                verdict.fail(f"pass {k}: run_experiment raised {out!r}", len(runs))
                continue
            # config.json echoes the pass's own output directory
            differ = {
                f for f in out["files"].keys() | first_files.keys()
                if f != "config.json" and out["files"].get(f) != first_files.get(f)
            }
            shared_differ = bool(differ - all_owned)
            for run in runs:
                verdict.attempted += 1
                record_file = owned[run][0]
                if any(f not in out["files"] for f in owned[run]):
                    verdict.fail(f"pass {k} {record_file}: output file missing")
                elif k > 0:
                    if shared_differ or differ.intersection(owned[run]):
                        verdict.fail(f"pass {k} {record_file}: result tree differs from pass 0")
                else:
                    try:
                        record = load_record(out["root"] / record_file)
                    except Exception as exc:  # an unreadable record fails its run
                        verdict.fail(f"{record_file}: load_record raised {exc!r}")
                        continue
                    if run[:2] not in contexts:
                        contexts[run[:2]] = rebuild_context(record.dataset.generator, record.catalog, run[1])
                    rows = front_rows(record.front)
                    labelled.append((record_file, rows))
                    problems = front_problems(contexts[run[:2]], *rows)
                    if problems:
                        verdict.fail(f"{record_file}: {problems[0]}")
        if not isinstance(first, Exception):
            verdict.tree_bytes = first["bytes"]
            shutil.rmtree(first["root"])
        verdict.digest = fronts_digest(labelled)
        return verdict


class Rescore(Workload):
    """score_stored_runs over a tree of many repetitions of small sets at a large population."""

    name = "rescore"
    n_setups = 3

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.tree = workdir / "tree"

    def config(self) -> ExperimentConfig:
        n_sets, clusterers, reps, population = (
            (2, ["dfs-cst", "none"], 2, 12) if self.quick else (4, ["dfs-cst", "p2p", "mdnc", "none"], 10, 100)
        )
        shapes = [(ccr, par) for ccr in (0.1, 1000.0) for par in (0.05, 0.30)][:n_sets]
        datasets = [
            _spec_doc(f"ds{i + 1:02d}", GeneratorSpec(5, (10, 20), ccr, par, seed=stable_seed(self.seed, self.name, i)))
            for i, (ccr, par) in enumerate(shapes)
        ]
        return ExperimentConfig.from_dict(
            {
                "datasets": datasets,
                "clusterers": clusterers,
                "optimizer": {"population": population, "generations": 0},
                "repetitions": reps,
                "seed": self.seed,
                "output_dir": str(self.tree),
            }
        )

    def reset(self):
        if self.tree.exists():
            shutil.rmtree(self.tree)

    def setup(self, tracer):
        """Writing the record tree."""
        cfg = self.config()
        tracer.wrap("experiment.run_experiment", run_experiment)(cfg)
        return cfg

    def run_pass(self, cfg, tracer, index):
        out = self.workdir / f"pass{index}"
        try:
            return tracer.wrap("experiment.score_stored_runs", score_stored_runs)(self.tree / "runs", out)
        except Exception as exc:  # the whole pass failed: every record in it counts
            return exc

    def collect(self, output, index):
        if isinstance(output, Exception):
            return output
        files = {p.name: p.read_bytes() for p in sorted(output.iterdir()) if p.is_file()}
        shutil.rmtree(output)
        return files

    def check(self, cfg, outputs):
        verdict = Verdict()
        expected = {p.name: p.read_bytes() for p in sorted((self.tree / "metrics").iterdir())}
        records = sorted((self.tree / "runs").glob("*/*/rep*.json"))
        reordered = set()
        for k, files in enumerate(outputs):
            if isinstance(files, Exception):
                verdict.attempted += len(records)
                verdict.fail(f"pass {k}: score_stored_runs raised {files!r}", len(records))
                continue
            verdict.tree_bytes = sum(len(b) for b in files.values())
            for name in files.keys() | expected.keys():
                if files.get(name) != expected.get(name):
                    reordered.add(name)
            summary_ok = all(
                _csv_rows(files.get(n, b""), key) == _csv_rows(expected[n], key)
                for n, key in (("aggregate.csv", 2), ("rdi.csv", 1))
            )
            for ds in cfg.datasets:
                name = f"{ds.name}_runs.csv"
                want = _csv_rows(expected[name], 3)
                got = _csv_rows(files.get(name, b""), 3)
                verdict.attempted += len(want)
                bad = sum(1 for key, row in want.items() if not summary_ok or got.get(key) != row)
                if bad:
                    verdict.fail(f"pass {k} {name}: {bad} rescored row(s) differ from run_experiment", bad)
        # Rows are matched by key, not by position: score_stored_runs visits
        # clusterer directories in name order, run_experiment in config
        # order, so with the default clusterer order the bytes differ while
        # every row is bit-identical. Reported, not counted as a failure.
        if reordered:
            verdict.notes.append(
                f"rescored {', '.join(sorted(reordered))} differ in bytes from run_experiment's "
                "(row order; rows compared by key)"
            )

        sample = random.Random(self.seed).sample(records, min(len(records), 2 if self.quick else 6))
        for path in sample:
            verdict.attempted += 1
            stem = str(path.relative_to(self.tree))
            try:
                _, matches = replay(path)
                record = load_record(path)
            except Exception as exc:  # a replay that raises is a failed operation
                verdict.fail(f"replay {stem} raised {exc!r}")
                continue
            problems = [] if matches else ["replay does not reproduce the stored front"]
            ctx = rebuild_context(record.dataset.generator, record.catalog, record.clusterer)
            problems += front_problems(ctx, *front_rows(record.front))
            if problems:
                verdict.fail(f"replay {stem}: {problems[0]}")
        verdict.digest = fronts_digest(
            (str(p.relative_to(self.tree)), front_rows(load_record(p).front)) for p in records
        )
        return verdict


WORKLOADS = {w.name: w for w in (Table2, WideDecode, SmallSelect, Rescore)}
