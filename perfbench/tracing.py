"""Spans around fairsched's layer boundaries, recorded from outside the program.

A Tracer records one span (name, start, end, parent) per call it wraps and
keeps every span in memory until the run ends. It wraps the benchmark's own
calls into the public API (`Tracer.wrap`) and, while `installed()` is
active, the module-level names that `run_experiment`, `score_stored_runs`
and the optimizer look up at call time. Nothing under `src/` is modified:
the patches are plain attribute assignments in this process, undone on
exit.

The layer of a span is the text before the first dot of its name; the
layers are fairsched's modules. Spans are grouped into phases (one set-up
or one timed pass), each under a root span of layer "bench".

NullTracer has the same interface and calls straight through, so untraced
passes run the program exactly as a user would.
"""

from __future__ import annotations

import gzip
import json
import math
from contextlib import contextmanager
from time import perf_counter

import fairsched.experiment as fx
import fairsched.io as fio
import fairsched.metrics as fm
import fairsched.nsga3 as fn

LAYERS = ("generator", "model", "clustering", "evaluation", "nsga3", "metrics", "io", "experiment")

# (owner, attribute, span name): names the program resolves at call time.
PATCH_POINTS = (
    (fx, "generate", "generator.generate"),
    (fx, "ensure_valid", "model.ensure_valid"),
    (fx, "compute_baselines", "evaluation.baselines"),
    (fx, "make_plan", "clustering.make_plan"),
    (fx, "order_interleave", "clustering.order"),
    (fx, "run_with_evaluator", "nsga3.run"),
    (fx, "score_fronts", "metrics.score_fronts"),
    (fx, "write_run_scores_csv", "metrics.write_csv"),
    (fx, "write_aggregate_csv", "metrics.write_csv"),
    (fx, "write_rdi_csv", "metrics.write_csv"),
    (fx, "load_record", "experiment.load_record"),
    (fx.RunRecord, "save", "experiment.record_save"),
    (fn, "nondominated_sort", "nsga3.nondominated_sort"),
    (fn, "niche_preserve", "nsga3.niche_preserve"),
    (fn.Front, "to_csv", "io.front_csv"),
    (fm, "union_reference", "metrics.union_reference"),
    (fm, "hv", "metrics.hv"),
    (fm, "igd", "metrics.igd"),
    (fio, "save_native", "io.save_native"),
    (fio, "save_resources", "io.save_resources"),
    (fio, "resources_from_dict", "io.resources_from_dict"),
)


class RunStats:
    """Counters for one optimizer run: objective calls, distinct genomes, front size."""

    __slots__ = ("calls", "genomes", "front_size")

    def __init__(self):
        self.calls = 0
        self.genomes: set[bytes] = set()
        self.front_size = 0


class NullTracer:
    """Calls straight through: the untraced, timed configuration."""

    def wrap(self, name, fn):
        return fn

    @contextmanager
    def phase(self, kind):
        yield

    @contextmanager
    def installed(self):
        yield


class _TracedEvaluator:
    """Proxy handed to run_with_evaluator: times every objectives() call and
    counts distinct genomes for the run in progress."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer
        self.n_clusters = inner.n_clusters
        self.n_resources = inner.n_resources

    def objectives(self, genes):
        tr = self._tracer
        stats = tr.current_run
        if stats is not None:
            stats.calls += 1
            stats.genomes.add(genes.tobytes())
        return tr.call("evaluation.objectives", self._inner.objectives, genes)


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self):
        # One span per index across four flat lists: no per-span container,
        # so a long trace adds no work for the cyclic garbage collector.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.phases: list[dict] = []
        self.current_run: RunStats | None = None
        self._phase: dict | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        """`fn` recording a span called `name`, plus the counters some names carry."""
        if name == "nsga3.run":
            def traced(evaluator, cfg):
                return self._run(fn, evaluator, cfg)
        elif name == "generator.generate":
            def traced(*args, **kwargs):
                ws = self.call(name, fn, *args, **kwargs)
                self._count("tasks", ws.n_tasks)
                return ws
        elif name == "clustering.make_plan":
            def traced(ws, *args, **kwargs):
                plan = self.call(name, fn, ws, *args, **kwargs)
                self._count("planned_tasks", ws.n_tasks)
                self._count("clusters", plan.n_clusters)
                return plan
        elif name == "metrics.union_reference":
            def traced(fronts, *args, **kwargs):
                fronts = list(fronts)
                self._count("union_points", sum(len(f) for f in fronts))
                return self.call(name, fn, fronts, *args, **kwargs)
        elif name in ("experiment.load_record", "experiment.record_save"):
            def traced(*args, **kwargs):
                self._count("records", 1)
                return self.call(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return traced

    def _count(self, key, n):
        if self._phase is not None:
            counts = self._phase["counts"]
            counts[key] = counts.get(key, 0) + n

    def _run(self, fn, evaluator, cfg):
        if not isinstance(evaluator, _TracedEvaluator):
            evaluator = _TracedEvaluator(evaluator, self)
        stats = RunStats()
        self.current_run = stats
        try:
            front = self.call("nsga3.run", fn, evaluator, cfg)
        finally:
            self.current_run = None
        stats.front_size = len(front)
        if self._phase is not None:
            self._phase["runs"].append((stats.calls, len(stats.genomes), stats.front_size))
        return front

    @contextmanager
    def phase(self, kind):
        """Group the spans of one set-up or pass under a root span `bench.<kind>`."""
        phase = {"kind": kind, "first": len(self.names), "counts": {}, "runs": []}
        idx = self._open(f"bench.{kind}")
        self._phase = phase
        try:
            yield
        finally:
            self._close(idx)
            self._phase = None
            phase["last"] = len(self.names)
            self.phases.append(phase)

    @contextmanager
    def installed(self):
        """Patch the program's call-time names; restore them on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCH_POINTS]
        real_evaluator = fx.Evaluator

        def traced_evaluator(*args, **kwargs):
            return _TracedEvaluator(self.call("evaluation.init", real_evaluator, *args, **kwargs), self)

        try:
            for owner, attr, name in PATCH_POINTS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            fx.Evaluator = traced_evaluator
            yield
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)
            fx.Evaluator = real_evaluator

    # -- analysis ----------------------------------------------------------

    def summarize(self, phase) -> dict:
        """Per-name call durations and per-layer self time of one phase.

        A layer's self time is the time inside its spans minus the time of
        child spans that belong to another layer.
        """
        names, parents = self.names, self.parents
        first, last = phase["first"], phase["last"]
        durations: dict[str, list[float]] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        wall = 0.0
        for idx in range(first, last):
            name, parent = names[idx], parents[idx]
            dur = self.ends[idx] - self.starts[idx]
            if name.startswith("bench."):
                wall = dur
                continue
            durations.setdefault(name, []).append(dur)
            layer = name.split(".", 1)[0]
            parent_layer = names[parent].split(".", 1)[0] if parent >= 0 else "bench"
            if parent_layer != layer:
                layer_self[layer] = layer_self.get(layer, 0.0) + dur
                if parent_layer in layer_self:
                    layer_self[parent_layer] -= dur
        return {"wall": wall, "durations": durations, "layer_self": layer_self,
                "counts": phase["counts"], "runs": phase["runs"]}

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: names, then (name index, start,
        end, parent) rows with times relative to the first span."""
        index: dict[str, int] = {}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [index.setdefault(name, len(index)), round(start - t0, 9), round(end - t0, 9), parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]
        phases = [{"kind": p["kind"], "first": p["first"], "last": p["last"]} for p in self.phases]
        doc = {"names": list(index), "phases": phases, "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90/p75/p50 that leaves at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return None
