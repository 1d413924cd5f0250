"""fairsched benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 24 --trace 0

Set-up runs several times and is timed on its own; then the workload's
fixed unit of work (a "pass") repeats until the measuring time is used up,
and every operation of every pass is checked afterwards. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s and setup_s,
medians of pass and set-up times scaled to a reference machine speed (see
speed.py), and peak_rss_mb. With --trace 1 untraced and traced passes
alternate and the metrics are the per-layer ones, computed from spans
recorded around the program's layer boundaries (see tracing.py); the spans
are written to perfbench/_out/. Lines before the last are a human-readable report,
including the machine, the failed fraction and a SHA-256 of every front.

--quick shrinks every workload to seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import os

# One process, one BLAS/OpenMP thread: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, reference_seconds

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "_out"


def import_program():
    """Import fairsched from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fairsched
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fairsched from {SRC}: {exc}")
    if not Path(fairsched.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: fairsched was imported from {fairsched.__file__}, not {SRC}")
    # hv() logs one warning per clipped front; keep them off the report.
    logging.getLogger("fairsched").addHandler(logging.NullHandler())
    return fairsched


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _cpu_seconds() -> float:
    """CPU time of this process and of any child processes it waited for."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def measure(workload, seconds: float, trace: bool, min_passes: int) -> dict:
    """Set up n_setups times, then repeat passes until `seconds` is used up.

    In trace mode passes alternate untraced/traced, starting untraced, so the
    tracing overhead is measured under the same conditions as the spans.
    """
    from tracing import NullTracer, Tracer

    plain = NullTracer()
    tracer = Tracer() if trace else plain
    refs = [reference_seconds()]

    def timed(unit, **fields):
        """Run unit(); record its wall time and the machine speed around it."""
        cpu0 = _cpu_seconds()
        started = perf_counter()
        output = unit()
        wall = perf_counter() - started
        cpu = _cpu_seconds() - cpu0
        refs.append(reference_seconds())
        return output, dict(fields, wall=wall, cpu=cpu, ref=(refs[-2] + refs[-1]) / 2)

    def traced_setup():
        with tracer.installed(), tracer.phase("setup"):
            return workload.setup(tracer)

    def traced_pass():
        with tracer.installed(), tracer.phase("pass"):
            return workload.run_pass(state, tracer, len(passes))

    setups = []
    for _ in range(workload.n_setups):
        workload.reset()
        state, record = timed(traced_setup)
        setups.append(record)

    passes = []
    outputs = []
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        unit = traced_pass if traced else lambda: workload.run_pass(state, plain, len(passes))
        output, record = timed(unit, traced=traced)
        passes.append(record)
        outputs.append(workload.collect(output, len(passes) - 1))
        counts = [sum(1 for p in passes if p["traced"] == t) for t in ((False, True) if trace else (False,))]
        typical = statistics.median(p["wall"] for p in passes)
        if min(counts) >= min_passes and perf_counter() + typical > deadline:
            break

    # read before the checks, whose rebuilt contexts are not the program's memory
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    verdict = workload.check(state, outputs)
    return {"setups": setups, "passes": passes, "peak_kib": peak_kib, "verdict": verdict, "tracer": tracer}


def scaled(records) -> list[float]:
    """Wall times rescaled to the reference machine speed (see speed.py)."""
    return [r["wall"] * REFERENCE_S / r["ref"] for r in records]


def end_to_end(run: dict) -> dict:
    return {
        "wall_s": (statistics.median(scaled(run["passes"])), "s"),
        "setup_s": (statistics.median(scaled(run["setups"])), "s"),
        "peak_rss_mb": (run["peak_kib"] / 1024.0, "MB"),
    }


def per_layer(run: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced phases, plus report lines giving
    each span's call count, median and tail percentile."""
    from tracing import percentile, tail_percentile

    tracer = run["tracer"]
    setups = [tracer.summarize(p) for p in tracer.phases if p["kind"] == "setup"]
    passes = [tracer.summarize(p) for p in tracer.phases if p["kind"] == "pass"]
    cpu = [p["cpu"] for p in run["passes"] if p["traced"]]
    plain = scaled(p for p in run["passes"] if not p["traced"])
    traced = scaled(p for p in run["passes"] if p["traced"])

    def busy(summary, name):
        return sum(summary["durations"].get(name, ()))

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def over_passes(fn):
        return med(fn(s) for s in passes)

    def over_setups(fn):
        return med(fn(s) for s in setups)

    def ratio(a, b):
        return a / b if b else 0.0

    calls = [d for s in passes for d in s["durations"].get("evaluation.objectives", ())]
    runs = [r for s in passes for r in s["runs"]]
    m = {
        "evaluation.objectives_calls": (over_passes(lambda s: len(s["durations"].get("evaluation.objectives", ()))), "count"),
        "evaluation.objectives_us_p50": (percentile(calls, 50) * 1e6 if calls else 0.0, "us"),
        "evaluation.objectives_us_p99": (percentile(calls, 99) * 1e6 if calls else 0.0, "us"),
        "evaluation.objectives_busy_s": (over_passes(lambda s: busy(s, "evaluation.objectives")), "s"),
        "evaluation.decode_share": (over_passes(lambda s: ratio(busy(s, "evaluation.objectives"), s["wall"])), "ratio"),
        "evaluation.unique_ratio": (med(ratio(g, c) for c, g, _ in runs), "ratio"),
        "nsga3.run_s": (over_passes(lambda s: busy(s, "nsga3.run")), "s"),
        "nsga3.nondominated_sort_ms": (over_passes(lambda s: busy(s, "nsga3.nondominated_sort") * 1e3), "ms"),
        "nsga3.niche_preserve_ms": (over_passes(lambda s: busy(s, "nsga3.niche_preserve") * 1e3), "ms"),
        "nsga3.evals_per_s": (
            over_passes(lambda s: ratio(len(s["durations"].get("evaluation.objectives", ())), busy(s, "nsga3.run"))),
            "1/s",
        ),
        "nsga3.front_size_mean": (statistics.fmean(f for *_, f in runs) if runs else 0.0, "count"),
        "generator.generate_ms": (over_setups(lambda s: busy(s, "generator.generate") * 1e3), "ms"),
        "generator.tasks": (over_setups(lambda s: s["counts"].get("tasks", 0)), "count"),
        "model.ensure_valid_ms": (over_setups(lambda s: busy(s, "model.ensure_valid") * 1e3), "ms"),
        "evaluation.baselines_ms": (over_setups(lambda s: busy(s, "evaluation.baselines") * 1e3), "ms"),
        "clustering.make_plan_ms": (over_setups(lambda s: busy(s, "clustering.make_plan") * 1e3), "ms"),
        "clustering.order_ms": (over_setups(lambda s: busy(s, "clustering.order") * 1e3), "ms"),
        "clustering.genes_per_task": (
            over_setups(lambda s: ratio(s["counts"].get("clusters", 0), s["counts"].get("planned_tasks", 0))),
            "ratio",
        ),
        "evaluation.init_ms": (over_setups(lambda s: busy(s, "evaluation.init") * 1e3), "ms"),
        "metrics.score_fronts_ms": (over_passes(lambda s: busy(s, "metrics.score_fronts") * 1e3), "ms"),
        "metrics.union_reference_ms": (over_passes(lambda s: busy(s, "metrics.union_reference") * 1e3), "ms"),
        "metrics.union_points": (over_passes(lambda s: s["counts"].get("union_points", 0)), "count"),
        "metrics.hv_ms": (over_passes(lambda s: busy(s, "metrics.hv") * 1e3), "ms"),
        "metrics.igd_ms": (over_passes(lambda s: busy(s, "metrics.igd") * 1e3), "ms"),
        "experiment.load_record_ms": (over_passes(lambda s: busy(s, "experiment.load_record") * 1e3), "ms"),
        "experiment.records": (over_passes(lambda s: s["counts"].get("records", 0)), "count"),
        "experiment.record_save_ms": (over_passes(lambda s: busy(s, "experiment.record_save") * 1e3), "ms"),
        "experiment.result_tree_bytes": (run["verdict"].tree_bytes, "B"),
        "experiment.cpu_s": (med(cpu), "s"),
    }
    for layer in ("generator", "model", "clustering", "evaluation", "nsga3", "metrics", "io", "experiment"):
        m[f"{layer}.self_s"] = (over_passes(lambda s: s["layer_self"][layer]), "s")
    m["tracing.overhead_frac"] = (ratio(med(traced), med(plain)) - 1.0 if plain and traced else 0.0, "ratio")

    lines = []
    for kind, summaries in (("setup", setups), ("pass", passes)):
        names = sorted({n for s in summaries for n in s["durations"]})
        for name in names:
            durs = [d for s in summaries for d in s["durations"].get(name, ())]
            q = tail_percentile(len(durs))
            tail = f"p{q:g} {percentile(durs, q) * 1e3:.4f} ms" if q else "tail n/a (<11 samples)"
            lines.append(
                f"  {kind:5} {name:32} n={len(durs):7d}  p50 {percentile(durs, 50) * 1e3:.4f} ms  {tail}"
                f"  total {sum(durs) / len(summaries):.4f} s/{kind}"
            )
    return m, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    OUT_DIR.mkdir(exist_ok=True)
    env = machine()
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.quick, Path(workdir))
        run = measure(workload, args.seconds, bool(args.trace), 1 if args.quick else 2 if args.trace else 3)

    verdict = run["verdict"]
    if args.trace:
        metrics, lines = per_layer(run)
        stem = f"{args.workload}-seed{args.seed}"
        run["tracer"].dump(OUT_DIR / f"spans-{stem}.json.gz")
    else:
        metrics, lines = end_to_end(run), []

    untraced = [p for p in run["passes"] if not p["traced"]]
    walls = [p["wall"] for p in untraced]
    slowdown = statistics.median(p["ref"] for p in run["setups"] + run["passes"]) / REFERENCE_S
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  machine {json.dumps(env)}")
    print(f"setups {len(run['setups'])}  passes {len(run['passes'])} ({len(untraced)} untraced)"
          f"  pass wall p50 {statistics.median(walls):.4f} s  min {min(walls):.4f}  max {max(walls):.4f}"
          f"  scaled p50 {statistics.median(scaled(untraced)):.4f} s  machine speed 1/{slowdown:.3f} of reference")
    print(f"operations attempted {verdict.attempted}  failed {verdict.failed}"
          f"  failed_frac {verdict.failed / max(verdict.attempted, 1):.6f}")
    for problem in verdict.problems:
        print(f"  FAILED: {problem}")
    for note in verdict.notes:
        print(f"  note: {note}")
    print(f"fronts_sha256 {verdict.digest}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value!r} {unit}")

    result = {
        "correct": verdict.failed == 0 and verdict.attempted > 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, quick=args.quick,
                  machine=env, fronts_sha256=verdict.digest, notes=verdict.notes, setups=run["setups"], passes=run["passes"])
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
