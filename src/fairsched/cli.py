"""Command line front end: run, gen, eval, replay."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import experiment
from .generator import GeneratorSpec, generate, table2_specs
from .io import FormatError, default_catalog, save_native, save_resources
from .model import ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairsched", description="Fairness-aware multi-workflow scheduling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_run.add_argument("--reps", type=int, help="repetitions per run (overrides config)")
    p_run.add_argument("--clusterers", help="comma-separated clusterer list (overrides config)")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_gen = sub.add_parser("gen", help="write synthetic dataset files (native JSON)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0, help="seed")
    p_gen.add_argument("--table2", action="store_true", help="emit the 16-row benchmark design")
    p_gen.add_argument("--name", default="dataset", help="dataset name for a single spec")
    p_gen.add_argument("--workflows", type=int, help="number of workflows")
    p_gen.add_argument("--tasks", type=int, nargs=2, metavar=("LO", "HI"), help="task count range")
    p_gen.add_argument("--ccr", type=float, help="communication-to-computation ratio")
    p_gen.add_argument("--parallelism", type=float, help="parallelism degree in (0, 1]")
    p_gen.add_argument("--quiet", action="store_true")

    p_eval = sub.add_parser("eval", help="recompute metrics from stored run records")
    p_eval.add_argument("--runs", required=True, help="runs/ directory of a previous experiment")
    p_eval.add_argument("--out", required=True, help="directory for the metric CSVs")
    p_eval.add_argument("--raw-igd", action="store_true", help="IGD on raw objectives (default: the run's config.json setting, else normalized)")
    p_eval.add_argument("--quiet", action="store_true")

    p_replay = sub.add_parser("replay", help="re-run a stored run record and verify it reproduces")
    p_replay.add_argument("--record", required=True, help="run record JSON")
    p_replay.add_argument("--out", help="write the replayed front CSV here")
    p_replay.add_argument("--quiet", action="store_true")
    return parser


def _cmd_run(args) -> int:
    clusterers = None if args.clusterers is None else [c.strip() for c in args.clusterers.split(",") if c.strip()]
    cfg = experiment.load_config(
        args.config, output_dir=args.out, seed=args.seed, repetitions=args.reps, clusterers=clusterers
    )
    out = experiment.run_experiment(cfg)
    print(out)
    return 0


def _cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.table2:
        specs = table2_specs(args.seed)
    else:
        missing = [n for n, v in (("--workflows", args.workflows), ("--tasks", args.tasks), ("--ccr", args.ccr), ("--parallelism", args.parallelism)) if v is None]
        if missing:
            raise experiment.ConfigError("gen needs --table2 or all of " + ", ".join(missing))
        specs = [
            (
                args.name,
                GeneratorSpec(
                    n_workflows=args.workflows,
                    task_count_range=(args.tasks[0], args.tasks[1]),
                    ccr=args.ccr,
                    parallelism_degree=args.parallelism,
                    seed=args.seed,
                ),
            )
        ]
    for name, spec in specs:
        save_native(generate(spec), out / f"{name}.json")
        if not args.quiet:
            print(out / f"{name}.json")
    save_resources(default_catalog(), out / "resources.json")
    if not args.quiet:
        print(out / "resources.json")
    return 0


def _cmd_eval(args) -> int:
    out = experiment.score_stored_runs(args.runs, args.out, normalize_igd=False if args.raw_igd else None)
    print(out)
    return 0


def _cmd_replay(args) -> int:
    front, matches = experiment.replay(args.record)
    if args.out:
        front.to_csv(args.out)
    if not args.quiet:
        for ind in front:
            print("  ".join(repr(float(v)) for v in ind.objectives))
    if matches:
        print("replay: front matches the stored record")
        return 0
    print("replay: front DIFFERS from the stored record", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handlers = {"run": _cmd_run, "gen": _cmd_gen, "eval": _cmd_eval, "replay": _cmd_replay}
    try:
        return handlers[args.command](args)
    except (experiment.ConfigError, FormatError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
