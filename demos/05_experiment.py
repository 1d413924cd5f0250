"""
A complete experiment, end to end
=================================

Config in, result tree out: datasets, run records, front CSVs, metric
tables. Every run seed derives from the master seed, so the whole tree
is reproducible bit for bit, and any stored run can be replayed and
checked years later.
"""

import json
import logging
import tempfile
from pathlib import Path

from fairsched import ExperimentConfig, replay, run_experiment

# run_experiment runs the datasets in worker processes. Where workers are
# not forked (macOS, and Linux from Python 3.14 on) each one imports this
# script again, so everything it should do once sits under this guard.
if __name__ == "__main__":
    # the harness logs a line per run once its dataset is done; show them
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    workdir = Path(tempfile.mkdtemp(prefix="fairsched-demo-"))

    cfg = ExperimentConfig.from_dict({
        "datasets": [
            {"name": "small", "n_workflows": 3, "task_count_range": [6, 10],
             "ccr": 1.0, "parallelism_degree": 0.4},
            {"name": "chatty", "n_workflows": 3, "task_count_range": [6, 10],
             "ccr": 10.0, "parallelism_degree": 0.4},
        ],
        "clusterers": ["dfs-cst", "p2p"],
        "optimizer": {"population": 16, "generations": 20},
        "repetitions": 2,
        "seed": 99,
        "output_dir": str(workdir / "results"),
    })

    out = run_experiment(cfg)

    print("result tree:")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print("  " + str(p.relative_to(out)))

    print("\naggregate metrics:")
    print((out / "metrics" / "aggregate.csv").read_text())

    # Replay: load one stored record, rerun it from its own seed and config,
    # and confirm the front comes out identical.
    record = out / "runs" / "small" / "dfs-cst" / "rep00.json"
    front, matches = replay(record)
    print(f"replay of {record.name}: {len(front)} points, reproduces: {matches}")

    # The same record is plain JSON, inspectable without this library.
    doc = json.loads(record.read_text())
    print("record keys:", sorted(doc))
