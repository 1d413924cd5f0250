"""Synthetic multi-workflow generator over a four-factor design.

Workflow sets are drawn from a layered random-DAG model controlled by four
factors: number of workflows, task count range, communication-to-computation
ratio (ccr), and parallelism degree. Layer widths are drawn uniformly from
[1, ceil(parallelism_degree * task_count)], every non-entry task receives
1-3 parents from the previous layer (so the graph is connected and entry
tasks are exactly the first layer), workloads are uniform on [10, 100], and
each edge's data size is ccr * mean(workloads of the workflow) with a +/-20%
uniform jitter. The 16-row benchmark design crosses task counts
{10-20, 40-60} x workflow counts {5, 30} x ccr {0.1, 1000} x parallelism
{0.05, 0.30}.

Generation is deterministic: the same spec (seed included) reproduces the
same workflow set bit for bit. Every draw comes from one `DrawStream` over
`PCG64(seed)`, which computes from raw words the values that numpy's
`default_rng(seed)` returns for the same calls (`tests/oracles.py` keeps
those calls as `generate_numpy_calls`), so the sets are the ones numpy's
own draws give.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .draws import DrawStream
from .model import Edge, Task, Workflow, WorkflowSet

WORKLOAD_RANGE = (10.0, 100.0)
DATA_SIZE_JITTER = 0.2
MAX_PARENTS = 3


@dataclass(frozen=True)
class GeneratorSpec:
    n_workflows: int
    task_count_range: tuple[int, int]
    ccr: float
    parallelism_degree: float
    seed: int

    def validate(self) -> None:
        lo, hi = self.task_count_range
        if self.n_workflows < 1:
            raise ValueError(f"n_workflows must be >= 1, got {self.n_workflows}")
        if not (1 <= lo <= hi):
            raise ValueError(f"task_count_range must satisfy 1 <= lo <= hi, got {self.task_count_range}")
        if not (math.isfinite(self.ccr) and self.ccr > 0):
            raise ValueError(f"ccr must be finite and > 0, got {self.ccr}")
        if not (0 < self.parallelism_degree <= 1):
            raise ValueError(f"parallelism_degree must be in (0, 1], got {self.parallelism_degree}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def stable_seed(*parts) -> int:
    """Map arbitrary labels to a 63-bit seed via sha256.

    Unlike hash(), the result does not depend on the process hash salt, so
    derived seeds are reproducible across runs and machines.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def generate(spec: GeneratorSpec) -> WorkflowSet:
    """Draw a workflow set from the layered model described in the module docstring."""
    spec.validate()
    lo, hi = (int(bound) for bound in spec.task_count_range)
    rng = DrawStream(np.random.PCG64(spec.seed))  # numpy's `default_rng(seed)` draws
    integers, random = rng.integers, rng.random
    jitter_lo, jitter_span = 1 - DATA_SIZE_JITTER, (1 + DATA_SIZE_JITTER) - (1 - DATA_SIZE_JITTER)
    workflows = []
    for g in range(spec.n_workflows):
        wid = f"w{g:03d}"
        n = integers(lo, hi + 1)
        width_cap = math.ceil(spec.parallelism_degree * n)
        widths: list[int] = []
        remaining = n
        while remaining > 0:
            width = min(integers(1, width_cap + 1), remaining)
            widths.append(width)
            remaining -= width
        workloads = rng.uniform(WORKLOAD_RANGE[0], WORKLOAD_RANGE[1], n)
        ids = [f"{wid}-t{i:03d}" for i in range(n)]
        tasks = [Task(tid, wid, wl) for tid, wl in zip(ids, workloads.tolist())]
        scale = spec.ccr * float(np.mean(workloads))
        layers: list[range] = []
        cursor = 0
        for width in widths:
            layers.append(range(cursor, cursor + width))
            cursor += width
        edges: list[Edge] = []
        for li in range(1, len(layers)):
            prev = layers[li - 1]
            for ti in layers[li]:
                k = min(integers(1, MAX_PARENTS + 1), len(prev))
                # offsets into the contiguous layer: rng.choice(prev)'s draws and values
                for p in rng.sorted_choice(len(prev), k):
                    # numpy's uniform(lo, hi) draws lo + (hi - lo) * random(), bit for bit
                    edges.append(Edge(ids[prev[0] + p], ids[ti], scale * (jitter_lo + jitter_span * random())))
        workflows.append(Workflow(wid, tasks, edges))
    return WorkflowSet(workflows)


def table2_specs(base_seed: int = 0) -> list[tuple[str, GeneratorSpec]]:
    """The 16 benchmark dataset specs, named ds01..ds16.

    Row order crosses the factors as task range (small, large) x workflow
    count (5, 30) x ccr (0.1, 1000) x parallelism (0.05, 0.30), each row's
    seed derived from base_seed and the dataset name.
    """
    rows = []
    index = 1
    for task_range in ((10, 20), (40, 60)):
        for n_wf in (5, 30):
            for ccr in (0.1, 1000.0):
                for parallelism in (0.05, 0.30):
                    name = f"ds{index:02d}"
                    rows.append(
                        (
                            name,
                            GeneratorSpec(
                                n_workflows=n_wf,
                                task_count_range=task_range,
                                ccr=ccr,
                                parallelism_degree=parallelism,
                                seed=stable_seed(base_seed, "dataset", name),
                            ),
                        )
                    )
                    index += 1
    return rows
