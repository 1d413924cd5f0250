"""Schedule decoding and the time / cost / fairness model.

A candidate solution assigns one resource type to every cluster. Decoding
walks the global submission order once, for a whole population of
candidates at a time (`Evaluator.objectives` on a gene matrix; `decode` is
the one-candidate case): each task starts at the later of its resource's
availability (tasks on one resource run back to back in arrival order, no
gap filling) and its data-ready time

    ready = max over predecessors p of FT(p) + transfer(p -> t),

where a transfer is free on the same resource and otherwise takes
data_size / min(bandwidth of both ends). Execution takes
workload / cpu_capacity and costs exec_time * cost_per_interval /
billing_interval (billing is prorated, no interval rounding).

Objectives of a decoded schedule:

* makespan: the latest finish time over every task,
* total cost: the summed execution cost,
* unfairness: the population standard deviation (divisor N) of per-workflow
  losses, where loss = slowdown + overspending. Slowdown divides a
  workflow's co-scheduled makespan by its HEFT makespan when run alone on
  the same catalog; overspending divides its co-scheduled cost by its
  cheapest possible alone cost. Both baselines are independent of the
  candidate, so they are computed once and reused.

The HEFT baseline is the classic list heuristic: tasks in decreasing upward
rank, each placed on the resource with the earliest insertion-based finish
time (gap filling allowed there, deliberately unlike the decoder, which
models a FIFO queue per leased machine).
"""

from __future__ import annotations

import csv
import json
import math
from bisect import insort
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import ClusterPlan, OrderedPlan, upward_rank
from .model import Resource, ResourceCatalog, Task, Workflow, WorkflowSet


def exec_time(task: Task, resource: Resource) -> float:
    return task.workload / resource.cpu_capacity


def comm_time(data_size: float, src: Resource, dst: Resource) -> float:
    """Transfer over the slower of the two links; free on the same resource."""
    if src.id == dst.id:
        return 0.0
    return data_size / min(src.bandwidth, dst.bandwidth)


def exec_cost(task: Task, resource: Resource) -> float:
    return exec_time(task, resource) * resource.cost_per_interval / resource.billing_interval


@dataclass(frozen=True)
class Placement:
    resource_id: str
    start: float
    finish: float


@dataclass(frozen=True)
class WorkflowLoss:
    workflow_id: str
    makespan: float
    cost: float
    slowdown: float
    overspending: float

    @property
    def loss(self) -> float:
        return self.slowdown + self.overspending


@dataclass(frozen=True)
class LossReport:
    per_workflow: tuple[WorkflowLoss, ...]
    mean_loss: float
    unfairness: float


@dataclass(frozen=True)
class Baselines:
    """Per-workflow alone-run yardsticks, fixed per (set, catalog)."""

    heft_makespan: dict[str, float]
    cheapest_cost: dict[str, float]


@dataclass(frozen=True)
class Schedule:
    placements: dict[str, Placement]
    makespan: float
    total_cost: float
    unfairness: float
    loss: LossReport

    @property
    def objectives(self) -> tuple[float, float, float]:
        return (self.makespan, self.total_cost, self.unfairness)

    def to_dict(self) -> dict:
        return {
            "objectives": {
                "makespan": self.makespan,
                "total_cost": self.total_cost,
                "unfairness": self.unfairness,
            },
            "placements": {
                tid: {"resource": p.resource_id, "start": p.start, "finish": p.finish}
                for tid, p in sorted(self.placements.items())
            },
            "losses": [
                {
                    "workflow_id": l.workflow_id,
                    "makespan": l.makespan,
                    "cost": l.cost,
                    "slowdown": l.slowdown,
                    "overspending": l.overspending,
                }
                for l in self.loss.per_workflow
            ],
        }

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def gantt_rows(self) -> list[tuple[str, str, float, float]]:
        """(task, resource, start, finish) rows sorted by start then task."""
        return sorted(
            ((tid, p.resource_id, p.start, p.finish) for tid, p in self.placements.items()),
            key=lambda row: (row[2], row[0]),
        )

    def save_gantt_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["task", "resource", "start", "finish"])
            for row in self.gantt_rows():
                out.writerow([row[0], row[1], repr(row[2]), repr(row[3])])


def unfairness(losses) -> float:
    """Population standard deviation (divisor N) of the loss values.

    Deviations are squared with `x ** 2`, which calls the C library's
    `pow`; it can differ from `x * x` in the last bit, so results are
    bit-identical on one libm, not across platforms."""
    losses = list(losses)
    if not losses:
        raise ValueError("unfairness of an empty loss list")
    n = len(losses)
    mean = sum(losses) / n
    return math.sqrt(sum((x - mean) ** 2 for x in losses) / n)


def heft_alone(w: Workflow, catalog: ResourceCatalog) -> float:
    """Makespan of the workflow scheduled alone by HEFT on this catalog."""
    rank = upward_rank(w, catalog)
    order = sorted((t.id for t in w.tasks), key=lambda tid: (-rank[tid], tid))
    timelines: list[list[tuple[float, float]]] = [[] for _ in catalog]
    placed: dict[str, tuple[int, float]] = {}  # task -> (resource index, finish)
    for tid in order:
        task = w.task(tid)
        best = None
        for ri, r in enumerate(catalog):
            ready = 0.0
            for p in w.predecessors(tid):
                pr, pf = placed[p]
                arrival = pf + comm_time(w.edge(p, tid).data_size, catalog[pr], r)
                if arrival > ready:
                    ready = arrival
            et = task.workload / r.cpu_capacity
            start = _earliest_slot(timelines[ri], ready, et)
            finish = start + et
            if best is None or finish < best[2]:
                best = (ri, start, finish)
        ri, start, finish = best
        placed[tid] = (ri, finish)
        insort(timelines[ri], (start, finish))
    return max((f for _, f in placed.values()), default=0.0)


def _earliest_slot(timeline: list[tuple[float, float]], ready: float, duration: float) -> float:
    """Earliest start >= ready leaving room for duration, gaps included."""
    start = ready
    for slot_start, slot_finish in timeline:
        if start + duration <= slot_start:
            break
        if slot_finish > start:
            start = slot_finish
    return start


def cheapest_alone(w: Workflow, catalog: ResourceCatalog) -> float:
    """Cheapest possible cost of the workflow alone: every task on its
    individually cheapest resource (cost has no precedence coupling)."""
    total = 0.0
    for t in w.tasks:
        total += min(exec_cost(t, r) for r in catalog)
    return total


def compute_baselines(ws: WorkflowSet, catalog: ResourceCatalog) -> Baselines:
    heft: dict[str, float] = {}
    cheapest: dict[str, float] = {}
    for w in ws.workflows:
        h = heft_alone(w, catalog)
        c = cheapest_alone(w, catalog)
        if not h > 0 or not c > 0:
            raise ValueError(
                f"workflow {w.id!r} has a zero alone-run baseline (empty or zero-workload workflow); "
                "fairness is undefined"
            )
        heft[w.id] = h
        cheapest[w.id] = c
    return Baselines(heft, cheapest)


class Evaluator:
    """Precomputed decoder for one (set, catalog, plan, order) context.

    objectives() decodes a whole population at once: one walk over the
    global order, each step a fixed number of numpy operations on vectors
    with one entry per population row. The per-task tables it reads (exec
    time and cost per resource, predecessor positions and data sizes, the
    resource-pair bandwidth table) are built once here. Every float is
    produced by the same operation, in the same order, as in a per-genome
    walk, so results do not depend on how a population is batched.
    """

    def __init__(
        self,
        ws: WorkflowSet,
        catalog: ResourceCatalog,
        plan: ClusterPlan,
        order: OrderedPlan,
        baselines: Baselines | None = None,
    ):
        if ws.n_tasks == 0:
            raise ValueError("cannot evaluate an empty workflow set")
        if len(order) != ws.n_tasks or set(order.order) != {t.id for t in ws.all_tasks()}:
            raise ValueError("order is not a permutation of the set's tasks")
        self.ws = ws
        self.catalog = catalog
        self.plan = plan
        self.baselines = baselines if baselines is not None else compute_baselines(ws, catalog)

        self._task_ids = list(order.order)
        index = {tid: i for i, tid in enumerate(self._task_ids)}
        n = len(self._task_ids)

        # Per task, by dispatch position: its predecessors as (position,
        # cluster, data size) when it has one, so the walk reads single rows;
        # several are gathered in one go from the flat arrays below, filled
        # in after the loop.
        wl = [0.0] * n
        wf_of = [0] * n
        cluster_of = [0] * n
        pred_of: list = [None] * n
        multi: list[tuple[int, int, int]] = []  # (task, first, end) in the flat arrays
        pred_pos: list[int] = []
        pred_size: list[float] = []
        self._wf_rows = []
        for g, w in enumerate(ws.workflows):
            rows = []
            for t in w.tasks:
                i = index[t.id]
                rows.append(i)
                wl[i] = t.workload
                wf_of[i] = g
                cluster_of[i] = plan.cluster_of(t.id)
                preds = w.predecessors(t.id)
                first = len(pred_pos)
                for p in preds:
                    pi = index[p]
                    if pi >= i:
                        raise ValueError(f"order is not topological: {p!r} comes after {t.id!r}")
                    pred_pos.append(pi)
                    pred_size.append(w.edge(p, t.id).data_size)
                if len(preds) == 1:
                    pred_of[i] = (pi, plan.cluster_of(preds[0]), pred_size[-1])
                elif preds:
                    multi.append((i, first, len(pred_pos)))
            self._wf_rows.append(np.array(rows, dtype=np.intp))

        cu = np.array([r.cpu_capacity for r in catalog], dtype=float)
        bw = np.array([r.bandwidth for r in catalog], dtype=float)
        rate = np.array([r.cost_per_interval / r.billing_interval for r in catalog], dtype=float)
        exec_tab = np.array(wl, dtype=float)[:, None] / cu  # [task, resource]
        cost_tab = exec_tab * rate
        # transfers run over the slower end; an infinite diagonal makes a
        # same-resource transfer ds / inf = 0.0, and ft + 0.0 == ft
        self._link = np.minimum.outer(bw, bw)
        np.fill_diagonal(self._link, np.inf)

        self._cluster_of = np.array(cluster_of, dtype=np.intp)
        pos = np.array(pred_pos, dtype=np.intp)
        pred_cluster = self._cluster_of[pos]
        size = np.array(pred_size, dtype=float)[:, None]
        for i, a, b in multi:
            pred_of[i] = (pos[a:b], pred_cluster[a:b], size[a:b])
        # one step per task: (cluster, workflow, predecessors, exec time and
        # cost per resource)
        self._steps = list(zip(cluster_of, wf_of, pred_of, exec_tab, cost_tab))
        self._heft = [self.baselines.heft_makespan[w.id] for w in ws.workflows]
        self._cheapest = [self.baselines.cheapest_cost[w.id] for w in ws.workflows]

    @property
    def n_clusters(self) -> int:
        return self.plan.n_clusters

    @property
    def n_resources(self) -> int:
        return len(self.catalog)

    def _check_genes(self, genes) -> np.ndarray:
        """The genes as an integer array: one assignment vector, or a matrix
        with one assignment per row."""
        G = np.asarray(genes)
        if G.ndim not in (1, 2):
            raise ValueError(f"genes must be one assignment vector or a matrix of them, got {G.ndim} dimensions")
        if G.shape[-1] != self.plan.n_clusters:
            raise ValueError(f"assignment length {G.shape[-1]} != cluster count {self.plan.n_clusters}")
        if G.size == 0:
            return G.astype(np.intp)
        if G.dtype.kind not in "iu":
            raise ValueError(f"resource indices must be integers, got {G.dtype} values")
        lo, hi = G.min(), G.max()
        if lo < 0 or hi >= self.n_resources:
            raise ValueError(f"resource index {lo if lo < 0 else hi} out of range 0..{self.n_resources - 1}")
        return G.astype(np.intp, copy=False)

    def _walk(self, G: np.ndarray, st: np.ndarray | None = None):
        """Decode every row of G in one pass over the global order.

        Returns the (n_tasks x P) finish times and each workflow's finish
        time and cost, both (n_workflows x P); fills st, when given, with
        the start times.
        """
        n_rows = len(G)
        genes_of = G.T  # genes_of[c] holds cluster c's resource in every row
        link = self._link
        slot_base = np.arange(n_rows) * self.n_resources
        res_free = np.zeros(n_rows * self.n_resources)  # [row, resource], flat
        ft = np.empty((len(self._steps), n_rows))
        wf_cost = np.zeros((len(self._heft), n_rows))
        for i, (c, g, pred, exec_row, cost_row) in enumerate(self._steps):
            r = genes_of[c]
            slot = slot_base + r
            s = res_free[slot]
            if pred is not None:
                p, pc, ds = pred
                arrival = ft.take(p, axis=0) + ds / link[genes_of[pc], r]
                if arrival.ndim == 2:
                    arrival = arrival.max(axis=0)
                np.maximum(s, arrival, out=s)
            f = ft[i]
            np.add(s, exec_row[r], out=f)
            res_free[slot] = f
            wf_cost[g] += cost_row[r]
            if st is not None:
                st[i] = s
        wf_finish = np.array([ft[rows].max(axis=0, initial=0.0) for rows in self._wf_rows])
        return ft, wf_finish, wf_cost

    def _losses(self, wf_finish, wf_cost) -> list[float]:
        heft = self._heft
        cheapest = self._cheapest
        return [wf_finish[g] / heft[g] + wf_cost[g] / cheapest[g] for g in range(len(heft))]

    def objectives(self, genes) -> tuple[float, float, float] | np.ndarray:
        """(makespan, total cost, unfairness) of each assignment.

        A (P x n_clusters) gene matrix gives a (P x 3) float array; a single
        assignment vector gives one tuple.
        """
        G = self._check_genes(genes)
        _, wf_finish, wf_cost = self._walk(np.atleast_2d(G))
        rows = [
            (max(f), sum(c), unfairness(self._losses(f, c)))
            for f, c in zip(wf_finish.T.tolist(), wf_cost.T.tolist())
        ]
        if G.ndim == 1:
            return rows[0]
        return np.array(rows, dtype=float).reshape(len(rows), 3)

    def decode(self, genes) -> Schedule:
        """Full schedule of one assignment, placements and fairness included."""
        G = self._check_genes(genes)
        if G.ndim != 1:
            raise ValueError("decode takes one assignment vector")
        st = np.empty((len(self._steps), 1))
        ft, wf_finish, wf_cost = self._walk(G[None, :], st)
        wf_finish = wf_finish[:, 0].tolist()
        wf_cost = wf_cost[:, 0].tolist()
        res_ids = [r.id for r in self.catalog]
        placements = {
            tid: Placement(res_ids[r], s, f)
            for tid, r, s, f in zip(self._task_ids, G[self._cluster_of].tolist(), st[:, 0].tolist(), ft[:, 0].tolist())
        }
        report = _loss_report(self.ws, wf_finish, wf_cost, self.baselines)
        return Schedule(
            placements=placements,
            makespan=max(wf_finish),
            total_cost=sum(wf_cost),
            unfairness=report.unfairness,
            loss=report,
        )


def decode(
    ws: WorkflowSet,
    catalog: ResourceCatalog,
    plan: ClusterPlan,
    order: OrderedPlan,
    assignment,
    baselines: Baselines | None = None,
) -> Schedule:
    """One-shot decode; build an Evaluator directly when decoding many."""
    return Evaluator(ws, catalog, plan, order, baselines).decode(assignment)


def loss_report(schedule: Schedule, ws: WorkflowSet, catalog: ResourceCatalog, baselines: Baselines) -> LossReport:
    """Recompute the fairness report from a schedule's placements alone."""
    by_res = {r.id: r for r in catalog}
    finishes: list[float] = []
    costs: list[float] = []
    for w in ws.workflows:
        finish = 0.0
        cost = 0.0
        for t in w.tasks:
            p = schedule.placements[t.id]
            r = by_res[p.resource_id]
            finish = max(finish, p.finish)
            cost += (p.finish - p.start) * r.cost_per_interval / r.billing_interval
        finishes.append(finish)
        costs.append(cost)
    return _loss_report(ws, finishes, costs, baselines)


def _loss_report(ws: WorkflowSet, finishes, costs, baselines: Baselines) -> LossReport:
    """Slowdown and overspending of each workflow, given its co-scheduled
    makespan and cost, with their mean loss and unfairness."""
    per_wf = tuple(
        WorkflowLoss(w.id, f, c, f / baselines.heft_makespan[w.id], c / baselines.cheapest_cost[w.id])
        for w, f, c in zip(ws.workflows, finishes, costs)
    )
    losses = [l.loss for l in per_wf]
    return LossReport(per_wf, sum(losses) / len(losses), unfairness(losses))


def validate_schedule(
    schedule: Schedule,
    ws: WorkflowSet,
    catalog: ResourceCatalog,
    plan: ClusterPlan | None = None,
    tol: float = 1e-9,
) -> list[str]:
    """Independent constraint check of a schedule against the raw model.

    Verifies finish = start + exec time, data arrival before every start,
    no overlap on any resource, cluster co-location when a plan is given,
    and the recorded objectives against direct recomputation.
    """
    out: list[str] = []
    by_res = {r.id: r for r in catalog}
    scale = max(1.0, schedule.makespan)
    for w in ws.workflows:
        for t in w.tasks:
            if t.id not in schedule.placements:
                out.append(f"task {t.id!r} has no placement")
                continue
            p = schedule.placements[t.id]
            if p.resource_id not in by_res:
                out.append(f"task {t.id!r} placed on unknown resource {p.resource_id!r}")
                continue
            r = by_res[p.resource_id]
            if abs(p.finish - p.start - exec_time(t, r)) > tol * scale:
                out.append(f"task {t.id!r}: finish - start != exec time")
            for pid in w.predecessors(t.id):
                pp = schedule.placements.get(pid)
                if pp is None:
                    continue
                arrival = pp.finish + comm_time(w.edge(pid, t.id).data_size, by_res[pp.resource_id], r)
                if p.start < arrival - tol * scale:
                    out.append(f"task {t.id!r} starts before data from {pid!r} arrives")
    by_resource: dict[str, list[tuple[float, float, str]]] = {}
    for tid, p in schedule.placements.items():
        by_resource.setdefault(p.resource_id, []).append((p.start, p.finish, tid))
    for rid, spans in by_resource.items():
        spans.sort()
        for (s1, f1, t1), (s2, f2, t2) in zip(spans, spans[1:]):
            if s2 < f1 - tol * scale:
                out.append(f"tasks {t1!r} and {t2!r} overlap on resource {rid!r}")
    if plan is not None:
        for c in plan.clusters:
            rids = {schedule.placements[m].resource_id for m in c.members if m in schedule.placements}
            if len(rids) > 1:
                out.append(f"cluster {c.id} spans resources {sorted(rids)}")
    finishes = [p.finish for p in schedule.placements.values()]
    if finishes and abs(schedule.makespan - max(finishes)) > tol * scale:
        out.append("recorded makespan != max finish time")
    total = 0.0
    for w in ws.workflows:
        for t in w.tasks:
            p = schedule.placements.get(t.id)
            if p is not None and p.resource_id in by_res:
                total += exec_cost(t, by_res[p.resource_id])
    if abs(schedule.total_cost - total) > tol * max(1.0, abs(total)):
        out.append("recorded total cost != summed execution costs")
    return out
