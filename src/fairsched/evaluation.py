"""Schedule decoding and the time / cost / fairness model.

A candidate solution assigns one resource type to every cluster. Decoding
walks the global submission order once: each task starts at the later of
its resource's availability (tasks on one resource run back to back in
arrival order, no gap filling) and its data-ready time

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
    """Population standard deviation (divisor N) of the loss values."""
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

    The optimizer calls objectives() thousands of times, so the walk uses
    flat index arrays and plain Python lists only.
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
        wf_index = {w.id: gi for gi, w in enumerate(ws.workflows)}
        owner: dict[str, Workflow] = {}
        for w in ws.workflows:
            for t in w.tasks:
                owner[t.id] = w

        self._wl: list[float] = []
        self._wf_of: list[int] = []
        self._cluster_of: list[int] = []
        self._preds: list[list[tuple[int, float]]] = []
        for tid in self._task_ids:
            w = owner[tid]
            self._wl.append(w.task(tid).workload)
            self._wf_of.append(wf_index[w.id])
            self._cluster_of.append(plan.cluster_of(tid))
            plist = []
            for p in w.predecessors(tid):
                pi = index[p]
                if pi >= index[tid]:
                    raise ValueError(f"order is not topological: {p!r} comes after {tid!r}")
                plist.append((pi, w.edge(p, tid).data_size))
            self._preds.append(plist)

        self._cu = [r.cpu_capacity for r in catalog]
        self._bw = [r.bandwidth for r in catalog]
        self._rate = [r.cost_per_interval / r.billing_interval for r in catalog]
        self._n_wf = len(ws.workflows)
        self._heft = [self.baselines.heft_makespan[w.id] for w in ws.workflows]
        self._cheapest = [self.baselines.cheapest_cost[w.id] for w in ws.workflows]

    @property
    def n_clusters(self) -> int:
        return self.plan.n_clusters

    @property
    def n_resources(self) -> int:
        return len(self.catalog)

    def _check_genes(self, genes) -> list[int]:
        genes = genes.tolist() if hasattr(genes, "tolist") else list(genes)
        if len(genes) != self.plan.n_clusters:
            raise ValueError(f"assignment length {len(genes)} != cluster count {self.plan.n_clusters}")
        n_res = len(self._cu)
        for g in genes:
            if not 0 <= g < n_res:
                raise ValueError(f"resource index {g} out of range 0..{n_res - 1}")
        return genes

    def _walk(self, genes: list[int]):
        # hot path: locals only, one pass over the global order
        wl = self._wl
        wf_of = self._wf_of
        cluster_of = self._cluster_of
        preds = self._preds
        cu = self._cu
        bw = self._bw
        rate = self._rate
        n = len(wl)
        st = [0.0] * n
        ft = [0.0] * n
        task_res = [0] * n
        res_free = [0.0] * len(cu)
        wf_finish = [0.0] * self._n_wf
        wf_cost = [0.0] * self._n_wf
        for i in range(n):
            r = genes[cluster_of[i]]
            ready = 0.0
            my_bw = bw[r]
            for p, ds in preds[i]:
                pr = task_res[p]
                if pr == r:
                    arrival = ft[p]
                else:
                    pbw = bw[pr]
                    arrival = ft[p] + ds / (pbw if pbw < my_bw else my_bw)
                if arrival > ready:
                    ready = arrival
            free = res_free[r]
            s = free if free > ready else ready
            et = wl[i] / cu[r]
            f = s + et
            st[i] = s
            ft[i] = f
            task_res[i] = r
            res_free[r] = f
            g = wf_of[i]
            wf_cost[g] += et * rate[r]
            if f > wf_finish[g]:
                wf_finish[g] = f
        return st, ft, task_res, wf_finish, wf_cost

    def _losses(self, wf_finish, wf_cost) -> list[float]:
        heft = self._heft
        cheapest = self._cheapest
        return [wf_finish[g] / heft[g] + wf_cost[g] / cheapest[g] for g in range(self._n_wf)]

    def objectives(self, genes) -> tuple[float, float, float]:
        """(makespan, total cost, unfairness) of one assignment."""
        genes = self._check_genes(genes)
        _, ft, _, wf_finish, wf_cost = self._walk(genes)
        return (max(ft), sum(wf_cost), unfairness(self._losses(wf_finish, wf_cost)))

    def decode(self, genes) -> Schedule:
        """Full schedule of one assignment, placements and fairness included."""
        genes = self._check_genes(genes)
        st, ft, task_res, wf_finish, wf_cost = self._walk(genes)
        res_ids = [r.id for r in self.catalog]
        placements = {
            tid: Placement(res_ids[task_res[i]], st[i], ft[i]) for i, tid in enumerate(self._task_ids)
        }
        report = _loss_report(self.ws, wf_finish, wf_cost, self.baselines)
        return Schedule(
            placements=placements,
            makespan=max(ft),
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
