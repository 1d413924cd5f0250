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
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterPlan, OrderedPlan, upward_rank
from .model import GraphError, Resource, ResourceCatalog, Task, Workflow, WorkflowSet

# Dispatch positions per block of the decode walk. The walk gathers a
# block's state-independent values as (block x P) matrices, so the block
# bounds that working set whatever the population P and task count n. On a
# 1.5k-task set, 32 was the fastest of 16, 32, 64 and 128 at 1 to 100 rows
# and within 6% of the fastest (16) at 150 rows; 16 was up to 12% slower at
# 1 row and 128 up to 27% slower at 150 rows. The tracemalloc peak of a
# 100-row call (774 clusters, genes in `gene_dtype`, uint8 here) grows with
# the block: 1.50 MB at 16, 1.67 MB at 32, 2.02 MB at 64 and 2.72 MB at 128.
# Of the 1.67 MB, 1.18 MB are the finish times and 0.07 MB the contiguous
# copy of the genes that the gathers read; in int64 that copy would be
# 0.59 MB and the peak 2.21 MB.
_BLOCK = 32


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
class Baselines:
    """Per-workflow alone-run yardsticks, fixed per (set, catalog)."""

    heft_makespan: dict[str, float]
    cheapest_cost: dict[str, float]


@dataclass(frozen=True)
class Schedule:
    """A decoded assignment: every task's placement, the three objectives, and
    the per-workflow losses whose spread is `unfairness`."""

    placements: dict[str, Placement]
    makespan: float
    total_cost: float
    unfairness: float
    per_workflow: tuple[WorkflowLoss, ...]

    @property
    def objectives(self) -> tuple[float, float, float]:
        return (self.makespan, self.total_cost, self.unfairness)

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


def unfairness(losses):
    """Population standard deviation (divisor N) of the loss values: of a
    list, a float; of a (workflows x P) matrix, one per column.

    Sums run strictly in workflow order (`np.add.accumulate`, never the
    pairwise `np.sum`), as `sum` over a list does. Deviations are squared
    with Python's `x ** 2`, which calls the C library's `pow`; it can differ
    from `x * x` in the last bit, so results are bit-identical on one libm,
    not across platforms."""
    losses = np.asarray(losses, dtype=float)
    if len(losses) == 0:
        raise ValueError("unfairness of an empty loss list")
    n = len(losses)
    mean = np.add.accumulate(losses)[-1] / n
    dev = losses - mean
    squares = np.array([d**2 for d in dev.ravel().tolist()]).reshape(dev.shape)
    spread = np.sqrt(np.add.accumulate(squares)[-1] / n)
    return float(spread) if losses.ndim == 1 else spread


def heft_alone(w: Workflow, catalog: ResourceCatalog) -> float:
    """Makespan of the workflow scheduled alone by HEFT on this catalog."""
    rank = upward_rank(w, catalog)
    order = sorted((t.id for t in w.tasks), key=lambda tid: (-rank[tid], tid))
    bw = [r.bandwidth for r in catalog]
    # comm_time per resource pair; the infinite diagonal makes ds / inf = 0.0, and pf + 0.0 == pf
    link = [[math.inf if i == j else min(a, b) for j, b in enumerate(bw)] for i, a in enumerate(bw)]
    lanes = [(r.cpu_capacity, link[ri], []) for ri, r in enumerate(catalog)]  # (capacity, links, busy slots)
    task, edge, predecessors = w.task, w.edge, w.predecessors
    placed: dict[str, tuple[int, float]] = {}  # task -> (resource index, finish)
    for tid in order:
        workload = task(tid).workload
        preds = [(*placed[p], edge(p, tid).data_size) for p in predecessors(tid)]
        best = None
        for ri, (cu, col, timeline) in enumerate(lanes):
            ready = 0.0
            for pr, pf, ds in preds:
                arrival = pf + ds / col[pr]
                if arrival > ready:
                    ready = arrival
            et = workload / cu
            start = _earliest_slot(timeline, ready, et)
            finish = start + et
            if best is None or finish < best[2]:
                best = (ri, start, finish)
        ri, start, finish = best
        placed[tid] = (ri, finish)
        insort(lanes[ri][2], (start, finish))
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
    rates = [(r.cpu_capacity, r.cost_per_interval, r.billing_interval) for r in catalog]
    total = 0.0
    for t in w.tasks:
        wl = t.workload
        total += min(wl / cu * cpi / bi for cu, cpi, bi in rates)  # exec_cost, inlined
    return total


def compute_baselines(ws: WorkflowSet, catalog: ResourceCatalog) -> Baselines:
    heft: dict[str, float] = {}
    cheapest: dict[str, float] = {}
    for w in ws.workflows:
        h = heft_alone(w, catalog)
        c = cheapest_alone(w, catalog)
        if not (0 < h < math.inf and 0 < c < math.inf):
            raise ValueError(
                f"workflow {w.id!r} has alone-run baselines makespan {h!r} and cost {c!r}; fairness needs both "
                "positive and finite (an empty or zero-workload workflow has zero baselines)"
            )
        heft[w.id] = h
        cheapest[w.id] = c
    return Baselines(heft, cheapest)


def _check_worst_case(workloads, data_sizes, catalog: ResourceCatalog, heft, cheapest) -> None:
    """Raise ValueError unless every time, cost and loss a decode can give
    is finite, and so are the sums scoring takes of them. For any plan and
    assignment, a FIFO walk ends by the sum of every task's slowest run and
    every edge's slowest transfer and costs at most every task's dearest
    run. Unfairness sums n losses and their squared deviations, raw IGD 3
    squared objective differences. Python floats overflow to inf without a
    warning; the factor 2 covers rounding."""
    transfers = sum(data_sizes) / min(r.bandwidth for r in catalog) if len(catalog) > 1 else 0.0
    span = sum(workloads) / min(r.cpu_capacity for r in catalog) + transfers
    spend = sum(workloads) * max(r.cost_per_interval / r.billing_interval / r.cpu_capacity for r in catalog)
    low = min(heft), min(cheapest)
    loss = span / low[0] + spend / low[1] if min(low) > 0 else math.inf
    if not all(2 * max(len(heft), 3) * v * max(v, 1.0) < math.inf for v in (span, spend, loss)):
        raise ValueError(
            f"the set's times, costs or losses overflow the float range: a makespan up to {span!r}, "
            f"a cost up to {spend!r}, a loss up to {loss!r}"
        )


def gene_dtype(n_resources: int) -> np.dtype:
    """The dtype of every gene matrix over a catalog of `n_resources`, the
    smallest unsigned type that holds index n_resources - 1: uint8 up to
    256 resources, uint16 up to 65,536."""
    return np.min_scalar_type(n_resources - 1)


class Evaluator:
    """Precomputed decoder for one (set, catalog, plan, order) context.

    objectives() decodes a whole population at once: one walk over the
    global order, then each workflow's finish time and cost, then a tail of
    whole-matrix operations that turns those into the three objectives.
    The walk goes block by block (`_BLOCK` dispatch positions). Per block
    it gathers everything that does not depend on its state as (block x P)
    matrices, one entry per population row: each task's resource and
    res_free slot, its exec time, and the transfer time of each incoming
    edge. Edges whose source lies in an earlier block carry a final finish
    time, so their arrivals are reduced per block into one data-ready
    matrix too. The step per task then does only the work that reads or
    writes the walk's state: it gathers its resource's availability, takes
    the max with its data-ready row and with the arrivals from predecessors
    in the same block, adds its exec time and scatters the finish back.
    Cost does not depend on times, so each workflow's cost is summed after
    the walk, task by task in dispatch order. The tables the gathers read
    are built once here: flat exec time and cost per position and
    resource, the resource-pair bandwidth table, and the edges in one
    stable sort by block, carried edges first, cut into per-task runs.
    Every float is produced by the same operation, in the same order, as
    in a per-genome walk with a scalar tail, or by a max, which is exact in
    any order, so results depend neither on how a population is batched nor
    on the block size.
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
        if baselines is None:
            baselines = compute_baselines(ws, catalog)

        self._task_ids = list(order.order)
        index = {tid: i for i, tid in enumerate(self._task_ids)}
        n = len(self._task_ids)

        # Per task, by dispatch position: its workload and cluster; per
        # workflow, its positions; per edge, in workflow order: source
        # position, destination position and data size.
        wl = [0.0] * n
        wf_rows = []
        cluster_of = [0] * n
        src: list[int] = []
        dst: list[int] = []
        size: list[float] = []
        to_cluster = plan.task_to_cluster
        if not index.keys() <= to_cluster.keys():
            raise GraphError("plan does not cover every task of the set")
        for w in ws.workflows:
            edge, predecessors = w.edge, w.predecessors
            rows = []
            for t in w.tasks:
                tid = t.id
                i = index[tid]
                rows.append(i)
                wl[i] = t.workload
                cluster_of[i] = to_cluster[tid]
                for p in predecessors(tid):
                    pi = index[p]
                    if pi >= i:
                        raise ValueError(f"order is not topological: {p!r} comes after {tid!r}")
                    src.append(pi)
                    dst.append(i)
                    size.append(edge(p, tid).data_size)
            wf_rows.append(np.array(sorted(rows), dtype=np.intp))

        heft = [baselines.heft_makespan[w.id] for w in ws.workflows]
        cheapest = [baselines.cheapest_cost[w.id] for w in ws.workflows]
        _check_worst_case(wl, size, catalog, heft, cheapest)

        n_res = len(catalog)
        cu = np.array([r.cpu_capacity for r in catalog], dtype=float)
        bw = np.array([r.bandwidth for r in catalog], dtype=float)
        rate = np.array([r.cost_per_interval / r.billing_interval for r in catalog], dtype=float)
        exec_ = np.array(wl, dtype=float)[:, None] / cu  # [position, resource]
        # flat tables, read with take at position * n_res + resource
        self._exec = exec_.ravel()
        self._cost = (exec_ * rate).ravel()
        self._offset = (np.arange(n) * n_res)[:, None]
        # transfers run over the slower end; an infinite diagonal makes a
        # same-resource transfer ds / inf = 0.0, and ft + 0.0 == ft
        link = np.minimum.outer(bw, bw)
        np.fill_diagonal(link, np.inf)
        self._link = link.ravel()  # [source resource * n_res + destination resource]
        self._cluster_of = np.array(cluster_of, dtype=np.intp)
        # per workflow, in dispatch order: its positions, their clusters and
        # their offsets into the flat tables
        self._workflows = [(rows, self._cluster_of[rows], self._offset[rows]) for rows in wf_rows]
        self._plan_blocks(np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), np.array(size, dtype=float))
        self._heft = np.array(heft)[:, None]
        self._cheapest = np.array(cheapest)[:, None]

    def _plan_blocks(self, src: np.ndarray, dst: np.ndarray, size: np.ndarray) -> None:
        """Split the walk into blocks of `_BLOCK` dispatch positions and
        order the edges, which come in workflow order, for it.

        An edge is carried into its destination's block when its source lies
        in an earlier block. One stable sort orders the edges by destination
        block, carried edges first, then by destination; each task's edges
        keep their predecessor order. The sorted edges then fall into runs of
        one destination and one kind of edge. Per block this keeps (first
        position, end position, first edge, end of the carried edges, end
        edge, the block rows with carried edges, their runs padded to the
        block's longest); per task, its in-block predecessor(s) and their
        edges as a slice of the block's edges, or None.
        """
        block = _BLOCK
        n = len(self._cluster_of)
        firsts = range(0, n, block)
        blk = dst // block
        carried = src < blk * block
        order = np.lexsort((dst, ~carried, blk))
        src, dst, blk, carried = src[order], dst[order], blk[order], carried[order]
        self._edge_src = src
        self._edge_src_cl = self._cluster_of[src]
        self._edge_dst_cl = self._cluster_of[dst]
        self._edge_size = size[order][:, None]
        bounds = np.searchsorted(blk, range(len(firsts) + 1))  # each block's first edge, and the end
        carried_end = bounds[:-1] + np.bincount(blk[carried], minlength=len(firsts))
        # the runs: each starts where the destination or the kind (packed
        # as 2 * dst + carried) changes, at an edge index and at an offset
        # into its block's edges
        start = np.flatnonzero(np.diff(2 * dst + carried, prepend=-1))
        end = np.append(start[1:], len(src))
        at = start - bounds[blk[start]]
        carried_run = carried[start]
        # carried runs, padded to the block's longest by repeating their last
        # edge (max is idempotent), as block rows and edge indices
        task, length = dst[start[carried_run]], (end - start)[carried_run]
        pad = np.minimum(np.arange(length.max(initial=1)), length[:, None] - 1) + at[carried_run][:, None]
        cut = np.searchsorted(task, [*firsts, n]).tolist()  # each block's first carried run, and the end
        lengths, rows, edges = length.tolist(), task % block, bounds.tolist()
        self._blocks = []
        for a, e0, ec, e1, c0, c1 in zip(firsts, edges, carried_end.tolist(), edges[1:], cut, cut[1:]):
            width = max(lengths[c0:c1], default=1)
            self._blocks.append((a, min(a + block, n), e0, ec, e1, rows[c0:c1], pad[c0:c1, :width]))
        # in-block runs: per task, its predecessor position(s) and its edges
        # as a slice of its block's edges; one predecessor is a plain position
        steps: list = [None] * n
        inner = ~carried_run
        edge_src, first = src.tolist(), start[inner]
        for i, e0, e1, i0 in zip(dst[first].tolist(), first.tolist(), end[inner].tolist(), at[inner].tolist()):
            steps[i] = (edge_src[e0] if e1 - e0 == 1 else src[e0:e1], i0, i0 + e1 - e0)
        self._steps = steps

    @property
    def n_clusters(self) -> int:
        return self.plan.n_clusters

    @property
    def n_resources(self) -> int:
        return len(self.catalog)

    def _check_genes(self, genes) -> np.ndarray:
        """The genes in `gene_dtype(n_resources)`, copied only when given in
        another type: one assignment vector, or a matrix with one assignment
        per row. Any integer type with every index in range is accepted, and
        the walk sees one type (uint64 genes plus intp offsets would give
        float indices)."""
        G = np.asarray(genes)
        if G.ndim not in (1, 2):
            raise ValueError(f"genes must be one assignment vector or a matrix of them, got {G.ndim} dimensions")
        if G.shape[-1] != self.plan.n_clusters:
            raise ValueError(f"assignment length {G.shape[-1]} != cluster count {self.plan.n_clusters}")
        if G.size:
            if G.dtype.kind not in "iu":
                raise ValueError(f"resource indices must be integers, got {G.dtype} values")
            lo, hi = G.min(), G.max()
            if lo < 0 or hi >= self.n_resources:
                raise ValueError(f"resource index {lo if lo < 0 else hi} out of range 0..{self.n_resources - 1}")
        return G.astype(gene_dtype(self.n_resources), copy=False)

    def _walk(self, genes_of: np.ndarray, st: np.ndarray | None = None) -> np.ndarray:
        """Decode every row in one pass over the global order.

        genes_of is the (n_clusters x P) contiguous transpose of the gene
        matrix. Returns the (n_tasks x P) finish times; fills st, when
        given, with the start times.
        """
        n_res = self.n_resources
        n_rows = genes_of.shape[1]
        cluster_of, offset, exec_, steps = self._cluster_of, self._offset, self._exec, self._steps
        edge_src, edge_size = self._edge_src, self._edge_size
        row_base = np.arange(n_rows) * n_res
        res_free = np.zeros(n_rows * n_res)  # [row, resource], flat
        ft = np.empty((len(cluster_of), n_rows))
        for a, b, e0, ec, e1, rows, pad in self._blocks:
            # everything that does not depend on the walk's state, as
            # (block x P) matrices: resources, flat res_free slots, exec
            # times, and each incoming edge's transfer time
            R = genes_of.take(cluster_of[a:b], axis=0)
            slots = R + row_base
            E = exec_.take(R + offset[a:b])
            # the link index in intp: a uint8 product wraps from 17 resources on
            link = np.multiply(genes_of.take(self._edge_src_cl[e0:e1], axis=0), n_res, dtype=np.intp)
            link += genes_of.take(self._edge_dst_cl[e0:e1], axis=0)
            TR = np.divide(edge_size[e0:e1], self._link.take(link))
            # data-ready times over the edges carried in from earlier
            # blocks, whose finish times are final: max is exact in any
            # order, and every arrival is >= +0.0, the ready time of a task
            # without carried edges
            ready = np.zeros((b - a, n_rows))
            if ec > e0:
                arrival = ft.take(edge_src[e0:ec], axis=0)
                arrival += TR[: ec - e0]
                ready[rows] = arrival[pad].max(axis=1)
            for k, (slot, r, e, f, step) in enumerate(zip(slots, ready, E, ft[a:b], steps[a:b])):
                s = res_free[slot]
                np.maximum(s, r, out=s)
                if step is not None:
                    p, i0, i1 = step
                    if i1 - i0 == 1:
                        arrival = ft[p] + TR[i0]
                    else:
                        arrival = (ft.take(p, axis=0) + TR[i0:i1]).max(axis=0)
                    np.maximum(s, arrival, out=s)
                np.add(s, e, out=f)
                res_free[slot] = f
                if st is not None:
                    st[a + k] = s
        return ft

    def _workflow_totals(self, genes_of: np.ndarray, ft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each workflow's finish time and cost, both (n_workflows x P).

        Cost does not depend on times, so it is summed here, not in the
        walk: each workflow's gathered (tasks x P) cost rows are added one
        task at a time in dispatch order (`np.add.accumulate`, never the
        pairwise `np.sum`), the order of a per-genome walk."""
        finish = np.empty((len(self._workflows), ft.shape[1]))
        cost = np.empty_like(finish)
        for g, (rows, clusters, offset) in enumerate(self._workflows):
            finish[g] = ft.take(rows, axis=0).max(axis=0, initial=0.0)
            cost[g] = np.add.accumulate(self._cost.take(genes_of.take(clusters, axis=0) + offset), axis=0)[-1]
        return finish, cost

    def objectives(self, genes) -> tuple[float, float, float] | np.ndarray:
        """(makespan, total cost, unfairness) of each assignment.

        A (P x n_clusters) gene matrix gives a (P x 3) float array; a single
        assignment vector gives one tuple. The walk reads the contiguous
        transpose of the genes in `gene_dtype(n_resources)`; the resource
        indices it gathers are widened to intp where offsets are added.
        """
        G = self._check_genes(genes)
        genes_of = np.ascontiguousarray(np.atleast_2d(G).T)
        out = self._tail(*self._workflow_totals(genes_of, self._walk(genes_of)))[0]
        if G.ndim == 1:
            return tuple(out[0].tolist())
        return out

    def _tail(self, wf_finish: np.ndarray, wf_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P x 3) objectives from the (workflows x P) finish times and
        costs, as whole-matrix operations: the makespan is a column max, the
        total cost a sum in workflow order, and the losses feed one
        `unfairness` call. Also returns the (workflows x P) slowdown and
        overspending those losses are summed from."""
        slowdown = wf_finish / self._heft
        overspending = wf_cost / self._cheapest
        out = np.empty((wf_finish.shape[1], 3))
        out[:, 0] = wf_finish.max(axis=0)
        out[:, 1] = np.add.accumulate(wf_cost)[-1]
        out[:, 2] = unfairness(slowdown + overspending)
        return out, slowdown, overspending

    def decode(self, genes) -> Schedule:
        """Full schedule of one assignment, placements and fairness included."""
        G = self._check_genes(genes)
        if G.ndim != 1:
            raise ValueError("decode takes one assignment vector")
        genes_of = np.ascontiguousarray(G[:, None])
        st = np.empty((len(self._steps), 1))
        ft = self._walk(genes_of, st)
        wf_finish, wf_cost = self._workflow_totals(genes_of, ft)
        out, slowdown, overspending = self._tail(wf_finish, wf_cost)
        res_ids = [r.id for r in self.catalog]
        placements = {
            tid: Placement(res_ids[r], s, f)
            for tid, r, s, f in zip(self._task_ids, G[self._cluster_of].tolist(), st[:, 0].tolist(), ft[:, 0].tolist())
        }
        columns = (a[:, 0].tolist() for a in (wf_finish, wf_cost, slowdown, overspending))
        per_workflow = tuple(map(WorkflowLoss, [w.id for w in self.ws.workflows], *columns))
        return Schedule(placements, *out[0].tolist(), per_workflow)


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
                if pp is None or pp.resource_id not in by_res:
                    continue  # reported in the predecessor's own check
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
