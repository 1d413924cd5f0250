"""Data model for multi-workflow DAG scheduling.

A workflow is a DAG of tasks with weighted edges; a workflow set is the unit
submitted to the platform. Resources describe the heterogeneous machine types
tasks can run on. All quantities are abstract units: workload in compute
units, data size in data units, so time = workload / cpu_capacity and
transfer = data_size / bandwidth.

Everything here is treated as immutable after construction. Structural
problems are reported by :func:`validate` as a list of violation strings
rather than raised, except for operations that cannot produce a meaningful
result (unknown ids, cycles in a topological sort), which raise
:class:`GraphError`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


class GraphError(Exception):
    """Unknown id lookup or an operation on a cyclic graph."""


class ValidationError(Exception):
    """Raised by ensure_valid() when a workflow set has violations."""


@dataclass(frozen=True)
class Task:
    id: str
    workflow_id: str
    workload: float  # compute units, >= 0


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    data_size: float  # data units, >= 0


@dataclass(frozen=True)
class Resource:
    id: str
    cpu_capacity: float
    bandwidth: float
    cost_per_interval: float
    billing_interval: float


@dataclass(frozen=True)
class ResourceCatalog:
    """The set of machine types available on the platform."""

    resources: tuple[Resource, ...]

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        if not self.resources:
            raise ValueError("resource catalog is empty")
        seen = set()
        for r in self.resources:
            if r.id in seen:
                raise ValueError(f"duplicate resource id {r.id!r}")
            seen.add(r.id)
            for field in ("cpu_capacity", "bandwidth", "cost_per_interval", "billing_interval"):
                value = getattr(r, field)
                if not 0 < value < math.inf:
                    raise ValueError(f"resource {r.id!r}: {field} must be finite and > 0, got {value!r}")

    def __len__(self) -> int:
        return len(self.resources)

    def __iter__(self):
        return iter(self.resources)

    def __getitem__(self, index: int) -> Resource:
        return self.resources[index]


class Workflow:
    """A single DAG of tasks. Do not mutate after construction.

    The constructor tolerates structurally broken input (dangling edge
    endpoints, duplicate edges, cycles); those are surfaced by
    :func:`validate` so loaders can report all problems at once. Adjacency
    is only built for edges whose endpoints both exist.
    """

    def __init__(self, id: str, tasks, edges):
        self.id = id
        self.tasks: tuple[Task, ...] = tuple(tasks)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._task_by_id = {t.id: t for t in self.tasks}
        pred: dict[str, list[str]] = {t.id: [] for t in self.tasks}
        succ: dict[str, list[str]] = {t.id: [] for t in self.tasks}
        self._edge_by_pair: dict[tuple[str, str], Edge] = {}
        for e in self.edges:
            if e.src == e.dst or e.src not in self._task_by_id or e.dst not in self._task_by_id:
                continue
            if (e.src, e.dst) in self._edge_by_pair:
                continue
            self._edge_by_pair[(e.src, e.dst)] = e
            succ[e.src].append(e.dst)
            pred[e.dst].append(e.src)
        # sorted adjacency keeps every downstream iteration deterministic
        self._pred = {k: tuple(sorted(v)) for k, v in pred.items()}
        self._succ = {k: tuple(sorted(v)) for k, v in succ.items()}
        self._topo: tuple[str, ...] | None = None

    def __repr__(self) -> str:
        return f"Workflow({self.id!r}, {len(self.tasks)} tasks, {len(self.edges)} edges)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Workflow):
            return NotImplemented
        return (
            self.id == other.id
            and sorted(self.tasks, key=lambda t: t.id) == sorted(other.tasks, key=lambda t: t.id)
            and sorted(self.edges, key=lambda e: (e.src, e.dst)) == sorted(other.edges, key=lambda e: (e.src, e.dst))
        )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def task(self, task_id: str) -> Task:
        try:
            return self._task_by_id[task_id]
        except KeyError:
            raise GraphError(f"workflow {self.id!r} has no task {task_id!r}") from None

    def has_task(self, task_id: str) -> bool:
        return task_id in self._task_by_id

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self._edge_by_pair[(src, dst)]
        except KeyError:
            raise GraphError(f"workflow {self.id!r} has no edge {src!r} -> {dst!r}") from None

    def predecessors(self, task_id: str) -> tuple[str, ...]:
        """Ids of direct predecessors of task_id, sorted."""
        if task_id not in self._pred:
            self.task(task_id)  # raises the unknown-task GraphError
        return self._pred[task_id]

    def successors(self, task_id: str) -> tuple[str, ...]:
        """Ids of direct successors of task_id, sorted."""
        if task_id not in self._succ:
            self.task(task_id)  # raises the unknown-task GraphError
        return self._succ[task_id]

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; ties resolved by lexicographically smallest id.

        Raises GraphError if the edges contain a cycle. An empty workflow
        yields an empty list. The order is computed once; each call returns
        a fresh list, and a cycle raises on every call.
        """
        if self._topo is not None:
            return list(self._topo)
        indegree = {tid: len(p) for tid, p in self._pred.items()}
        ready = [tid for tid, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            tid = heapq.heappop(ready)
            order.append(tid)
            for s in self._succ[tid]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != len(self.tasks):
            stuck = sorted(tid for tid, d in indegree.items() if d > 0)
            raise GraphError(f"workflow {self.id!r} has a cycle involving {stuck}")
        self._topo = tuple(order)
        return order


class WorkflowSet:
    """An ordered collection of workflows submitted together."""

    def __init__(self, workflows):
        self.workflows: tuple[Workflow, ...] = tuple(workflows)
        self._by_id = {w.id: w for w in self.workflows}

    def __repr__(self) -> str:
        return f"WorkflowSet({[w.id for w in self.workflows]})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkflowSet):
            return NotImplemented
        return list(self.workflows) == list(other.workflows)

    def __len__(self) -> int:
        return len(self.workflows)

    def __iter__(self):
        return iter(self.workflows)

    def workflow(self, workflow_id: str) -> Workflow:
        try:
            return self._by_id[workflow_id]
        except KeyError:
            raise GraphError(f"no workflow {workflow_id!r} in set") from None

    @property
    def n_tasks(self) -> int:
        return sum(w.n_tasks for w in self.workflows)

    def all_tasks(self) -> list[Task]:
        """Every task, workflows in submission order, tasks in stored order."""
        return [t for w in self.workflows for t in w.tasks]


def validate(ws: WorkflowSet) -> list[str]:
    """Check structural invariants, returning a list of violation strings.

    An empty list means the set is well formed: unique workflow ids, task
    ids unique across the whole set, edge endpoints present in the same
    workflow, no self-loops or duplicate edges, finite non-negative weights, and
    acyclic workflows.
    """
    violations: list[str] = []
    seen_wf: set[str] = set()
    seen_task: set[str] = set()
    for w in ws.workflows:
        if w.id in seen_wf:
            violations.append(f"duplicate workflow id {w.id!r}")
        seen_wf.add(w.id)
        for t in w.tasks:
            if t.id in seen_task:
                violations.append(f"duplicate task id {t.id!r}")
            seen_task.add(t.id)
            if t.workflow_id != w.id:
                violations.append(f"task {t.id!r} carries workflow_id {t.workflow_id!r} inside workflow {w.id!r}")
            if not 0 <= t.workload < math.inf:
                violations.append(f"task {t.id!r} has non-finite or negative workload {t.workload!r}")
        seen_edges: set[tuple[str, str]] = set()
        for e in w.edges:
            if e.src == e.dst:
                violations.append(f"workflow {w.id!r}: self-loop on {e.src!r}")
                continue
            missing = [x for x in (e.src, e.dst) if not w.has_task(x)]
            if missing:
                violations.append(f"workflow {w.id!r}: edge {e.src!r} -> {e.dst!r} references unknown task {missing[0]!r}")
                continue
            if (e.src, e.dst) in seen_edges:
                violations.append(f"workflow {w.id!r}: duplicate edge {e.src!r} -> {e.dst!r}")
            seen_edges.add((e.src, e.dst))
            if not 0 <= e.data_size < math.inf:
                violations.append(
                    f"workflow {w.id!r}: edge {e.src!r} -> {e.dst!r} has non-finite or negative data size {e.data_size!r}"
                )
        try:
            w.topological_order()
        except GraphError as exc:
            violations.append(str(exc))
    return violations


def ensure_valid(ws: WorkflowSet) -> WorkflowSet:
    """Raise ValidationError listing every violation; return ws unchanged if none."""
    violations = validate(ws)
    if violations:
        raise ValidationError("; ".join(violations))
    return ws
