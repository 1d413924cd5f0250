"""Task clustering strategies and the interleaved submission order.

Clustering groups tasks so every member of a cluster is pinned to the same
resource, trading scheduling freedom for eliminated transfers. Expected
costs over a heterogeneous catalog use

* avg exec(t)  = workload * mean over resources of 1 / cpu_capacity,
* avg comm(e)  = data_size / mean bandwidth.

Note the two aggregate differently on purpose: execution averages the
per-resource times, communication divides by the average bandwidth.

Strategies (all produce a partition of every workflow's tasks):

dfs-cst
    Repeatedly open a cluster at the unclustered task with the highest
    upward rank (rank = avg exec + max over successors of avg comm + rank),
    then extend depth-first, always stepping to the unclustered direct
    successor with the largest avg_comm + avg_exec, until no unclustered
    successor remains. Ties pick the smallest task id.

p2p
    Pipeline-only merging, reconstructed baseline: an edge u -> v is merged
    only when u has out-degree 1 and v has in-degree 1, so clusters are the
    maximal linear runs and everything else stays a singleton.

mdnc
    Multilevel dependent-node merging, reconstructed baseline: tasks are
    levelled by longest-path depth from the entries; scanning levels in
    ascending order (ids ascending within a level) each task merges with its
    smallest-id successor on the next level that no one has claimed yet.
    Chains of such merges spanning several levels form one cluster.

none
    One singleton per task, the no-clustering control.

Ordering: order_interleave() emits tasks round-robin over workflows in
submission order; on a workflow's turn, its lowest-id cluster whose next
unemitted member has every direct predecessor already emitted contributes
that member, and a workflow with no ready cluster passes the turn. The
result is a topological permutation of every task in the set. A turn pops
a per-workflow min-heap of ready cluster ids instead of scanning clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .model import GraphError, ResourceCatalog, Workflow, WorkflowSet


@dataclass(frozen=True)
class Cluster:
    id: int
    workflow_id: str
    members: tuple[str, ...]  # in chain order


class ClusterPlan:
    """A partition of every task in a workflow set into clusters."""

    def __init__(self, clusters):
        self.clusters: tuple[Cluster, ...] = tuple(clusters)
        for i, c in enumerate(self.clusters):
            if c.id != i:
                raise ValueError(f"cluster ids must be 0..n-1 in order, got {c.id} at position {i}")
        self.task_to_cluster: dict[str, int] = {}
        for c in self.clusters:
            for m in c.members:
                if m in self.task_to_cluster:
                    raise ValueError(f"task {m!r} appears in two clusters")
                self.task_to_cluster[m] = c.id

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, task_id: str) -> int:
        try:
            return self.task_to_cluster[task_id]
        except KeyError:
            raise GraphError(f"task {task_id!r} is not in the plan") from None

    def violations(self, ws: WorkflowSet) -> list[str]:
        """Partition invariants: exactly the set's tasks, each exactly once,
        members inside one workflow, consecutive members joined by edges."""
        out: list[str] = []
        covered = set(self.task_to_cluster)
        expected = {t.id for t in ws.all_tasks()}
        for missing in sorted(expected - covered):
            out.append(f"task {missing!r} is not covered by any cluster")
        for extra in sorted(covered - expected):
            out.append(f"cluster member {extra!r} is not a task of the set")
        for c in self.clusters:
            if not c.members:
                out.append(f"cluster {c.id} is empty")
                continue
            try:
                w = ws.workflow(c.workflow_id)
            except GraphError:
                out.append(f"cluster {c.id} references unknown workflow {c.workflow_id!r}")
                continue
            for m in c.members:
                if not w.has_task(m):
                    out.append(f"cluster {c.id} member {m!r} is outside workflow {c.workflow_id!r}")
            for a, b in zip(c.members, c.members[1:]):
                if w.has_task(a) and w.has_task(b) and b not in w.successors(a):
                    out.append(f"cluster {c.id}: {a!r} -> {b!r} is not an edge")
        return out


@dataclass(frozen=True)
class OrderedPlan:
    """A global submission order, one entry per task in the set."""

    order: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)


def _catalog_means(catalog: ResourceCatalog) -> tuple[float, float]:
    """(mean bandwidth, mean 1 / cpu_capacity): the average-cost graph's scales."""
    mean_bw = sum(r.bandwidth for r in catalog) / len(catalog)
    inv_cu = sum(1.0 / r.cpu_capacity for r in catalog) / len(catalog)
    return mean_bw, inv_cu


def upward_rank(w: Workflow, catalog: ResourceCatalog) -> dict[str, float]:
    """Classic upward rank on the average-cost graph: the expected length of
    the longest path from each task to an exit."""
    mean_bw, inv_cu = _catalog_means(catalog)
    edge, successors, task = w.edge, w.successors, w.task
    rank: dict[str, float] = {}
    for tid in reversed(w.topological_order()):
        best = 0.0
        for s in successors(tid):
            value = edge(tid, s).data_size / mean_bw + rank[s]
            if value > best:
                best = value
        rank[tid] = task(tid).workload * inv_cu + best
    return rank


def cluster_dfs_cst(ws: WorkflowSet, catalog: ResourceCatalog) -> ClusterPlan:
    """Depth-first chains along the most expensive successor transitions."""
    mean_bw, inv_cu = _catalog_means(catalog)
    clusters: list[Cluster] = []
    for w in ws.workflows:
        rank = upward_rank(w, catalog)
        edge, successors, task = w.edge, w.successors, w.task
        unclustered = {t.id for t in w.tasks}
        # heads by rank, highest first, ties to the smallest id
        for head in sorted(unclustered, key=lambda tid: (-rank[tid], tid)):
            if head not in unclustered:
                continue
            members = [head]
            unclustered.remove(head)
            current = head
            while True:
                nxt = None
                best = -1.0
                for s in successors(current):
                    if s not in unclustered:
                        continue
                    value = edge(current, s).data_size / mean_bw + task(s).workload * inv_cu
                    if value > best:
                        nxt, best = s, value
                if nxt is None:
                    break
                members.append(nxt)
                unclustered.remove(nxt)
                current = nxt
            clusters.append(Cluster(len(clusters), w.id, tuple(members)))
    return ClusterPlan(clusters)


def cluster_p2p(ws: WorkflowSet, catalog: ResourceCatalog | None = None) -> ClusterPlan:
    """Merge maximal out-degree-1 -> in-degree-1 pipeline runs."""
    clusters: list[Cluster] = []
    for w in ws.workflows:
        topo = w.topological_order()
        link: dict[str, str] = {}
        for tid in topo:
            succ = w.successors(tid)
            if len(succ) == 1 and len(w.predecessors(succ[0])) == 1:
                link[tid] = succ[0]
        _append_chains(clusters, w, topo, link)
    return ClusterPlan(clusters)


def cluster_mdnc(ws: WorkflowSet, catalog: ResourceCatalog | None = None) -> ClusterPlan:
    """Greedy dependent-node merging between consecutive depth levels."""
    clusters: list[Cluster] = []
    for w in ws.workflows:
        topo = w.topological_order()
        level: dict[str, int] = {}
        for tid in topo:
            preds = w.predecessors(tid)
            level[tid] = 1 + max((level[p] for p in preds), default=-1)
        link: dict[str, str] = {}
        claimed: set[str] = set()
        for tid in sorted(topo, key=lambda t: (level[t], t)):
            for s in w.successors(tid):  # sorted, so the first hit is the smallest id
                if level[s] == level[tid] + 1 and s not in claimed:
                    link[tid] = s
                    claimed.add(s)
                    break
        _append_chains(clusters, w, topo, link)
    return ClusterPlan(clusters)


def _append_chains(clusters: list[Cluster], w: Workflow, topo: list[str], link: dict[str, str]) -> None:
    """One cluster per maximal chain of `link` steps, heads in topological order."""
    linked = set(link.values())
    for head in topo:
        if head in linked:
            continue
        members = [head]
        while members[-1] in link:
            members.append(link[members[-1]])
        clusters.append(Cluster(len(clusters), w.id, tuple(members)))


def cluster_none(ws: WorkflowSet, catalog: ResourceCatalog | None = None) -> ClusterPlan:
    """One singleton cluster per task (no-clustering control)."""
    clusters: list[Cluster] = []
    for w in ws.workflows:
        for tid in w.topological_order():
            clusters.append(Cluster(len(clusters), w.id, (tid,)))
    return ClusterPlan(clusters)


CLUSTERERS = {
    "dfs-cst": cluster_dfs_cst,
    "p2p": cluster_p2p,
    "mdnc": cluster_mdnc,
    "none": cluster_none,
}


def make_plan(ws: WorkflowSet, catalog: ResourceCatalog, method: str) -> ClusterPlan:
    try:
        fn = CLUSTERERS[method]
    except KeyError:
        raise ValueError(f"unknown clusterer {method!r}; choose from {sorted(CLUSTERERS)}") from None
    return fn(ws, catalog)


def order_interleave(plan: ClusterPlan, ws: WorkflowSet) -> OrderedPlan:
    """Round-robin the workflows, emitting one ready task per turn.

    On each workflow's turn its lowest-id ready cluster, one whose next
    unemitted member has all direct predecessors emitted, contributes that
    member; a workflow with nothing ready passes. Ready cluster ids sit in a
    min-heap per workflow, fed by per-task counts of unemitted predecessors.
    A full round with no progress means the plan is inconsistent with the
    DAGs and raises GraphError.
    """
    ready: dict[str, list[int]] = {w.id: [] for w in ws.workflows}
    for c in plan.clusters:
        if c.workflow_id not in ready:
            raise GraphError(f"cluster {c.id} references unknown workflow {c.workflow_id!r}")
    total = ws.n_tasks
    if len(plan.task_to_cluster) != total:
        raise GraphError("plan does not cover the workflow set exactly")
    waiting: dict[str, int] = {}  # task -> unemitted predecessors
    for c in plan.clusters:
        predecessors = ws.workflow(c.workflow_id).predecessors
        for m in c.members:
            waiting[m] = len(predecessors(m))
        if c.members and waiting[c.members[0]] == 0:
            ready[c.workflow_id].append(c.id)  # ascending ids form a heap
    chains = [c.members for c in plan.clusters]
    nxt = [0] * len(chains)  # per cluster, the next member's index
    to_cluster = plan.task_to_cluster
    order: list[str] = []
    while len(order) < total:
        before = len(order)
        for w in ws.workflows:
            heap = ready[w.id]
            if not heap:
                continue
            cid = heappop(heap)
            chain = chains[cid]
            i = nxt[cid]
            tid = chain[i]
            order.append(tid)
            nxt[cid] = i = i + 1
            if i < len(chain) and waiting[chain[i]] == 0:
                heappush(heap, cid)
            for s in w.successors(tid):
                waiting[s] -= 1
                if waiting[s] == 0:
                    c = to_cluster[s]
                    if chains[c][nxt[c]] == s:
                        heappush(heap, c)
        if len(order) == before:
            raise GraphError("interleaving stalled; plan is inconsistent with the workflow DAGs")
    return OrderedPlan(tuple(order))
