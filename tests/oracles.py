"""Independent reference implementations used to cross-check the package.

Nothing here shares code with the package's algorithms: the simulator is
event-driven rather than a single decode walk, HEFT is re-derived from its
textbook description, dominance filtering and IGD are plain double loops,
and hypervolume is Monte Carlo. Deliberately slow and obvious. Frozen
copies of earlier package code pin bit-exact behaviour instead:
`niche_preserve_lists`, the optimizer's list-based survivor pick (it pins
the selection loop's picks and random draws), with the per-objective
normalization `normalize_per_objective`, the per-call niche association
`associate_per_call` and the truncation around them,
`select_survivors_lists`, which the stacked and bucketed forms must match
bit for bit and draw for draw, `offspring_slots`, the
optimizer's per-child tournament, crossover and mutation loop, which the
batched offspring step must match bit for bit, `_rng`, the optimizer's
slot generator built by numpy's own `SeedSequence`, which the optimizer's
batched generators must match state for state and whose numpy calls the
optimizer's draw streams must match value for value,
`generate_numpy_calls`, the dataset generator with every draw a numpy
`Generator` call, which the stream-driven generator must match byte for
byte, `ScalarWalk`, the
decoder's per-genome walk over plain Python lists, which the
population-vectorized decoder must match bit for bit, and the set-up
loops: `upward_rank_loop`, `heft_alone_loop` and `cheapest_alone_loop`
(the fairness baselines, float for float), `dfs_cst_scan` (dfs-cst's
head scan), `interleave_scan` (the dispatch order's per-turn cluster
scan), and the metrics' `pareto_filter_unique` (`np.unique` rows) and
`hv_slab_loop` (a Python loop per x-slab), which the array-at-once filter
and hypervolume must match bit for bit. `assert_same_position`,
`read_run_scores_csv` and `entry_set` are helpers that only the tests need.
"""

from __future__ import annotations

import csv
import math
from bisect import insort

import numpy as np

from fairsched.generator import DATA_SIZE_JITTER, MAX_PARENTS, WORKLOAD_RANGE, GeneratorSpec
from fairsched.metrics import RunScore
from fairsched.model import Edge, GraphError, Resource, ResourceCatalog, Task, Workflow, WorkflowSet
from fairsched.nsga3 import N_OBJECTIVES, nondominated_sort


def _transfer(data_size, src: Resource, dst: Resource) -> float:
    if src.id == dst.id:
        return 0.0
    return data_size / min(src.bandwidth, dst.bandwidth)


def event_sim(ws: WorkflowSet, catalog: ResourceCatalog, resource_of: dict[str, int], global_order):
    """Event-driven schedule: one FIFO queue per resource (queue order is
    the global order restricted to the resource), a queue head may start
    once every predecessor finished, start = max(resource free, data ready).

    Returns {task_id: (start, finish)}. Greedy head picking; the result is
    order independent (see exhaustive_event_orders), lowest resource index
    first here.
    """
    owner: dict[str, Workflow] = {}
    for w in ws.workflows:
        for t in w.tasks:
            owner[t.id] = w
    queues: list[list[str]] = [[] for _ in catalog]
    for tid in global_order:
        queues[resource_of[tid]].append(tid)
    heads = [0] * len(catalog)
    free = [0.0] * len(catalog)
    done: dict[str, tuple[float, float]] = {}
    total = sum(len(q) for q in queues)
    while len(done) < total:
        progressed = False
        for ri in range(len(catalog)):
            if heads[ri] >= len(queues[ri]):
                continue
            tid = queues[ri][heads[ri]]
            w = owner[tid]
            preds = w.predecessors(tid)
            if any(p not in done for p in preds):
                continue
            ready = 0.0
            for p in preds:
                arrival = done[p][1] + _transfer(
                    w.edge(p, tid).data_size, catalog[resource_of[p]], catalog[ri]
                )
                ready = max(ready, arrival)
            start = max(free[ri], ready)
            finish = start + w.task(tid).workload / catalog[ri].cpu_capacity
            done[tid] = (start, finish)
            free[ri] = finish
            heads[ri] += 1
            progressed = True
        if not progressed:
            raise AssertionError("event simulation deadlocked")
    return done


def exhaustive_event_orders(ws, catalog, resource_of, global_order):
    """All schedules reachable by any start-consistent head-picking order.

    Returns the set of canonicalized schedules; a singleton set proves the
    event order does not matter. Only for tiny instances.
    """
    owner: dict[str, Workflow] = {}
    for w in ws.workflows:
        for t in w.tasks:
            owner[t.id] = w
    queues: list[list[str]] = [[] for _ in catalog]
    for tid in global_order:
        queues[resource_of[tid]].append(tid)
    results = set()

    def rec(heads, free, done):
        choices = []
        for ri in range(len(catalog)):
            if heads[ri] >= len(queues[ri]):
                continue
            tid = queues[ri][heads[ri]]
            if all(p in done for p in owner[tid].predecessors(tid)):
                choices.append(ri)
        if not choices:
            assert all(heads[ri] == len(queues[ri]) for ri in range(len(catalog)))
            results.add(tuple(sorted((tid, st, ft) for tid, (st, ft) in done.items())))
            return
        for ri in choices:
            tid = queues[ri][heads[ri]]
            w = owner[tid]
            ready = 0.0
            for p in w.predecessors(tid):
                ready = max(
                    ready,
                    done[p][1]
                    + _transfer(w.edge(p, tid).data_size, catalog[resource_of[p]], catalog[ri]),
                )
            start = max(free[ri], ready)
            finish = start + w.task(tid).workload / catalog[ri].cpu_capacity
            new_heads = list(heads)
            new_heads[ri] += 1
            new_free = list(free)
            new_free[ri] = finish
            rec(new_heads, new_free, {**done, tid: (start, finish)})

    rec([0] * len(catalog), [0.0] * len(catalog), {})
    return results


# ---------------------------------------------------------------------------
# independent HEFT


def heft_reference(w: Workflow, catalog: ResourceCatalog) -> float:
    """Textbook HEFT, written from scratch: memoized recursive upward rank
    on average costs, decreasing-rank order, insertion-based earliest finish."""
    mean_bw = sum(r.bandwidth for r in catalog) / len(catalog)
    mean_et = {t.id: sum(t.workload / r.cpu_capacity for r in catalog) / len(catalog) for t in w.tasks}
    memo: dict[str, float] = {}

    def rank(tid: str) -> float:
        if tid not in memo:
            succ = w.successors(tid)
            tail = 0.0
            for s in succ:
                tail = max(tail, w.edge(tid, s).data_size / mean_bw + rank(s))
            memo[tid] = mean_et[tid] + tail
        return memo[tid]

    order = sorted((t.id for t in w.tasks), key=lambda tid: (-rank(tid), tid))
    busy: dict[str, list[tuple[float, float]]] = {r.id: [] for r in catalog}
    where: dict[str, Resource] = {}
    times: dict[str, tuple[float, float]] = {}
    for tid in order:
        best = None
        for r in catalog:
            ready = 0.0
            for p in w.predecessors(tid):
                ready = max(ready, times[p][1] + _transfer(w.edge(p, tid).data_size, where[p], r))
            duration = w.task(tid).workload / r.cpu_capacity
            slots = sorted(busy[r.id])
            candidates = [ready] + [finish for _, finish in slots if finish > ready]
            start = None
            for c in candidates:
                if all(c + duration <= s or c >= f for s, f in slots):
                    start = c if start is None else min(start, c)
            assert start is not None
            if best is None or start + duration < best[0]:
                best = (start + duration, start, r)
        finish, start, r = best
        where[tid] = r
        times[tid] = (start, finish)
        busy[r.id].append((start, finish))
    return max((f for _, f in times.values()), default=0.0)


def heft_fixed_assignment_makespan(w: Workflow, catalog: ResourceCatalog, resource_of: dict[str, int]) -> float:
    """Makespan when tasks run in decreasing-rank order on given resources,
    insertion allowed (the same machinery HEFT itself uses)."""
    mean_bw = sum(r.bandwidth for r in catalog) / len(catalog)
    mean_et = {t.id: sum(t.workload / r.cpu_capacity for r in catalog) / len(catalog) for t in w.tasks}
    memo: dict[str, float] = {}

    def rank(tid: str) -> float:
        if tid not in memo:
            tail = 0.0
            for s in w.successors(tid):
                tail = max(tail, w.edge(tid, s).data_size / mean_bw + rank(s))
            memo[tid] = mean_et[tid] + tail
        return memo[tid]

    order = sorted((t.id for t in w.tasks), key=lambda tid: (-rank(tid), tid))
    busy: dict[int, list[tuple[float, float]]] = {ri: [] for ri in range(len(catalog))}
    times: dict[str, tuple[float, float]] = {}
    for tid in order:
        ri = resource_of[tid]
        r = catalog[ri]
        ready = 0.0
        for p in w.predecessors(tid):
            ready = max(ready, times[p][1] + _transfer(w.edge(p, tid).data_size, catalog[resource_of[p]], r))
        duration = w.task(tid).workload / r.cpu_capacity
        slots = sorted(busy[ri])
        candidates = [ready] + [finish for _, finish in slots if finish > ready]
        start = None
        for c in candidates:
            if all(c + duration <= s or c >= f for s, f in slots):
                start = c if start is None else min(start, c)
        times[tid] = (start, start + duration)
        busy[ri].append((start, start + duration))
    return max((f for _, f in times.values()), default=0.0)


# ---------------------------------------------------------------------------
# metric oracles


def dominance_filter_naive(points):
    """O(n^2) nondominated filter over unique rows (minimization)."""
    pts = [tuple(p) for p in np.unique(np.asarray(points, dtype=float), axis=0)]
    keep = []
    for p in pts:
        dominated = False
        for q in pts:
            if q != p and all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p)):
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return np.array(keep)


def pareto_filter_unique(points) -> np.ndarray:
    """Frozen copy of the package's earlier `pareto_filter`: `np.unique`
    rows, then level 0 of the nondominated sort."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.size == 0:
        return pts.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    return pts[nondominated_sort(pts, stop=1)[0]]


def hv_slab_loop(front, ref) -> float:
    """Frozen copy of the package's earlier `hv`: a Python loop over the
    x-slabs, each summing its 2-D staircase stair by stair."""
    pts = np.asarray(front, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float)
    if len(pts) == 0:
        return 0.0
    pts = pareto_filter_unique(pts[(pts < ref).all(axis=1)])
    if len(pts) == 0:
        return 0.0
    xs = np.unique(pts[:, 0])
    volume = 0.0
    for i, x in enumerate(xs):
        depth = (xs[i + 1] if i + 1 < len(xs) else ref[0]) - x
        active = pts[pts[:, 0] <= x][:, 1:]
        volume += depth * _staircase_area(active, ref[1], ref[2])
    return float(volume)


def _staircase_area(yz: np.ndarray, ref_y: float, ref_z: float) -> float:
    order = np.lexsort((yz[:, 1], yz[:, 0]))  # y ascending, z ascending within
    area = 0.0
    best_z = ref_z
    stairs: list[tuple[float, float]] = []
    for y, z in yz[order]:
        if z < best_z:
            stairs.append((y, z))
            best_z = z
    for i, (y, z) in enumerate(stairs):
        next_y = stairs[i + 1][0] if i + 1 < len(stairs) else ref_y
        area += (next_y - y) * (ref_z - z)
    return area


def igd_naive(front, reference) -> float:
    total = 0.0
    for r in reference:
        best = math.inf
        for p in front:
            d = math.dist(tuple(r), tuple(p))
            best = min(best, d)
        total += best
    return total / len(reference)


def mc_hypervolume(points, ref, n_samples: int, seed: int):
    """Monte Carlo hypervolume estimate with its standard error."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 1.0, size=(n_samples, 3)) * ref
    covered = np.zeros(n_samples, dtype=bool)
    for p in pts:
        covered |= (samples >= p).all(axis=1)
    frac = covered.mean()
    box = float(np.prod(ref))
    sigma = box * math.sqrt(max(frac * (1 - frac), 1e-12) / n_samples)
    return frac * box, sigma


# ---------------------------------------------------------------------------
# survivor selection oracle


def normalize_per_objective(objs: np.ndarray) -> np.ndarray:
    """Adaptive normalization with one ASF extreme point per objective in a
    loop: translate by the ideal point, divide by hyperplane intercepts
    through the extreme points, and fall back to the nadir of the pool when
    the system is singular or degenerate."""
    ideal = objs.min(axis=0)
    shifted = objs - ideal
    nadir_span = shifted.max(axis=0)
    weights = np.full((N_OBJECTIVES, N_OBJECTIVES), 1e-6)
    np.fill_diagonal(weights, 1.0)
    extremes = np.empty((N_OBJECTIVES, N_OBJECTIVES))
    for j in range(N_OBJECTIVES):
        asf = (shifted / weights[j]).max(axis=1)
        extremes[j] = shifted[int(np.argmin(asf))]
    intercepts = nadir_span.copy()
    try:
        plane = np.linalg.solve(extremes, np.ones(N_OBJECTIVES))
        with np.errstate(divide="ignore"):
            candidate = 1.0 / plane
        if np.all(np.isfinite(candidate)) and np.all(candidate > 1e-12):
            intercepts = candidate
    except np.linalg.LinAlgError:
        pass
    intercepts = np.where(intercepts > 1e-12, intercepts, 1.0)
    return shifted / intercepts


def associate_per_call(norm: np.ndarray, refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest reference line per point, unit directions built on every
    call, and the distance reduced a second time with `min`."""
    unit = refs / np.linalg.norm(refs, axis=1, keepdims=True)
    proj = norm @ unit.T
    sq = (norm * norm).sum(axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.maximum(sq, 0.0))
    return dist.argmin(axis=1), dist.min(axis=1)


def select_survivors_lists(objs: np.ndarray, k: int, refs: np.ndarray, rng):
    """The optimizer's truncation to k rows, (keep, rank, crowd), over the
    list-based pick and the two functions above."""
    levels = nondominated_sort(objs, stop=k)
    rank = np.empty(len(objs), dtype=int)
    for li, level in enumerate(levels):
        rank[level] = li
    keep = np.array(niche_preserve_lists(objs, levels, k, refs, rng))
    niche_of, _ = associate_per_call(normalize_per_objective(objs[keep]), refs)
    crowd = np.bincount(niche_of, minlength=len(refs))[niche_of]
    return keep, rank[keep], crowd


def niche_preserve_lists(objectives, levels, k: int, refs, rng) -> list[int]:
    """List-based reference-direction survivor pick: candidate lists,
    per-niche list scans and keyed `min`s, with the draw order of the
    optimizer's `niche_preserve`."""
    objs = np.asarray(objectives, dtype=float)
    total = sum(len(lv) for lv in levels)
    if k > total:
        raise ValueError(f"cannot select {k} from a pool of {total}")
    selected: list[int] = []
    li = 0
    while li < len(levels) and len(selected) + len(levels[li]) <= k:
        selected.extend(int(i) for i in levels[li])
        li += 1
    if len(selected) == k:
        return selected
    boundary = [int(i) for i in levels[li]]
    considered = selected + boundary
    norm = normalize_per_objective(objs[considered])
    niche_of, dist = associate_per_call(norm, refs)
    counts = np.zeros(len(refs), dtype=int)
    for pos in range(len(selected)):
        counts[niche_of[pos]] += 1

    boundary_pos = list(range(len(selected), len(considered)))
    chosen: list[int] = []
    remaining = k - len(selected)

    for j in range(N_OBJECTIVES):
        if len(chosen) >= remaining:
            break
        best_pos = min(range(len(considered)), key=lambda p: (objs[considered[p], j], p))
        if best_pos in boundary_pos and best_pos not in chosen:
            chosen.append(best_pos)
            counts[niche_of[best_pos]] += 1

    active = np.ones(len(refs), dtype=bool)
    candidates = [p for p in boundary_pos if p not in chosen]
    while len(chosen) < remaining:
        live = np.flatnonzero(active)
        min_count = counts[live].min()
        tied = live[counts[live] == min_count]
        niche = int(tied[rng.integers(0, len(tied))]) if len(tied) > 1 else int(tied[0])
        members = [p for p in candidates if niche_of[p] == niche]
        if not members:
            active[niche] = False
            continue
        if counts[niche] == 0:
            pick = min(members, key=lambda p: (dist[p], p))
        else:
            pick = members[int(rng.integers(0, len(members)))]
        chosen.append(pick)
        candidates.remove(pick)
        counts[niche] += 1
    return selected + [considered[p] for p in sorted(chosen)]


# ---------------------------------------------------------------------------
# offspring oracle


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The optimizer's slot generator as numpy builds it:
    `SeedSequence(seed, spawn_key=key)`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def assert_same_position(stream, rng: np.random.Generator) -> None:
    """The draw stream's next unused word is the generator's next raw word,
    and both hold the same pending 32-bit half, if any."""
    state = rng.bit_generator.state
    assert state["has_uint32"] == (stream._half >= 0)
    if stream._half >= 0:
        assert state["uinteger"] == stream._half
    assert stream._take(1).item(0) == rng.bit_generator.random_raw()


def _tournament(rank, crowd, rng) -> int:
    i, j = (int(x) for x in rng.integers(0, len(rank), size=2))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowd[i] != crowd[j]:
        return i if crowd[i] < crowd[j] else j
    return i if rng.random() < 0.5 else j


def crossover(a, b, rng, rate: float):
    """Single-point crossover with probability `rate`; otherwise copies."""
    a = np.asarray(a)
    b = np.asarray(b)
    length = len(a)
    if length >= 2 and rng.random() < rate:
        cut = int(rng.integers(1, length))
        return (
            np.concatenate([a[:cut], b[cut:]]),
            np.concatenate([b[:cut], a[cut:]]),
        )
    return a.copy(), b.copy()


def mutate(genes, rng, rate: float, n_resources: int):
    """Resample each gene uniformly over the catalog with probability `rate`."""
    genes = np.asarray(genes).copy()
    if len(genes) == 0 or rate <= 0.0:
        return genes
    mask = rng.random(len(genes)) < rate
    hits = int(mask.sum())
    if hits:
        genes[mask] = rng.integers(0, n_resources, size=hits)
    return genes


def offspring_slots(genes, rank, crowd, rngs, crossover_rate: float, mutation_rate: float, n_resources: int):
    """The optimizer's per-slot offspring loop: per slot generator, two
    tournaments, `crossover` of the two parents, `mutate` of both children,
    one child per population row."""
    children = []
    for rng in rngs:
        pa = _tournament(rank, crowd, rng)
        pb = _tournament(rank, crowd, rng)
        for child in crossover(genes[pa], genes[pb], rng, crossover_rate):
            children.append(mutate(child, rng, mutation_rate, n_resources))
    return np.array(children[: len(genes)])


# ---------------------------------------------------------------------------
# dataset generator oracle


def generate_numpy_calls(spec: GeneratorSpec) -> WorkflowSet:
    """The layered-model generator with every draw a numpy `Generator` call:
    `integers`, a sized `uniform`, `choice` and `random` on `default_rng(seed)`."""
    spec.validate()
    lo, hi = spec.task_count_range
    rng = np.random.default_rng(spec.seed)
    jitter_lo, jitter_span = 1 - DATA_SIZE_JITTER, (1 + DATA_SIZE_JITTER) - (1 - DATA_SIZE_JITTER)
    workflows = []
    for g in range(spec.n_workflows):
        wid = f"w{g:03d}"
        n = int(rng.integers(lo, hi + 1))
        width_cap = math.ceil(spec.parallelism_degree * n)
        widths: list[int] = []
        remaining = n
        while remaining > 0:
            width = min(int(rng.integers(1, width_cap + 1)), remaining)
            widths.append(width)
            remaining -= width
        workloads = rng.uniform(WORKLOAD_RANGE[0], WORKLOAD_RANGE[1], size=n)
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
                k = min(int(rng.integers(1, MAX_PARENTS + 1)), len(prev))
                parents = sorted((prev[0] + rng.choice(len(prev), size=k, replace=False)).tolist())
                for p in parents:
                    edges.append(Edge(ids[p], ids[ti], scale * (jitter_lo + jitter_span * rng.random())))
        workflows.append(Workflow(wid, tasks, edges))
    return WorkflowSet(workflows)


# ---------------------------------------------------------------------------
# frozen set-up loops: baselines, dfs-cst heads and the interleaved order


def upward_rank_loop(w: Workflow, catalog: ResourceCatalog) -> dict[str, float]:
    """Upward rank on the average-cost graph, one method call per lookup."""
    mean_bw = sum(r.bandwidth for r in catalog) / len(catalog)
    inv_cu = sum(1.0 / r.cpu_capacity for r in catalog) / len(catalog)
    rank: dict[str, float] = {}
    for tid in reversed(w.topological_order()):
        best = 0.0
        for s in w.successors(tid):
            value = w.edge(tid, s).data_size / mean_bw + rank[s]
            if value > best:
                best = value
        rank[tid] = w.task(tid).workload * inv_cu + best
    return rank


def _earliest_slot(timeline, ready: float, duration: float) -> float:
    start = ready
    for slot_start, slot_finish in timeline:
        if start + duration <= slot_start:
            break
        if slot_finish > start:
            start = slot_finish
    return start


def heft_alone_loop(w: Workflow, catalog: ResourceCatalog) -> float:
    """HEFT alone, gathering every predecessor's transfer once per resource."""
    rank = upward_rank_loop(w, catalog)
    order = sorted((t.id for t in w.tasks), key=lambda tid: (-rank[tid], tid))
    timelines: list[list[tuple[float, float]]] = [[] for _ in catalog]
    placed: dict[str, tuple[int, float]] = {}
    for tid in order:
        task = w.task(tid)
        best = None
        for ri, r in enumerate(catalog):
            ready = 0.0
            for p in w.predecessors(tid):
                pr, pf = placed[p]
                arrival = pf + _transfer(w.edge(p, tid).data_size, catalog[pr], r)
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


def cheapest_alone_loop(w: Workflow, catalog: ResourceCatalog) -> float:
    total = 0.0
    for t in w.tasks:
        total += min(t.workload / r.cpu_capacity * r.cost_per_interval / r.billing_interval for r in catalog)
    return total


def dfs_cst_scan(ws: WorkflowSet, catalog: ResourceCatalog) -> list[tuple[str, tuple[str, ...]]]:
    """dfs-cst's (workflow, members) per cluster, scanning every unclustered
    id for the next head."""
    mean_bw = sum(r.bandwidth for r in catalog) / len(catalog)
    inv_cu = sum(1.0 / r.cpu_capacity for r in catalog) / len(catalog)
    clusters = []
    for w in ws.workflows:
        rank = upward_rank_loop(w, catalog)
        unclustered = {t.id for t in w.tasks}
        id_order = sorted(unclustered)
        while unclustered:
            head = None
            best_rank = -1.0
            for tid in id_order:  # ascending ids, so strict > keeps the smallest on ties
                if tid in unclustered and rank[tid] > best_rank:
                    head, best_rank = tid, rank[tid]
            members = [head]
            unclustered.remove(head)
            current = head
            while True:
                nxt = None
                best = -1.0
                for s in w.successors(current):
                    if s not in unclustered:
                        continue
                    value = w.edge(current, s).data_size / mean_bw + w.task(s).workload * inv_cu
                    if value > best:
                        nxt, best = s, value
                if nxt is None:
                    break
                members.append(nxt)
                unclustered.remove(nxt)
                current = nxt
            clusters.append((w.id, tuple(members)))
    return clusters


def interleave_scan(plan, ws: WorkflowSet) -> tuple[str, ...]:
    """The interleaved order, scanning a workflow's clusters in id order on
    each of its turns; raises GraphError where order_interleave must."""
    by_wf: dict[str, list[list]] = {w.id: [] for w in ws.workflows}
    for c in plan.clusters:
        if c.workflow_id not in by_wf:
            raise GraphError(f"cluster {c.id} references unknown workflow {c.workflow_id!r}")
        by_wf[c.workflow_id].append([c, 0])  # [cluster, next-member index]
    total = ws.n_tasks
    if len(plan.task_to_cluster) != total:
        raise GraphError("plan does not cover the workflow set exactly")
    emitted: set[str] = set()
    order: list[str] = []
    while len(order) < total:
        progressed = False
        for w in ws.workflows:
            for entry in by_wf[w.id]:
                cluster, i = entry
                if i >= len(cluster.members):
                    continue
                nxt = cluster.members[i]
                if all(p in emitted for p in w.predecessors(nxt)):
                    order.append(nxt)
                    emitted.add(nxt)
                    entry[1] = i + 1
                    progressed = True
                    break
        if not progressed:
            raise GraphError("interleaving stalled; plan is inconsistent with the workflow DAGs")
    return tuple(order)


# ---------------------------------------------------------------------------
# scalar decode oracle


class ScalarWalk:
    """The decoder's per-genome walk over flat Python lists, one genome at a
    time. Same index tables, float operations and operation order as the
    package's `Evaluator` had before decoding became population-vectorized."""

    def __init__(self, ws: WorkflowSet, catalog: ResourceCatalog, plan, order, baselines):
        self.task_ids = list(order.order)
        index = {tid: i for i, tid in enumerate(self.task_ids)}
        wf_index = {w.id: gi for gi, w in enumerate(ws.workflows)}
        owner: dict[str, Workflow] = {}
        for w in ws.workflows:
            for t in w.tasks:
                owner[t.id] = w

        self._wl: list[float] = []
        self._wf_of: list[int] = []
        self._cluster_of: list[int] = []
        self._preds: list[list[tuple[int, float]]] = []
        for tid in self.task_ids:
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
        self._heft = [baselines.heft_makespan[w.id] for w in ws.workflows]
        self._cheapest = [baselines.cheapest_cost[w.id] for w in ws.workflows]

    def walk(self, genes: list[int]):
        """(start, finish, resource index) per task in the global order, and
        each workflow's finish time and cost."""
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

    def objectives(self, genes) -> tuple[float, float, float]:
        """(makespan, total cost, unfairness) of one assignment."""
        _, ft, _, wf_finish, wf_cost = self.walk([int(g) for g in genes])
        losses = [wf_finish[g] / self._heft[g] + wf_cost[g] / self._cheapest[g] for g in range(self._n_wf)]
        mean = sum(losses) / len(losses)
        return (max(ft), sum(wf_cost), math.sqrt(sum((x - mean) ** 2 for x in losses) / len(losses)))

    def placements(self, genes) -> dict[str, tuple[int, float, float]]:
        """{task id: (resource index, start, finish)} of one assignment."""
        st, ft, task_res, _, _ = self.walk([int(g) for g in genes])
        return {tid: (task_res[i], st[i], ft[i]) for i, tid in enumerate(self.task_ids)}


# ---------------------------------------------------------------------------
# random instances (structured differently from the package generator)


def random_workflow(rng, wid: str, n_lo=2, n_hi=8, edge_prob=0.4) -> Workflow:
    """Random DAG via upper-triangular coin flips (not layered)."""
    n = int(rng.integers(n_lo, n_hi + 1))
    ids = [f"{wid}n{i:02d}" for i in range(n)]
    tasks = [Task(ids[i], wid, float(rng.uniform(0.5, 50.0))) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append(Edge(ids[i], ids[j], float(rng.uniform(0.0, 100.0))))
    return Workflow(wid, tasks, edges)


def random_workflow_set(rng, n_workflows: int, **kw) -> WorkflowSet:
    return WorkflowSet([random_workflow(rng, f"rw{g}", **kw) for g in range(n_workflows)])


def random_catalog(rng, n: int) -> ResourceCatalog:
    return ResourceCatalog(
        tuple(
            Resource(
                id=f"r{i}",
                cpu_capacity=float(rng.uniform(0.5, 8.0)),
                bandwidth=float(rng.uniform(1.0, 20.0)),
                cost_per_interval=float(rng.uniform(0.1, 5.0)),
                billing_interval=float(rng.choice([0.5, 1.0, 2.0])),
            )
            for i in range(n)
        )
    )


# ---------------------------------------------------------------------------
# clustering replay


def dfs_cst_replay_violations(ws: WorkflowSet, catalog: ResourceCatalog, plan) -> list[str]:
    """Re-derive every depth-first chain-extension decision and report any
    step where the plan disagrees with the rule: open at the unclustered
    task of highest upward rank, extend along the unclustered successor
    maximizing average communication + average execution time, stop only
    when no unclustered successor remains."""
    from fairsched.clustering import upward_rank

    problems: list[str] = []
    mean_bw = sum(r.bandwidth for r in catalog) / len(catalog)
    inv_cu = sum(1.0 / r.cpu_capacity for r in catalog) / len(catalog)
    by_wf: dict[str, list] = {}
    for c in plan:
        by_wf.setdefault(c.workflow_id, []).append(c)
    for w in ws.workflows:
        rank = upward_rank(w, catalog)
        unclustered = {t.id for t in w.tasks}
        for c in by_wf.get(w.id, []):
            head = c.members[0]
            best_rank = max(rank[t] for t in unclustered)
            if abs(rank[head] - best_rank) > 1e-9 * max(1.0, abs(best_rank)):
                problems.append(f"{w.id}: head {head} rank {rank[head]} < max {best_rank}")
            unclustered.discard(head)
            for cur, nxt in zip(c.members, c.members[1:]):
                if nxt not in w.successors(cur):
                    problems.append(f"{w.id}: {cur} -> {nxt} is not an edge")
                    unclustered.discard(nxt)
                    continue
                values = {
                    s: w.edge(cur, s).data_size / mean_bw + w.task(s).workload * inv_cu
                    for s in w.successors(cur)
                    if s in unclustered
                }
                if not values:
                    problems.append(f"{w.id}: {cur} extended with nothing available")
                elif values[nxt] < max(values.values()) * (1 - 1e-12) - 1e-12:
                    problems.append(f"{w.id}: {cur} -> {nxt} is not the argmax")
                unclustered.discard(nxt)
            tail = [s for s in w.successors(c.members[-1]) if s in unclustered]
            if tail:
                problems.append(f"{w.id}: cluster ended at {c.members[-1]} with {tail} available")
        if unclustered:
            problems.append(f"{w.id}: tasks never clustered: {sorted(unclustered)}")
    return problems


# ---------------------------------------------------------------------------
# helpers only the tests need


def entry_set(w: Workflow) -> tuple[str, ...]:
    """Tasks of `w` with no predecessors, sorted. Non-empty for any non-empty DAG."""
    return tuple(sorted(t.id for t in w.tasks if not w.predecessors(t.id)))


def read_run_scores_csv(path) -> list[RunScore]:
    """The rows of a <ds>_runs.csv that `write_run_scores_csv` wrote."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        RunScore(r["dataset"], r["algorithm"], int(r["repetition"]), float(r["igd"]), float(r["hv"]))
        for r in rows
    ]
