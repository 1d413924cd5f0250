"""NSGA-III search over cluster-to-resource assignments.

A solution is an integer vector with one resource index per cluster,
evaluated to (makespan, total cost, unfairness) by the decoder. Each
generation builds offspring by binary tournament (nondomination rank, then
niche crowding, then a coin flip), single-point crossover and per-gene
uniform resampling mutation, then truncates parents + offspring back to the
population size with reference-direction niching on a Das-Dennis simplex
lattice, normalizing objectives adaptively with ideal point and hyperplane
intercepts through the extreme points.

One deliberate addition to the textbook truncation: when the boundary front
is split, the per-objective minimizers of the candidate pool are admitted
first ("corner guard"). This makes elitism on every single objective
unconditional, at the price of at most n_objectives niche picks.

Selection state is passed as arrays, never stored on solutions: survivor
selection returns the kept rows of the gene (P x n) and objective (P x 3)
matrices with their nondomination rank and niche crowding, and the
tournament draws row indices against those. A generation builds all its
children before evaluating any, then decodes them in one
`Evaluator.objectives` call on the children's gene matrix.

Determinism: every random decision draws from a generator derived from
(seed, generation, slot), so reruns with one seed reproduce the exact
front bit for bit, independent of the process hash salt.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .clustering import ClusterPlan, OrderedPlan
from .evaluation import Baselines, Evaluator
from .model import ResourceCatalog, WorkflowSet

N_OBJECTIVES = 3


@dataclass(frozen=True)
class OptimizerConfig:
    population: int = 50
    generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float = 0.01
    divisions: int = 12
    seed: int = 0

    def validate(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        for name in ("crossover_rate", "mutation_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.divisions < 1:
            raise ValueError(f"divisions must be >= 1, got {self.divisions}")


@dataclass(frozen=True)
class Individual:
    """A front member: its assignment and its objective vector."""

    assignment: np.ndarray
    objectives: np.ndarray

    def genes_tuple(self) -> tuple[int, ...]:
        return tuple(int(g) for g in self.assignment)


@dataclass(frozen=True)
class Front:
    """Pairwise non-dominated final individuals, deterministically ordered."""

    individuals: tuple[Individual, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self):
        return iter(self.individuals)

    def objectives_array(self) -> np.ndarray:
        if not self.individuals:
            return np.empty((0, N_OBJECTIVES))
        return np.array([ind.objectives for ind in self.individuals], dtype=float)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            width = len(self.individuals[0].assignment) if self.individuals else 0
            out.writerow(["makespan", "total_cost", "unfairness"] + [f"gene_{i}" for i in range(width)])
            for ind in self.individuals:
                out.writerow([repr(float(v)) for v in ind.objectives] + [int(g) for g in ind.assignment])


def reference_directions(divisions: int, n_obj: int = N_OBJECTIVES) -> np.ndarray:
    """Das-Dennis simplex lattice: all nonnegative n_obj-part compositions
    of `divisions`, scaled to sum to 1. C(divisions + n_obj - 1, n_obj - 1) rows."""
    points = []
    for bars in combinations(range(divisions + n_obj - 1), n_obj - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(divisions + n_obj - 2 - prev)
        points.append(parts)
    return np.array(points, dtype=float) / divisions


def nondominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Fast nondominated sort; returns index arrays per level, best first.

    Minimization everywhere: i dominates j when i <= j on every objective
    and < on at least one.
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    if n == 0:
        return []
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    dominates = le & lt  # [i, j] True when i dominates j
    dom_count = dominates.sum(axis=0)
    levels: list[np.ndarray] = []
    assigned = np.zeros(n, dtype=bool)
    current = np.flatnonzero(dom_count == 0)
    while current.size:
        levels.append(current)
        assigned[current] = True
        dom_count = dom_count - dominates[current].sum(axis=0)
        current = np.flatnonzero((dom_count == 0) & ~assigned)
    return levels


def crossover(a: np.ndarray, b: np.ndarray, rng, rate: float) -> tuple[np.ndarray, np.ndarray]:
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


def mutate(genes: np.ndarray, rng, rate: float, n_resources: int) -> np.ndarray:
    """Resample each gene uniformly over the catalog with probability `rate`."""
    genes = np.asarray(genes).copy()
    if len(genes) == 0 or rate <= 0.0:
        return genes
    mask = rng.random(len(genes)) < rate
    hits = int(mask.sum())
    if hits:
        genes[mask] = rng.integers(0, n_resources, size=hits)
    return genes


def _normalize(objs: np.ndarray) -> np.ndarray:
    """Adaptive normalization: translate by the ideal point, divide by
    hyperplane intercepts through the ASF extreme points, falling back to
    the nadir of the pool when the system is singular or degenerate."""
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
        candidate = 1.0 / plane
        if np.all(np.isfinite(candidate)) and np.all(candidate > 1e-12):
            intercepts = candidate
    except np.linalg.LinAlgError:
        pass
    intercepts = np.where(intercepts > 1e-12, intercepts, 1.0)
    return shifted / intercepts


def _associate(norm: np.ndarray, refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest reference line per point: (niche index, perpendicular distance)."""
    unit = refs / np.linalg.norm(refs, axis=1, keepdims=True)
    proj = norm @ unit.T
    sq = (norm * norm).sum(axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.maximum(sq, 0.0))
    return dist.argmin(axis=1), dist.min(axis=1)


def niche_preserve(objectives: np.ndarray, levels: list[np.ndarray], k: int, refs: np.ndarray, rng) -> list[int]:
    """Pick k survivors from the leveled pool, reference-direction niching
    on the split level. Returns selected pool indices in deterministic order."""
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
    considered = selected + [int(i) for i in levels[li]]
    niche_of, dist = _associate(_normalize(objs[considered]), refs)
    is_open = np.arange(len(considered)) >= len(selected)  # boundary positions not yet chosen
    chosen: list[int] = []
    remaining = k - len(selected)

    # corner guard: keep each objective's best point alive through the split;
    # argmin takes the first minimum, so ties go to the smallest position
    for j in range(N_OBJECTIVES):
        best_pos = int(np.argmin(objs[considered, j]))
        if len(chosen) < remaining and is_open[best_pos]:
            chosen.append(best_pos)
            is_open[best_pos] = False

    counts = np.bincount(niche_of[~is_open], minlength=len(refs))
    active = np.ones(len(refs), dtype=bool)
    while len(chosen) < remaining:
        live = np.flatnonzero(active)
        min_count = counts[live].min()
        tied = live[counts[live] == min_count]
        niche = int(tied[rng.integers(0, len(tied))]) if len(tied) > 1 else int(tied[0])
        members = np.flatnonzero(is_open & (niche_of == niche))
        if not members.size:
            active[niche] = False
            continue
        if counts[niche] == 0:
            pick = int(members[np.argmin(dist[members])])
        else:
            pick = int(members[rng.integers(0, len(members))])
        chosen.append(pick)
        is_open[pick] = False
        counts[niche] += 1
    return selected + [considered[p] for p in sorted(chosen)]


def _select_survivors(objs: np.ndarray, k: int, refs: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncate a pool of objective rows to k. Returns (keep, rank, crowd):
    the kept pool rows, their nondomination level in the pool, and how many
    of the kept rows share their reference niche."""
    levels = nondominated_sort(objs)
    rank = np.empty(len(objs), dtype=int)
    for li, level in enumerate(levels):
        rank[level] = li
    keep = np.array(niche_preserve(objs, levels, k, refs, rng))
    niche_of, _ = _associate(_normalize(objs[keep]), refs)
    crowd = np.bincount(niche_of, minlength=len(refs))[niche_of]
    return keep, rank[keep], crowd


def _tournament(rank: np.ndarray, crowd: np.ndarray, rng) -> int:
    """Binary tournament over population rows: lower rank, then less crowded, then a coin."""
    i, j = (int(x) for x in rng.integers(0, len(rank), size=2))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowd[i] != crowd[j]:
        return i if crowd[i] < crowd[j] else j
    return i if rng.random() < 0.5 else j


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def run(
    ws: WorkflowSet,
    catalog: ResourceCatalog,
    plan: ClusterPlan,
    order: OrderedPlan,
    cfg: OptimizerConfig,
    baselines: Baselines | None = None,
) -> Front:
    """Full optimization run; returns the final nondominated front."""
    evaluator = Evaluator(ws, catalog, plan, order, baselines)
    return run_with_evaluator(evaluator, cfg)


def run_with_evaluator(evaluator: Evaluator, cfg: OptimizerConfig) -> Front:
    cfg.validate()
    n_res = evaluator.n_resources
    refs = reference_directions(cfg.divisions)

    genes = _rng(cfg.seed, 0).integers(0, n_res, size=(cfg.population, evaluator.n_clusters))
    objs = evaluator.objectives(genes)
    keep, rank, crowd = _select_survivors(objs, cfg.population, refs, _rng(cfg.seed, 1))
    genes, objs = genes[keep], objs[keep]

    pairs = (cfg.population + 1) // 2
    for gen in range(cfg.generations):
        children = []
        for slot in range(pairs):
            rng = _rng(cfg.seed, 2, gen, slot)
            pa = _tournament(rank, crowd, rng)
            pb = _tournament(rank, crowd, rng)
            for child in crossover(genes[pa], genes[pb], rng, cfg.crossover_rate):
                children.append(mutate(child, rng, cfg.mutation_rate, n_res))
        children = np.array(children[: cfg.population])
        genes = np.concatenate([genes, children])
        objs = np.concatenate([objs, evaluator.objectives(children)])
        keep, rank, crowd = _select_survivors(objs, cfg.population, refs, _rng(cfg.seed, 3, gen))
        genes, objs = genes[keep], objs[keep]

    # rank 0 is the first front: the last selection kept pool level 0 whole or alone
    first: dict[tuple[int, ...], int] = {}
    for i in np.flatnonzero(rank == 0):
        first.setdefault(tuple(int(g) for g in genes[i]), int(i))
    ordered = sorted(first.items(), key=lambda item: (tuple(objs[item[1]]), item[0]))
    return Front(tuple(Individual(genes[i], objs[i]) for _, i in ordered))
