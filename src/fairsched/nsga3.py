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


@dataclass
class Individual:
    assignment: np.ndarray
    objectives: np.ndarray
    rank: int = -1
    niche_count: int = 0

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
    boundary = [int(i) for i in levels[li]]
    considered = selected + boundary
    norm = _normalize(objs[considered])
    niche_of, dist = _associate(norm, refs)
    counts = np.zeros(len(refs), dtype=int)
    for pos in range(len(selected)):
        counts[niche_of[pos]] += 1

    boundary_pos = list(range(len(selected), len(considered)))
    chosen: list[int] = []
    remaining = k - len(selected)

    # corner guard: keep each objective's best point alive through the split
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


def _select_survivors(pool: list[Individual], k: int, refs: np.ndarray, rng) -> list[Individual]:
    objs = np.array([ind.objectives for ind in pool])
    levels = nondominated_sort(objs)
    for li, level in enumerate(levels):
        for i in level:
            pool[int(i)].rank = li
    survivors = [pool[i] for i in niche_preserve(objs, levels, k, refs, rng)]
    norm = _normalize(np.array([ind.objectives for ind in survivors]))
    niche_of, _ = _associate(norm, refs)
    counts = np.bincount(niche_of, minlength=len(refs))
    for ind, niche in zip(survivors, niche_of):
        ind.niche_count = int(counts[niche])
    return survivors


def _tournament(pop: list[Individual], rng) -> Individual:
    i, j = rng.integers(0, len(pop), size=2)
    a, b = pop[int(i)], pop[int(j)]
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.niche_count != b.niche_count:
        return a if a.niche_count < b.niche_count else b
    return a if rng.random() < 0.5 else b


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
    n_genes = evaluator.n_clusters
    n_res = evaluator.n_resources
    refs = reference_directions(cfg.divisions)

    init_rng = _rng(cfg.seed, 0)
    genes = init_rng.integers(0, n_res, size=(cfg.population, n_genes))
    population = [
        Individual(genes[i], np.array(evaluator.objectives(genes[i]), dtype=float))
        for i in range(cfg.population)
    ]
    population = _select_survivors(population, cfg.population, refs, _rng(cfg.seed, 1))

    pairs = (cfg.population + 1) // 2
    for gen in range(cfg.generations):
        offspring: list[Individual] = []
        for slot in range(pairs):
            rng = _rng(cfg.seed, 2, gen, slot)
            pa = _tournament(population, rng)
            pb = _tournament(population, rng)
            ca, cb = crossover(pa.assignment, pb.assignment, rng, cfg.crossover_rate)
            for child in (ca, cb):
                child = mutate(child, rng, cfg.mutation_rate, n_res)
                offspring.append(Individual(child, np.array(evaluator.objectives(child), dtype=float)))
        offspring = offspring[: cfg.population]
        population = _select_survivors(
            population + offspring, cfg.population, refs, _rng(cfg.seed, 3, gen)
        )

    # rank 0 is the first front: the last selection kept pool level 0 whole or alone
    unique: dict[tuple[int, ...], Individual] = {}
    for ind in population:
        if ind.rank == 0:
            unique.setdefault(ind.genes_tuple(), ind)
    ordered = sorted(unique.values(), key=lambda ind: (tuple(ind.objectives), ind.genes_tuple()))
    return Front(tuple(ordered))
