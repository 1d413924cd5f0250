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
tournament draws row indices against those. A generation first makes
every slot's draws, in the order a per-child loop would draw them: two
tournaments, the crossover coin and cut, then per child the mutation
coins and a resampled gene per hit. It then builds all its children at
once in one gene matrix: a gather of first parents, the second parents'
genes from each cut on, and the resampled genes written through one
mutation mask. It decodes the children in one `Evaluator.objectives`
call. Truncation sorts with one n x n dominance matrix, stopping at the
split level. It normalizes with the three ASFs stacked in one array and
associates against unit directions computed once per set of reference
directions. It niches over per-niche lists of open positions and count
buckets of niches, both cut from a stable `argsort` at `bincount`
offsets, drawing a niche when several tie on the lowest count and a
member when the niche already holds one.

Determinism: every random decision draws from a generator keyed by
(seed, generation, slot), with the state of `SeedSequence(seed,
spawn_key=key)` word for word, so reruns with one seed reproduce the exact
front bit for bit, independent of the process hash salt. The key is 0 for
the initial population, 1 for the first selection, (2, generation, slot)
for a slot's offspring and (3, generation) for a generation's selection.
numpy's own `SeedSequence(seed, spawn_key=key[:-1]).pool` holds the seed
and all but the last key word; the last key word and the seeding words of
all of a generation's slots are hashed at once, as uint32 arrays, and
PCG64 seeds itself from those words. The initial population is one sized
`Generator.integers` call on its PCG64. Every other draw is scalar and
comes from a `DrawStream` (`draws.py`) over the slot's or the selection's
PCG64: Python integer arithmetic on raw words that gives the values
numpy's `Generator` calls give, while the stream and its generator live
for that one slot or selection only.
"""

from __future__ import annotations

import csv
from bisect import insort
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import combinations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .clustering import ClusterPlan, OrderedPlan
from .draws import DrawStream
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
        if not 0 <= self.generations <= 2**32:
            raise ValueError(f"generations must be in [0, 2**32] (one 32-bit key word each), got {self.generations}")
        for name in ("crossover_rate", "mutation_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.divisions < 1:
            raise ValueError(f"divisions must be >= 1, got {self.divisions}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Individual:
    """A front member, as row views of its front: assignment and objectives."""

    assignment: np.ndarray
    objectives: np.ndarray

    def genes_tuple(self) -> tuple[int, ...]:
        return tuple(self.assignment.tolist())


@dataclass(frozen=True, eq=False)
class Front:
    """Pairwise non-dominated final members, deterministically ordered: row
    i of `genes` (members x clusters, int) and of `objectives` (members x 3,
    float) is member i. Iterating yields the members as `Individual` rows."""

    genes: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=int))
    objectives: np.ndarray = field(default_factory=lambda: np.empty((0, N_OBJECTIVES)))

    def __len__(self) -> int:
        return len(self.objectives)

    def __iter__(self):
        return map(Individual, self.genes, self.objectives)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["makespan", "total_cost", "unfairness"] + [f"gene_{i}" for i in range(self.genes.shape[1])])
            for objectives, genes in zip(self.objectives.tolist(), self.genes.tolist()):
                out.writerow([repr(v) for v in objectives] + genes)


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


def nondominated_sort(objectives: np.ndarray, stop: int | None = None) -> list[np.ndarray]:
    """Fast nondominated sort; returns index arrays per level, best first.

    Minimization everywhere: i dominates j when i <= j on every objective
    and < on at least one, that is, when j is not also <= i on every one.
    With `stop`, peeling ends once the returned levels hold at least `stop`
    rows; they are the leading levels of the full sort.
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    if n == 0:
        return []
    le = np.ones((n, n), dtype=bool)  # [i, j] True when i <= j on every objective
    for j in range(objs.shape[1]):
        le &= objs[:, None, j] <= objs[None, :, j]
    dominates = le & ~le.T  # [i, j] True when i dominates j
    dom_count = dominates.sum(axis=0)
    levels: list[np.ndarray] = []
    assigned = np.zeros(n, dtype=bool)
    current = np.flatnonzero(dom_count == 0)
    covered, stop = 0, n if stop is None else stop
    while current.size and covered < stop:
        levels.append(current)
        covered += current.size
        assigned[current] = True
        dom_count = dom_count - dominates[current].sum(axis=0)
        current = np.flatnonzero((dom_count == 0) & ~assigned)
    return levels


# weights[j] of the achievement scalarizing function that finds objective j's
# extreme point: 1 on objective j, 1e-6 elsewhere
_ASF_WEIGHTS = np.where(np.eye(N_OBJECTIVES, dtype=bool), 1.0, 1e-6)[:, None, :]


def _normalize(objs: np.ndarray) -> np.ndarray:
    """Adaptive normalization: translate by the ideal point, divide by
    hyperplane intercepts through the ASF extreme points, falling back to
    the nadir of the pool when the system is singular or degenerate. The
    three ASFs are one stacked division and maximum, so every quotient is
    the one a per-objective loop computes."""
    shifted = objs - objs.min(axis=0)
    extremes = shifted[(shifted / _ASF_WEIGHTS).max(axis=2).argmin(axis=1)]
    try:
        plane = np.linalg.solve(extremes, np.ones(N_OBJECTIVES))
    except np.linalg.LinAlgError:
        plane = None
    # a zero in the plane is an infinite intercept, never accepted: it is
    # not divided, so numpy has no division by zero to warn about
    if plane is not None and plane.all():
        intercepts = 1.0 / plane
        if np.isfinite(intercepts).all() and (intercepts > 1e-12).all():
            return shifted / intercepts
    span = shifted.max(axis=0)
    return shifted / np.where(span > 1e-12, span, 1.0)


@lru_cache(maxsize=8)
def _unit_directions(lattice: bytes, n_obj: int) -> np.ndarray:
    """Unit vectors along the reference directions whose float64 bytes are
    `lattice`, computed once per set of directions (read-only, as it is shared)."""
    refs = np.frombuffer(lattice).reshape(-1, n_obj)
    unit = refs / np.linalg.norm(refs, axis=1, keepdims=True)
    unit.flags.writeable = False
    return unit


def _associate(norm: np.ndarray, refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest reference line per point: (niche index, perpendicular distance)."""
    refs = np.asarray(refs, dtype=float)
    unit = _unit_directions(refs.tobytes(), refs.shape[1])
    proj = norm @ unit.T
    sq = (norm * norm).sum(axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.maximum(sq, 0.0))
    niche_of = dist.argmin(axis=1)
    return niche_of, dist[np.arange(len(dist)), niche_of]


def niche_preserve(objectives: np.ndarray, levels: list[np.ndarray], k: int, refs: np.ndarray, rng) -> list[int]:
    """Pick k survivors from the leveled pool, reference-direction niching
    on the split level. Returns selected pool indices in deterministic order.
    `rng` makes scalar `integers(low, high)` draws: a `DrawStream` or a
    numpy `Generator` on the same words draws the same."""
    objs = np.asarray(objectives, dtype=float)
    total = sum(len(lv) for lv in levels)
    if k > total:
        raise ValueError(f"cannot select {k} from a pool of {total}")
    selected: list[int] = []
    li = 0
    while li < len(levels) and len(selected) + len(levels[li]) <= k:
        selected += levels[li].tolist()
        li += 1
    if len(selected) == k:
        return selected
    considered = selected + levels[li].tolist()
    pool = objs[considered]
    niche_of, dist = _associate(_normalize(pool), refs)
    n_selected = len(selected)
    remaining = k - n_selected
    chosen: list[int] = []  # boundary positions picked, in pick order

    # corner guard: keep each objective's best point alive through the split;
    # argmin takes the first minimum, so ties go to the smallest position
    for best_pos in pool.argmin(axis=0).tolist():
        if len(chosen) < remaining and best_pos >= n_selected and best_pos not in chosen:
            chosen.append(best_pos)

    # open positions per niche in ascending order, and every niche bucketed
    # by its count of closed positions, ascending niche order in a bucket
    is_open = np.arange(len(considered)) >= n_selected
    is_open[chosen] = False
    counts = np.bincount(niche_of[~is_open], minlength=len(refs))
    open_pos = np.flatnonzero(is_open)
    open_niche = niche_of[open_pos]
    by_niche = open_pos[np.argsort(open_niche, kind="stable")].tolist()
    ends = np.bincount(open_niche, minlength=len(refs)).cumsum().tolist()
    open_at = [by_niche[start:end] for start, end in zip([0] + ends, ends)]
    by_count = np.argsort(counts, kind="stable").tolist()
    ends = np.bincount(counts).cumsum().tolist()
    buckets = {count: by_count[start:end] for count, (start, end) in enumerate(zip([0] + ends, ends)) if end > start}

    dist = dist.tolist()
    integers = rng.integers
    low = 0  # the minimum count over live niches never decreases
    tied = buckets.get(0, [])
    while len(chosen) < remaining:
        while not tied:
            low += 1
            tied = buckets.get(low, [])
        # one niche or one member draws nothing: a draw below 1 takes no random bits
        niche = tied.pop(integers(0, len(tied))) if len(tied) > 1 else tied.pop()
        members = open_at[niche]
        if not members:
            continue  # a niche with no open members leaves for good
        if low == 0:
            pick = min(members, key=dist.__getitem__)  # first minimum
            members.remove(pick)
        else:
            pick = members.pop(integers(0, len(members))) if len(members) > 1 else members.pop()
        chosen.append(pick)
        insort(buckets.setdefault(low + 1, []), niche)
    return selected + [considered[p] for p in sorted(chosen)]


def _select_survivors(objs: np.ndarray, k: int, refs: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncate a pool of objective rows to k. Returns (keep, rank, crowd):
    the kept pool rows, their nondomination level in the pool, and how many
    of the kept rows share their reference niche."""
    levels = nondominated_sort(objs, stop=k)  # kept rows lie at or above the split level
    rank = np.empty(len(objs), dtype=int)
    for li, level in enumerate(levels):
        rank[level] = li
    keep = np.array(niche_preserve(objs, levels, k, refs, rng))
    niche_of, _ = _associate(_normalize(objs[keep]), refs)
    crowd = np.bincount(niche_of, minlength=len(refs))[niche_of]
    return keep, rank[keep], crowd


def _offspring(
    genes: np.ndarray, rank: np.ndarray, crowd: np.ndarray, rngs, cfg: OptimizerConfig, n_resources: int
) -> np.ndarray:
    """One child per population row, a pair per slot's `DrawStream` in `rngs`.

    Each slot draws, in order: two binary tournaments, each two row indices
    and a coin when they tie on rank and crowding; a crossover coin when
    there are two or more genes, and a cut point when it hits; then for each
    child a coin per gene when mutation is on, and a resampled gene per hit.
    These are the values numpy's `integers(0, n, size=2)`, `random()`,
    `integers(1, n)`, `random(n) < rate` and `integers(0, n_resources,
    size=hits)` calls give on the slot's words. An odd population's last
    slot builds one child, and draws nothing for the second. A tournament
    keeps the row of lower rank, then of lower crowd (nonnegative). A child
    takes its first parent's genes before the cut and its second parent's
    from it (no crossover puts the cut at the end), with the hit genes
    replaced; all children are built at once from those draws.
    """
    size, n = genes.shape
    fitness = (rank * (int(crowd.max()) + 1) + crowd).tolist()  # rank, then crowd
    crossover_rate, mutation_rate = cfg.crossover_rate, cfg.mutation_rate
    mutating = n > 0 and mutation_rate > 0.0
    first: list[int] = []  # per child, the parent of its genes before the cut
    second: list[int] = []  # and the parent of its genes from the cut on
    cut_at: list[int] = []
    mutated = np.zeros((size, n), dtype=bool)
    rows = list(mutated)  # views, cheaper to slice than the matrix
    values: list[int] = []
    for c, rng in zip(range(0, size, 2), rngs):
        integers, random = rng.integers, rng.random
        i, j = integers(0, size), integers(0, size)
        pa = j if fitness[j] < fitness[i] or fitness[j] == fitness[i] and random() >= 0.5 else i
        i, j = integers(0, size), integers(0, size)
        pb = j if fitness[j] < fitness[i] or fitness[j] == fitness[i] and random() >= 0.5 else i
        cut = integers(1, n) if n >= 2 and random() < crossover_rate else n
        first += (pa, pb)
        second += (pb, pa)
        cut_at += (cut, cut)
        if mutating:
            for row in rows[c : c + 2]:
                rng.coins(mutation_rate, row)
                for _ in range(np.count_nonzero(row)):
                    values.append(integers(0, n_resources))
    children = genes[first[:size]]
    np.copyto(children, genes[second[:size]], where=np.arange(n) >= np.array(cut_at[:size])[:, None])
    if values:
        children[mutated] = values  # row-major, the order of the draws
    return children


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx); the
# uint32 ones make products with uint32 arrays wrap mod 2**32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@cache
def _multipliers(start: int, mult: int, skip: int, n: int) -> np.ndarray:
    """Hash multipliers skip to skip + n - 1 of the chain that starts at
    `start` and advances by `mult`, as uint32. A run meets a few chains
    only, so each is built once (read-only, as it is shared)."""
    chain = np.array([start * pow(mult, skip + i, 2**32) % 2**32 for i in range(n)], dtype=np.uint32)
    chain.flags.writeable = False
    return chain


def _hashmix(words: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """numpy's `hashmix` of uint32 words against a multiplier chain: word i
    of the last axis is xored with chain[i] and multiplied by chain[i + 1]."""
    hashed = words ^ chain[:-1]
    hashed *= chain[1:]
    hashed ^= hashed >> 16
    return hashed


# `generate_state(4, np.uint64)` hashes the pool words cyclically into 8 uint32 words
_STATE_CHAIN = _multipliers(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE + 1)


class _PCG64Words(ISeedSequence):
    """A seed sequence whose state is already generated: PCG64 asks for
    `generate_state(4, np.uint64)` once, when it is seeded, and gets these
    words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's seeding request, generate_state(4, np.uint64), is stored")
        return self.words


def _generators(seed: int, key: tuple[int, ...], last: np.ndarray) -> list[DrawStream]:
    """Draw streams over the PCG64 generators of `SeedSequence(seed,
    spawn_key=key + (w,))`, one for each 32-bit word w of `last`.

    numpy mixes the seed and `key` into `SeedSequence(seed, spawn_key=key)`'s
    pool; the last word is then absorbed into every pool word, for all w at
    once, and the 8 state words hashed. Mixing advances the hash multiplier
    4 times per entropy word, and the seed counts as at least 4 words (a
    spawn key pads it), so the last word's multipliers follow from the word
    counts alone. Every key entry is one word: generations are at most
    2**32 (`OptimizerConfig.validate`)."""
    pool = np.random.SeedSequence(seed, spawn_key=key).pool
    seed_words = -(-max(seed.bit_length(), 1) // 32)
    chain = _multipliers(_INIT_A, _MULT_A, 4 * (max(_POOL_SIZE, seed_words) + len(key)), _POOL_SIZE + 1)
    hashed = _hashmix(np.asarray(last, dtype=np.uint32)[:, None], chain)
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
    mixed ^= mixed >> 16
    state = _hashmix(np.concatenate((mixed, mixed), axis=1), _STATE_CHAIN)
    # numpy reads the uint32 words as little-endian pairs, whatever the host
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [DrawStream(np.random.PCG64(_PCG64Words(row))) for row in words]


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

    init, select = _generators(cfg.seed, (), np.arange(2))
    genes = np.random.Generator(init.bit_generator).integers(0, n_res, size=(cfg.population, evaluator.n_clusters))
    objs = evaluator.objectives(genes)
    keep, rank, crowd = _select_survivors(objs, cfg.population, refs, select)
    genes, objs = genes[keep], objs[keep]

    slots = np.arange((cfg.population + 1) // 2)
    for gen in range(cfg.generations):
        rngs = _generators(cfg.seed, (2, gen), slots)
        # the children live only in the pool, one gene matrix fewer at the memory peak
        genes = np.concatenate([genes, _offspring(genes, rank, crowd, rngs, cfg, n_res)])
        objs = np.concatenate([objs, evaluator.objectives(genes[len(objs) :])])
        (select,) = _generators(cfg.seed, (3,), np.array([gen]))
        keep, rank, crowd = _select_survivors(objs, cfg.population, refs, select)
        genes, objs = genes[keep], objs[keep]

    # rank 0 is the first front: the last selection kept pool level 0 whole or alone
    first: dict[tuple[int, ...], int] = {}
    for i in np.flatnonzero(rank == 0).tolist():
        first.setdefault(tuple(genes[i].tolist()), i)
    ordered = [i for _, i in sorted(first.items(), key=lambda item: (tuple(objs[item[1]]), item[0]))]
    return Front(genes[ordered], objs[ordered])
