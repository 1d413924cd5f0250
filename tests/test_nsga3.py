from __future__ import annotations

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fairsched.clustering import cluster_none, make_plan, order_interleave
from fairsched.evaluation import Evaluator
from fairsched.model import Edge, ResourceCatalog, Resource, Task, Workflow, WorkflowSet
from fairsched.nsga3 import (
    Front,
    OptimizerConfig,
    _normalize,
    _rng,
    _select_survivors,
    crossover,
    mutate,
    niche_preserve,
    nondominated_sort,
    reference_directions,
    run,
    run_with_evaluator,
)
from oracles import dominance_filter_naive, niche_preserve_lists


def naive_sort_levels(points):
    """Peeling by repeated scans, the slow way."""
    pts = [tuple(p) for p in np.asarray(points, dtype=float)]
    remaining = set(range(len(pts)))
    levels = []
    while remaining:
        level = set()
        for i in remaining:
            dominated = any(
                j != i
                and all(a <= b for a, b in zip(pts[j], pts[i]))
                and any(a < b for a, b in zip(pts[j], pts[i]))
                for j in remaining
            )
            if not dominated:
                level.add(i)
        levels.append(level)
        remaining -= level
    return levels


def test_reference_directions_shape_and_simplex():
    refs = reference_directions(12)
    assert refs.shape == (91, 3)
    assert np.allclose(refs.sum(axis=1), 1.0)
    assert (refs >= 0).all()
    assert len({tuple(r) for r in refs}) == 91
    assert reference_directions(1).shape == (3, 3)
    two = reference_directions(4, n_obj=2)
    assert sorted(two[:, 0]) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_nondominated_sort_hand_case():
    objs = np.array([[0.0, 0, 0], [1, 1, 1], [0.5, 0.5, 2], [2, 2, 2]])
    levels = nondominated_sort(objs)
    assert [set(map(int, lv)) for lv in levels] == [{0}, {1, 2}, {3}]


def test_nondominated_sort_matches_naive_peeling():
    rng = np.random.default_rng(17)
    for trial in range(15):
        pts = rng.integers(0, 5, size=(int(rng.integers(2, 25)), 3)).astype(float)
        got = [set(map(int, lv)) for lv in nondominated_sort(pts)]
        assert got == naive_sort_levels(pts)
    assert nondominated_sort(np.empty((0, 3))) == []


def test_first_level_agrees_with_dominance_filter():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 1, size=(40, 3))
    first = nondominated_sort(pts)[0]
    expected = {tuple(p) for p in dominance_filter_naive(pts)}
    assert {tuple(pts[i]) for i in first} == expected


def test_stopped_sort_returns_leading_levels():
    """With `stop`, the sort returns the leading levels of the full sort,
    and the fewest of them that cover at least `stop` rows."""
    rng = np.random.default_rng(31)
    for pool in _selection_pools(rng):
        full = nondominated_sort(pool)
        for stop in range(1, len(pool) + 1):
            got = nondominated_sort(pool, stop=stop)
            assert len(got) <= len(full)
            assert all(np.array_equal(a, b) for a, b in zip(got, full))
            sizes = [len(lv) for lv in got]
            assert sum(sizes) >= stop > sum(sizes[:-1])


def test_normalize_singular_plane_raises_no_warning():
    """A singular extreme-point plane falls back to the nadir without
    letting numpy's divide-by-zero warning escape."""
    pool = np.array([[1, 2, 0], [0, 2, 2], [0, 0, 2], [1, 1, 0], [2, 1, 2], [2, 2, 0]], dtype=float)
    refs = reference_directions(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(_normalize(pool)).all()
        for k in range(1, len(pool) + 1):
            keep, _, _ = _select_survivors(pool, k, refs, np.random.default_rng(k))
            assert len(keep) == k


class _ScriptedRng:
    """Stand-in generator yielding a fixed script of draws."""

    def __init__(self, randoms=(), ints=()):
        self._randoms = list(randoms)
        self._ints = list(ints)

    def random(self, *a, **k):
        return self._randoms.pop(0)

    def integers(self, *a, **k):
        return self._ints.pop(0)


def test_crossover_rate_zero_copies():
    rng = np.random.default_rng(1)
    a = np.array([0, 1, 2, 3])
    b = np.array([3, 2, 1, 0])
    ca, cb = crossover(a, b, rng, 0.0)
    assert (ca == a).all() and (cb == b).all()
    ca[0] = 9
    assert a[0] == 0  # children are copies, not views


def test_crossover_forced_cut():
    a = np.array([0, 0, 0, 0])
    b = np.array([1, 1, 1, 1])
    ca, cb = crossover(a, b, _ScriptedRng(randoms=[0.0], ints=[2]), 1.0)
    assert ca.tolist() == [0, 0, 1, 1]
    assert cb.tolist() == [1, 1, 0, 0]


def test_crossover_single_gene_is_copy():
    ca, cb = crossover(np.array([4]), np.array([7]), np.random.default_rng(0), 1.0)
    assert ca.tolist() == [4] and cb.tolist() == [7]


def test_mutate_rate_zero_and_single_resource():
    rng = np.random.default_rng(2)
    genes = np.array([0, 0, 0])
    assert (mutate(genes, rng, 0.0, 5) == genes).all()
    assert (mutate(genes, rng, 1.0, 1) == 0).all()
    out = mutate(genes, rng, 1.0, 5)
    assert genes.tolist() == [0, 0, 0]  # input untouched


def test_mutate_hit_rate_statistics():
    rng = np.random.default_rng(3)
    genes = np.zeros(4000, dtype=int)
    out = mutate(genes, rng, 0.5, 1000)
    # a resample leaves the gene unchanged 1/1000 of the time; ignore that
    changed = (out != genes).mean()
    assert 0.45 < changed < 0.55


# four mutually nondominated points; corner guard admits the per-objective
# minimizers in objective order, so small-k picks are fully determined
CORNERS = np.array(
    [
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.4, 0.4, 0.4],
    ]
)


def test_niche_preserve_corner_guard_order():
    levels = nondominated_sort(CORNERS)
    assert len(levels) == 1
    rng = np.random.default_rng(0)
    assert niche_preserve(CORNERS, levels, 1, reference_directions(4), rng) == [0]
    assert niche_preserve(CORNERS, levels, 2, reference_directions(4), rng) == [0, 1]
    assert niche_preserve(CORNERS, levels, 3, reference_directions(4), rng) == [0, 1, 2]
    assert niche_preserve(CORNERS, levels, 4, reference_directions(4), rng) == [0, 1, 2, 3]


def test_niche_preserve_whole_levels_pass_through():
    objs = np.array([[0.0, 0, 1], [0, 1, 0], [2, 2, 2]])
    levels = nondominated_sort(objs)
    assert [set(map(int, lv)) for lv in levels] == [{0, 1}, {2}]
    got = niche_preserve(objs, levels, 2, reference_directions(4), np.random.default_rng(0))
    assert got == [0, 1]
    assert niche_preserve(objs, levels, 3, reference_directions(4), np.random.default_rng(0)) == [0, 1, 2]


def test_niche_preserve_handles_identical_objectives():
    objs = np.ones((5, 3))
    levels = nondominated_sort(objs)
    got = niche_preserve(objs, levels, 3, reference_directions(4), np.random.default_rng(9))
    assert len(got) == 3 and len(set(got)) == 3
    assert all(0 <= i < 5 for i in got)


def test_niche_preserve_rejects_overdraw():
    levels = nondominated_sort(CORNERS)
    with pytest.raises(ValueError, match="pool"):
        niche_preserve(CORNERS, levels, 5, reference_directions(4), np.random.default_rng(0))


def _selection_pools(rng):
    """Pools with integer-grid ties, duplicated points, or continuous points."""
    for trial in range(90):
        n = int(rng.integers(1, 19))
        kind = trial % 3
        if kind == 0:
            yield rng.integers(0, int(rng.integers(2, 5)), size=(n, 3)).astype(float)
        elif kind == 1:
            pts = rng.uniform(0, 1, size=(n, 3))
            yield np.concatenate([pts, pts[rng.integers(0, n, size=int(rng.integers(1, 6)))]])
        else:
            yield rng.uniform(0, 10, size=(n, 3))


def _niching_cases(rng):
    """(pool, refs, k): every k on small pools, then pools of population
    plus children at divisions 12 (91 directions): 60 rows cut to 30, where
    most niches hold nothing, and 184 cut to 92. The last kind is a
    converged pool, one nondominated level, so niching picks all k."""
    for pool in _selection_pools(rng):
        refs = reference_directions(int(rng.integers(1, 7)))
        for k in range(1, len(pool) + 1):
            yield pool, refs, k
    refs = reference_directions(12)
    for n, k in ((60, 30), (184, 92)):
        for trial in range(8):
            if trial % 4 == 0:
                pool = rng.integers(0, 6, size=(n, 3)).astype(float)
            elif trial % 4 == 1:
                pts = rng.uniform(0, 1, size=(n // 2, 3))
                pool = np.concatenate([pts, pts[rng.integers(0, n // 2, size=n - n // 2)]])
            elif trial % 4 == 2:
                pool = rng.uniform(0, 1, size=(n, 3)) * [100.0, 10.0, 1.0]
            else:
                pool = rng.dirichlet(np.ones(3), size=n) * [100.0, 10.0, 1.0]
            yield pool, refs, k


def test_niche_preserve_matches_list_reference():
    """Same picks and the same draws as the list-based oracle."""
    rng = np.random.default_rng(2024)
    level_counts = set()
    for pool, refs, k in _niching_cases(rng):
        levels = nondominated_sort(pool)
        level_counts.add(len(levels))
        ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
        expected = niche_preserve_lists(pool, levels, k, refs, theirs)
        assert niche_preserve(pool, levels, k, refs, ours) == expected
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert {1, 2, 3, 4, 5} <= level_counts


def test_survivor_truncation_keeps_per_objective_best():
    refs = reference_directions(6)
    rng = np.random.default_rng(44)
    for trial in range(20):
        n = int(rng.integers(6, 30))
        objs = rng.uniform(0, 10, size=(n, 3))
        k = int(rng.integers(3, n + 1))
        keep, rank, crowd = _select_survivors(objs, k, refs, np.random.default_rng(trial))
        kept = objs[keep]
        assert kept.shape == (k, 3)
        assert np.allclose(kept.min(axis=0), objs.min(axis=0))
        levels = nondominated_sort(objs)
        assert all(int(keep[r]) in levels[rank[r]] for r in range(k))
        assert rank.shape == crowd.shape == (k,) and (crowd >= 1).all()


def _tiny_problem():
    w1 = Workflow(
        "w1",
        [Task("a", "w1", 4.0), Task("b", "w1", 2.0), Task("c", "w1", 6.0)],
        [Edge("a", "b", 12.0), Edge("a", "c", 3.0)],
    )
    w2 = Workflow("w2", [Task("x", "w2", 5.0), Task("y", "w2", 1.0)], [Edge("x", "y", 8.0)])
    ws = WorkflowSet([w1, w2])
    catalog = ResourceCatalog(
        (
            Resource("r0", 1.0, 10.0, 1.0, 1.0),
            Resource("r1", 3.0, 4.0, 4.0, 1.0),
        )
    )
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    return ws, catalog, plan, order


def test_run_single_assignment_space():
    w = Workflow("w", [Task("a", "w", 2.0)], [])
    ws = WorkflowSet([w])
    catalog = ResourceCatalog((Resource("r0", 1.0, 1.0, 1.0, 1.0),))
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    front = run(ws, catalog, plan, order, OptimizerConfig(population=4, generations=3, seed=7))
    assert len(front) == 1
    only = front.individuals[0]
    assert only.genes_tuple() == (0,)
    ev = Evaluator(ws, catalog, plan, order)
    assert tuple(only.objectives) == ev.objectives([0])


def test_run_front_is_subset_of_exhaustive_pareto():
    """Every front member must be Pareto-optimal against the full enumeration
    of the 2^5 assignments. Ties at float resolution count as equal: two
    assignments can agree on an objective mathematically yet differ in the
    last bit, so domination must exceed a tolerance to disqualify a point.
    The population must be able to hold the whole true front (19 points
    here), otherwise niching may evict a dominator while a point it covers
    survives; 24 is sized for that."""
    tol = 1e-9
    ws, catalog, plan, order = _tiny_problem()
    ev = Evaluator(ws, catalog, plan, order)
    all_objs = {
        combo: ev.objectives(list(combo))
        for combo in itertools.product(range(2), repeat=plan.n_clusters)
    }
    from oracles import dominance_filter_naive as _f

    assert len(_f(list(all_objs.values()))) == 19
    for seed in range(5):
        front = run(ws, catalog, plan, order, OptimizerConfig(population=24, generations=40, seed=seed))
        assert len(front) >= 1
        for ind in front:
            assert all_objs[ind.genes_tuple()] == tuple(ind.objectives)
            p = ind.objectives
            beaten = any(
                all(qv <= pv + tol for qv, pv in zip(q, p)) and any(qv < pv - tol for qv, pv in zip(q, p))
                for q in all_objs.values()
            )
            assert not beaten, (ind.genes_tuple(), tuple(p))


class _CountingEvaluator:
    def __init__(self, inner):
        self.inner = inner
        self.n_clusters = inner.n_clusters
        self.n_resources = inner.n_resources
        self.rows: list[int] = []

    def objectives(self, genes):
        self.rows.append(len(genes))
        return self.inner.objectives(genes)


def test_run_evaluates_population_once_per_generation():
    """An odd population evaluates exactly its own size of children per
    generation, all in one call: the child that truncation drops is never
    decoded."""
    counting = _CountingEvaluator(Evaluator(*_tiny_problem()))
    run_with_evaluator(counting, OptimizerConfig(population=7, generations=3, seed=5))
    assert counting.rows == [7] * 4
    assert sum(counting.rows) == 7 * 4


def test_run_front_internally_nondominated():
    ws, catalog, plan, order = _tiny_problem()
    front = run(ws, catalog, plan, order, OptimizerConfig(population=10, generations=10, seed=3))
    objs = front.objectives_array()
    levels = nondominated_sort(objs)
    assert len(levels) == 1
    # deterministic presentation order
    keys = [(tuple(ind.objectives), ind.genes_tuple()) for ind in front]
    assert keys == sorted(keys)


def test_run_is_bit_deterministic():
    ws, catalog, plan, order = _tiny_problem()
    cfg = OptimizerConfig(population=8, generations=12, seed=123)
    f1 = run(ws, catalog, plan, order, cfg)
    f2 = run(ws, catalog, plan, order, cfg)
    assert [ind.genes_tuple() for ind in f1] == [ind.genes_tuple() for ind in f2]
    assert np.array_equal(f1.objectives_array(), f2.objectives_array())


def test_run_improves_on_initial_population():
    """Elitism observed end to end: the final front's per-objective bests
    are never worse than the best of the (reproduced) initial population."""
    ws, catalog, plan, order = _tiny_problem()
    cfg = OptimizerConfig(population=6, generations=10, seed=99)
    ev = Evaluator(ws, catalog, plan, order)
    init = _rng(cfg.seed, 0).integers(0, 2, size=(cfg.population, plan.n_clusters))
    init_best = np.array([ev.objectives(init[i]) for i in range(cfg.population)]).min(axis=0)
    front = run(ws, catalog, plan, order, cfg)
    final_best = front.objectives_array().min(axis=0)
    assert (final_best <= init_best + 1e-12).all()


def test_default_config_matches_search_settings_and_runs():
    cfg = OptimizerConfig()
    cfg.validate()
    assert (cfg.population, cfg.generations) == (50, 200)
    assert (cfg.crossover_rate, cfg.mutation_rate) == (0.8, 0.01)
    assert cfg.divisions == 12
    assert len(reference_directions(cfg.divisions)) >= cfg.population
    ws, catalog, plan, order = _tiny_problem()
    front = run(ws, catalog, plan, order, replace(cfg, generations=5))
    assert len(front) >= 1


def test_config_validation_rejects_bad_values():
    for bad in (
        OptimizerConfig(population=1),
        OptimizerConfig(generations=-1),
        OptimizerConfig(crossover_rate=1.5),
        OptimizerConfig(mutation_rate=-0.1),
        OptimizerConfig(divisions=0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_front_csv_round_trip(tmp_path):
    ws, catalog, plan, order = _tiny_problem()
    front = run(ws, catalog, plan, order, OptimizerConfig(population=8, generations=5, seed=1))
    path = tmp_path / "front.csv"
    front.to_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["makespan", "total_cost", "unfairness"]
    assert header[3:] == [f"gene_{i}" for i in range(plan.n_clusters)]
    assert len(lines) == len(front) + 1
    for line, ind in zip(lines[1:], front):
        cells = line.split(",")
        assert [float(c) for c in cells[:3]] == list(ind.objectives)
        assert [int(c) for c in cells[3:]] == list(ind.genes_tuple())


def test_empty_front_objectives_array():
    assert Front().objectives_array().shape == (0, 3)
