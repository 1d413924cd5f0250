from __future__ import annotations

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairsched.clustering import cluster_none, make_plan, order_interleave
from fairsched.draws import DrawStream
from fairsched.evaluation import Evaluator
from fairsched.model import Edge, ResourceCatalog, Resource, Task, Workflow, WorkflowSet
from fairsched.nsga3 import (
    Front,
    OptimizerConfig,
    _associate,
    _generators,
    _normalize,
    _offspring,
    _PCG64Words,
    _select_survivors,
    niche_preserve,
    nondominated_sort,
    reference_directions,
    run,
    run_with_evaluator,
)
from oracles import (
    _rng,
    assert_same_position,
    associate_per_call,
    dominance_filter_naive,
    niche_preserve_lists,
    normalize_per_objective,
    offspring_slots,
    select_survivors_lists,
)


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


# a pool whose extreme points span a plane parallel to one axis: its solved
# coefficients hold a zero, an infinite intercept that normalization refuses
PARALLEL_PLANE_POOL = np.array([[1, 2, 0], [0, 2, 2], [0, 0, 2], [1, 1, 0], [2, 1, 2], [2, 2, 0]], dtype=float)


def test_normalize_singular_plane_raises_no_warning():
    """A singular extreme-point plane falls back to the nadir without
    letting numpy's divide-by-zero warning escape."""
    pool = PARALLEL_PLANE_POOL
    refs = reference_directions(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(_normalize(pool)).all()
        for k in range(1, len(pool) + 1):
            keep, _, _ = _select_survivors(pool, k, refs, np.random.default_rng(k))
            assert len(keep) == k


class _ScriptedRng:
    """Stand-in draw stream yielding a fixed script of draws. `coins` takes
    one random value off the script per coin; popping past the end of a
    script means a draw the caller did not expect."""

    def __init__(self, randoms=(), ints=()):
        self._randoms = list(randoms)
        self._ints = list(ints)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, low, high):
        return self._ints.pop(0)

    def coins(self, rate, out):
        if len(out) > len(self._randoms):
            raise IndexError(f"{len(out)} coins from a script of {len(self._randoms)}")
        values, self._randoms[: len(out)] = self._randoms[: len(out)], []
        return np.less(values, rate, out=out)

    def exhausted(self) -> bool:
        return not self._randoms and not self._ints


def _stream(seed: int, *key: int) -> DrawStream:
    """A draw stream over the generator words of `_rng(seed, *key)`."""
    return DrawStream(_rng(seed, *key).bit_generator)


def _children(genes, rngs, crossover_rate=0.0, mutation_rate=0.0, n_resources=5):
    """Offspring of equally ranked, equally crowded parent rows."""
    genes = np.asarray(genes)
    flat = np.zeros(len(genes), dtype=int)
    cfg = OptimizerConfig(crossover_rate=crossover_rate, mutation_rate=mutation_rate)
    return _offspring(genes, flat, flat, rngs, cfg, n_resources)


def _pick(a, b):
    """Script of one slot's tournaments: parent a, then parent b, each
    drawn twice (a tie) and kept by a coin of 0.0."""
    return dict(randoms=[0.0, 0.0], ints=[a, a, b, b])


def _script(slot, randoms=(), ints=()):
    return _ScriptedRng(randoms=slot["randoms"] + list(randoms), ints=slot["ints"] + list(ints))


def test_crossover_rate_zero_copies():
    genes = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
    rng = _script(_pick(0, 1), randoms=[0.5])  # the crossover coin misses
    children = _children(genes, [rng], crossover_rate=0.0)
    assert rng.exhausted()
    assert children.tolist() == genes.tolist()
    children[0, 0] = 9
    assert genes[0, 0] == 0  # children are copies, not views


def test_crossover_forced_cut():
    genes = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
    rng = _script(_pick(0, 1), randoms=[0.0], ints=[2])
    children = _children(genes, [rng], crossover_rate=1.0)
    assert rng.exhausted()
    assert children.tolist() == [[0, 0, 1, 1], [1, 1, 0, 0]]


def test_crossover_single_gene_is_copy():
    rng = _script(_pick(1, 0))  # one gene: no crossover coin is drawn
    children = _children(np.array([[4], [7]]), [rng], crossover_rate=1.0)
    assert rng.exhausted()
    assert children.tolist() == [[7], [4]]


def test_mutate_rate_zero_and_single_resource():
    genes = np.array([[0, 0, 0], [0, 0, 0]])
    rng = _script(_pick(0, 1), randoms=[0.5])  # rate 0 draws no mutation coins
    assert (_children(genes, [rng]) == genes).all()
    assert rng.exhausted()
    assert (_children(genes, [_stream(2, 0)], mutation_rate=1.0, n_resources=1) == 0).all()
    out = _children(genes, [_stream(2, 1)], mutation_rate=1.0, n_resources=5)
    assert genes.tolist() == [[0, 0, 0], [0, 0, 0]]  # input untouched
    assert out.shape == genes.shape


def test_mutate_hit_rate_statistics():
    genes = np.zeros((2, 4000), dtype=int)
    out = _children(genes, [_stream(3, 0)], mutation_rate=0.5, n_resources=1000)
    # a resample leaves the gene unchanged 1/1000 of the time; ignore that
    changed = (out != genes).mean()
    assert 0.45 < changed < 0.55


def test_mutate_fills_hits_in_child_order():
    """Resampled values land on each child's hit genes in draw order: the
    first child's hits, then the second's, for a few hits and for many."""
    genes = np.zeros((2, 3), dtype=int)
    rng = _script(
        _pick(0, 1),
        randoms=[0.9, 0.0, 0.9, 0.0, 0.9, 0.0, 0.9],
        ints=[1, 2, 3],
    )
    children = _children(genes, [rng], crossover_rate=0.5, mutation_rate=0.5)
    assert rng.exhausted()
    assert children.tolist() == [[1, 0, 2], [0, 3, 0]]
    genes = np.zeros((2, 5), dtype=int)
    rng = _script(
        _pick(0, 1),
        randoms=[0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 0.9, 0.9, 0.9],
        ints=[1, 2, 3, 4, 1, 4],
    )
    children = _children(genes, [rng], crossover_rate=0.5, mutation_rate=0.5)
    assert rng.exhausted()
    assert children.tolist() == [[1, 2, 3, 4, 1], [0, 4, 0, 0, 0]]


def test_offspring_matches_slot_loop():
    """The batched offspring step, on slot draw streams, builds the
    per-slot loop's children byte for byte, and each stream uses the words
    that the loop's numpy calls use on a generator with the same seed words
    (the loop also draws for an odd population's dropped last child). At
    width 60 and rate 0.01 a child has a few hits; at width 1500 it has
    about 15, the loop's sized draws."""
    rng = np.random.default_rng(7)
    seed = 2**40 + 3
    cases = itertools.chain(
        itertools.product((2, 3, 7, 92), (1, 2, 60), (0.0, 0.01, 1.0), (0.0, 0.8, 1.0)),
        itertools.product((2, 3, 7, 92), (1500,), (0.01,), (0.0, 0.8, 1.0)),
    )
    for case, (size, width, mutation_rate, crossover_rate) in enumerate(cases):
        n_res = int(rng.integers(1, 6))
        genes = rng.integers(0, n_res, size=(size, width))
        rank = rng.integers(0, 3, size=size)
        crowd = rng.integers(1, 4, size=size)
        ours = _generators(seed, (2, case), np.arange((size + 1) // 2))
        theirs = [_rng(seed, 2, case, slot) for slot in range((size + 1) // 2)]
        cfg = OptimizerConfig(crossover_rate=crossover_rate, mutation_rate=mutation_rate)
        got = _offspring(genes, rank, crowd, ours, cfg, n_res)
        expected = offspring_slots(genes, rank, crowd, theirs, crossover_rate, mutation_rate, n_res)
        assert got.dtype == expected.dtype and got.shape == expected.shape == (size, width)
        assert got.tobytes() == expected.tobytes(), (size, width, mutation_rate, crossover_rate)
        for stream, rng in zip(ours[:-1] if size % 2 else ours, theirs):
            assert_same_position(stream, rng)


def _assert_spawned(got: DrawStream, seed: int, key: tuple[int, ...]) -> None:
    """`got` is a fresh stream over the state of `SeedSequence(seed,
    spawn_key=key)`'s generator and draws what it draws."""
    expected = _rng(seed, *key)
    assert got.bit_generator.state == expected.bit_generator.state, (seed, key)
    assert [got.integers(0, 2**40) for _ in range(3)] == expected.integers(0, 2**40, size=3).tolist(), (seed, key)
    assert got.random() == expected.random(), (seed, key)


SPAWN_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**96 + 5, 2**128 + 2**64 + 1, 2**160 - 1, 2**160, 2**200 + 7]


def test_rng_matches_spawned_seed_sequence():
    """Every batched stream's generator has the state of numpy's own
    `SeedSequence(seed, spawn_key=key)`, and draws what it draws: seeds of
    one to seven words, generations up to 2**32 - 1, every slot of 1, 2, 15,
    46 and 51 slots, and the keys 0, 1 and (3, gen). A numpy release that
    changes `SeedSequence` arithmetic fails here."""
    gens = [0, 1, 2, 59, 199, 2**16 + 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]
    checked = 0
    for seed in SPAWN_SEEDS:
        for word, got in enumerate(_generators(seed, (), np.arange(2))):
            _assert_spawned(got, seed, (word,))
        for gen, got in zip(gens, _generators(seed, (3,), np.array(gens))):
            _assert_spawned(got, seed, (3, gen))
        for gen, slots in itertools.product(gens, (1, 2, 15, 46, 51)):
            for slot, got in enumerate(_generators(seed, (2, gen), np.arange(slots))):
                _assert_spawned(got, seed, (2, gen, slot))
                checked += 1
    assert checked == len(SPAWN_SEEDS) * len(gens) * (1 + 2 + 15 + 46 + 51)


def test_pcg64_words_serve_only_pcg64_seeding():
    words = np.arange(4, dtype=np.uint64)
    assert _PCG64Words(words).generate_state(4, np.uint64) is words
    for request in ((4,), (8, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="generate_state"):
            _PCG64Words(words).generate_state(*request)


def test_scalar_pair_draws_match_size_two_draw():
    """Two scalar `integers(0, n)` draws give the values and the final
    generator state of one `integers(0, n, size=2)` call: the oracle's
    `_tournament` makes the sized call where the package's tournament
    makes two scalar draws. `random()` draws before and after, and an optional
    bounded draw ahead, put PCG64's buffered 32-bit half in both states."""
    bounds = np.random.default_rng(2024)
    for seed in range(300):
        for n in (1, 2, 3, 92, 2**31 - 1, 2**31 + 5, int(bounds.integers(1, 2**31 + 6))):
            for lead in (0, 1):
                pair, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                for rng in (pair, scalar):
                    rng.random()
                    if lead:
                        rng.integers(0, 7)
                got = [scalar.integers(0, n), scalar.integers(0, n)]
                assert got == pair.integers(0, n, size=2).tolist(), (seed, n, lead)
                assert scalar.random() == pair.random()
                assert scalar.bit_generator.state == pair.bit_generator.state, (seed, n, lead)


def test_scalar_draws_match_sized_mutation_draw():
    """k scalar `integers(0, n)` draws give the values and the final
    generator state of one `integers(0, n, size=k)` call, as mutation's
    per-child draw makes it for k hits: the oracle's `mutate` makes the
    sized call where the package makes one scalar draw per hit. Bound 1
    draws nothing either way; `random()` draws and an optional bounded draw
    ahead, as in the pair test above, put PCG64's buffered 32-bit half in
    both states."""
    for seed in range(300):
        for n in (1, 2, 6, 2**31 + 5):
            for k in range(1, 6):
                for lead in (0, 1):
                    sized, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                    for rng in (sized, scalar):
                        rng.random()
                        if lead:
                            rng.integers(0, 7)
                    got = [scalar.integers(0, n) for _ in range(k)]
                    assert got == sized.integers(0, n, size=k).tolist(), (seed, n, k, lead)
                    assert scalar.random() == sized.random()
                    assert scalar.bit_generator.state == sized.bit_generator.state, (seed, n, k, lead)


def test_falling_bound_draw_matches_scalar_draws():
    """One `integers(0, bounds)` call gives the values and final generator
    state of a scalar draw per bound, in order, so a bounded draw's words
    do not depend on the call form: bounds falling by one from 2-200, as a
    run of niche picks at count 0 draws them, and random bounds from 1 to
    beyond 2**31, after an optional lead draw."""
    sizes = np.random.default_rng(99)
    for seed in range(300):
        top = int(sizes.integers(2, 201))
        for bounds in (np.arange(top, 1, -1), sizes.integers(1, 2**31 + 6, size=int(sizes.integers(1, 12)))):
            for lead in (0, 1):
                ahead, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                for rng in (ahead, scalar):
                    rng.random()
                    if lead:
                        rng.integers(0, 7)
                got = [scalar.integers(0, bound) for bound in bounds.tolist()]
                assert got == ahead.integers(0, bounds).tolist(), (seed, lead)
                assert scalar.random() == ahead.random()
                assert scalar.bit_generator.state == ahead.bit_generator.state, (seed, lead)


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
    """Same picks, and on a draw stream the words of the list-based
    oracle's numpy draws on a generator with the same seed."""
    rng = np.random.default_rng(2024)
    level_counts = set()
    for pool, refs, k in _niching_cases(rng):
        levels = nondominated_sort(pool)
        level_counts.add(len(levels))
        ours, theirs = DrawStream(np.random.PCG64(k)), np.random.default_rng(k)
        expected = niche_preserve_lists(pool, levels, k, refs, theirs)
        assert niche_preserve(pool, levels, k, refs, ours) == expected
        assert_same_position(ours, theirs)
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


def test_crowd_counts_niches_under_kept_rows_normalization():
    """`crowd` counts kept rows per niche with the kept rows normalized on
    their own, not under the normalization niching used for the considered
    rows; the two differ on some pools, and tournaments read `crowd`."""
    rng = np.random.default_rng(12)
    refs = reference_directions(4)
    differs = 0
    for pool in _selection_pools(rng):
        for k in range(1, len(pool)):
            keep, _, crowd = _select_survivors(pool, k, refs, np.random.default_rng(k))
            own, _ = _associate(_normalize(pool[keep]), refs)
            assert crowd.tolist() == np.bincount(own, minlength=len(refs))[own].tolist()
            considered = np.concatenate(nondominated_sort(pool, stop=k))  # the rows niching normalized
            niche_of, _ = _associate(_normalize(pool[considered]), refs)
            at = {int(row): int(niche) for row, niche in zip(considered, niche_of)}
            theirs = [at[int(row)] for row in keep]
            differs += crowd.tolist() != np.bincount(theirs, minlength=len(refs))[theirs].tolist()
    assert differs


@st.composite
def generation_pools(draw):
    """(pool, k, refs): pools of population plus children at divisions 12,
    60 rows cut to 30 and 184 cut to 92, and small pools cut to any k at
    divisions 1-6. Rows are points of unequal scales on a simplex or in a
    box, integer-grid ties, duplicates of a few points, rows of
    `PARALLEL_PLANE_POOL`, points on one line (a singular plane), or points
    with one constant objective (a zero nadir span)."""
    n, k, divisions = draw(st.sampled_from([(60, 30, 12), (184, 92, 12), None]), label="n, k, divisions") or (0, 0, 0)
    if not n:
        n = draw(st.integers(1, 20), label="n")
        k, divisions = draw(st.integers(1, n), label="k"), draw(st.integers(1, 6), label="divisions")
    kinds = ["simplex", "cube", "grid", "duplicates", "simplex", "cube", "parallel", "line", "flat"]
    kind = draw(st.sampled_from(kinds), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "grid":
        pool = rng.integers(0, int(rng.integers(2, 5)), size=(n, 3)).astype(float)
    elif kind == "duplicates":
        pts = rng.uniform(0, 1, size=(int(rng.integers(1, 4)), 3))
        pool = pts[rng.integers(0, len(pts), size=n)]
    elif kind == "simplex":
        pool = rng.dirichlet(np.ones(3), size=n) * [100.0, 10.0, 1.0]
    elif kind == "cube":
        pool = rng.uniform(0, 1, size=(n, 3)) * [100.0, 10.0, 1.0]
    elif kind == "parallel":
        pool = PARALLEL_PLANE_POOL[rng.integers(0, len(PARALLEL_PLANE_POOL), size=n)]
    elif kind == "line":
        pool = rng.uniform(0, 1, size=(n, 1)) * rng.uniform(0.5, 2.0, size=3)
    else:
        pool = rng.uniform(0, 1, size=(n, 3))
        pool[:, int(rng.integers(0, 3))] = 0.5
    return pool, k, reference_directions(divisions)


# objective 0's extreme point turns on the 1e-6 off-axis ASF weight: row 0
# scores 1.0 under it, row 1 scores 0.8; a weight of 1e-5 would pick row 0
ASF_WEIGHT_POOL = np.array([[0.5, 1e-6, 0.0], [0.8, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=generation_pools())
@example(case=(PARALLEL_PLANE_POOL, 3, reference_directions(4)))
@example(case=(ASF_WEIGHT_POOL, 2, reference_directions(4)))
def test_stacked_normalize_and_associate_match_per_call_forms(case):
    """The stacked ASF normalization and the association against cached unit
    directions give the per-objective loop's and the per-call form's bytes."""
    pool, _, refs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = _normalize(pool)
    expected = normalize_per_objective(pool)
    assert norm.dtype == expected.dtype and norm.tobytes() == expected.tobytes()
    for got, theirs in zip(_associate(norm, refs), associate_per_call(norm, refs)):
        assert got.dtype == theirs.dtype and got.tobytes() == theirs.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=generation_pools(), seed=st.integers(0, 2**64 - 1))
@example(case=(PARALLEL_PLANE_POOL, 3, reference_directions(4)), seed=0)
def test_select_survivors_matches_list_truncation(case, seed):
    """Survivor selection keeps the rows, ranks and crowding of the frozen
    list-based truncation, and its draw stream uses the words that the
    truncation's numpy draws use on a generator with the same seed."""
    pool, k, refs = case
    ours, theirs = DrawStream(np.random.PCG64(seed)), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _select_survivors(pool, k, refs, ours)
    expected = select_survivors_lists(pool, k, refs, theirs)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert_same_position(ours, theirs)


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
    only = next(iter(front))
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
    objs = front.objectives
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
    assert np.array_equal(f1.objectives, f2.objectives)


def test_run_improves_on_initial_population():
    """Elitism observed end to end: the final front's per-objective bests
    are never worse than the best of the (reproduced) initial population."""
    ws, catalog, plan, order = _tiny_problem()
    cfg = OptimizerConfig(population=6, generations=10, seed=99)
    ev = Evaluator(ws, catalog, plan, order)
    init = _rng(cfg.seed, 0).integers(0, 2, size=(cfg.population, plan.n_clusters))
    init_best = np.array([ev.objectives(init[i]) for i in range(cfg.population)]).min(axis=0)
    front = run(ws, catalog, plan, order, cfg)
    final_best = front.objectives.min(axis=0)
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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        OptimizerConfig(seed=-3).validate()
    OptimizerConfig(generations=2**32).validate()  # generation words 0 .. 2**32 - 1
    with pytest.raises(ValueError, match="one 32-bit key word each"):
        OptimizerConfig(generations=2**32 + 1).validate()


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
    assert Front().objectives.shape == (0, 3)
    assert len(Front()) == 0 and list(Front()) == []
