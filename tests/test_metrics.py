from __future__ import annotations

import logging
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairsched.metrics import (
    HV_REFERENCE,
    AggregateScore,
    RunScore,
    aggregate_scores,
    hv,
    igd,
    norm_bounds,
    normalize,
    pareto_filter,
    rdi,
    score_fronts,
    union_reference,
    write_aggregate_csv,
    write_rdi_csv,
    write_run_scores_csv,
)
from oracles import (
    dominance_filter_naive,
    hv_slab_loop,
    igd_naive,
    mc_hypervolume,
    pareto_filter_unique,
    read_run_scores_csv,
)


def test_pareto_filter_hand_case():
    pts = np.array([[1.0, 1, 1], [0, 2, 2], [1, 1, 1], [2, 2, 2], [0.5, 3, 0.5]])
    kept = pareto_filter(pts)
    assert {tuple(p) for p in kept} == {(1, 1, 1), (0, 2, 2), (0.5, 3, 0.5)}
    # unique: the duplicate (1,1,1) appears once
    assert len(kept) == 3


def test_pareto_filter_matches_naive():
    rng = np.random.default_rng(5)
    for trial in range(20):
        pts = rng.integers(0, 4, size=(int(rng.integers(1, 30)), 3)).astype(float)
        got = {tuple(p) for p in pareto_filter(pts)}
        assert got == {tuple(p) for p in dominance_filter_naive(pts)}


def test_union_reference_pools_all_fronts():
    f1 = np.array([[1.0, 0, 0], [0, 1, 0]])
    f2 = np.array([[0.0, 0, 1], [2, 2, 2]])
    ref = union_reference([f1, f2])
    assert {tuple(p) for p in ref} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    with pytest.raises(ValueError):
        union_reference([])


def test_normalize_bounds_and_degenerate_axis():
    pts = np.array([[0.0, 10, 7], [4, 30, 7], [2, 20, 7]])
    bounds = norm_bounds(pts)
    assert bounds[0].tolist() == [0, 10, 7]
    assert bounds[1].tolist() == [4, 30, 7]
    normed = normalize(pts, bounds)
    assert normed[0].tolist() == [0, 0, 0]
    assert normed[1].tolist() == [1, 1, 0]  # flat third axis maps to 0
    assert normed[2].tolist() == [0.5, 0.5, 0]


def test_igd_zero_for_identical_front():
    f = np.array([[0.1, 0.2, 0.3], [0.5, 0.1, 0.2]])
    assert igd(f, f) == 0.0


def test_igd_hand_cases():
    assert igd(np.array([[3.0, 4, 0]]), np.array([[0.0, 0, 0]])) == 5.0
    two_refs = np.array([[0.0, 0, 0], [3.0, 4, 0]])
    assert igd(np.array([[3.0, 4, 0]]), two_refs) == 2.5


def test_igd_matches_naive():
    rng = np.random.default_rng(11)
    for trial in range(20):
        front = rng.uniform(0, 1, size=(int(rng.integers(1, 15)), 3))
        ref = rng.uniform(0, 1, size=(int(rng.integers(1, 15)), 3))
        assert igd(front, ref) == pytest.approx(igd_naive(front, ref), rel=1e-12)


def test_igd_rejects_empty():
    f = np.array([[0.0, 0, 0]])
    with pytest.raises(ValueError):
        igd(np.empty((0, 3)), f)
    with pytest.raises(ValueError):
        igd(f, np.empty((0, 3)))


def test_hv_single_point_box():
    assert hv(np.array([[0.0, 0, 0]])) == pytest.approx(1.1**3, abs=1e-12)
    assert hv(np.array([[0.0, 0, 0]]), ref=(1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert hv(np.empty((0, 3))) == 0.0


def test_hv_two_boxes_inclusion_exclusion():
    a = (0.0, 0.5, 0.5)
    b = (0.5, 0.0, 0.5)
    vol = lambda p: math.prod(r - c for r, c in zip(HV_REFERENCE, p))
    joint = tuple(max(x, y) for x, y in zip(a, b))
    expected = vol(a) + vol(b) - vol(joint)
    assert hv(np.array([a, b])) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.576, abs=1e-12)


def test_hv_ignores_dominated_and_duplicate_points():
    base = np.array([[0.2, 0.3, 0.1], [0.6, 0.1, 0.4]])
    v = hv(base)
    v_extra = hv(np.vstack([base, [[0.7, 0.5, 0.9]], base[:1]]))
    assert v_extra == pytest.approx(v, abs=1e-15)


def test_hv_clips_points_beyond_reference(caplog):
    """A clipped point is logged per front at DEBUG level only; the warning
    comes from `score_fronts`, once per dataset."""
    inside = np.array([[0.5, 0.5, 0.5]])
    outside = np.array([[1.2, 0.0, 0.0]])
    with caplog.at_level(logging.DEBUG, logger="fairsched.metrics"):
        v = hv(np.vstack([inside, outside]))
    assert [r.levelname for r in caplog.records if "clipped" in r.message] == ["DEBUG"]
    assert v == pytest.approx(hv(inside), abs=1e-15)
    assert hv(outside) == 0.0


def test_score_fronts_warns_once_naming_clipped_and_zero_runs(caplog):
    """Points dominated in the union and far beyond it normalize past the
    reference point: one warning names each run with clipped points (and
    how many), and each run whose hypervolume is 0."""
    corners = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    fronts = {
        "a": [np.vstack([corners, [[2.0, 2.0, 2.0]]]), corners],
        "b": [np.array([[5.0, 5.0, 5.0], [6.0, 5.0, 5.0]])],
    }
    with caplog.at_level(logging.DEBUG, logger="fairsched.metrics"):
        scores = score_fronts("d", fronts)
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "hv on d:" in message
    assert "2 run(s) have points beyond the reference [1.1, 1.1, 1.1], clipped: a rep 0 (1), b rep 0 (2)" in message
    assert "1 run(s) score hv = 0: b rep 0" in message
    assert [s.hv == 0.0 for s in scores] == [False, False, True]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fairsched.metrics"):
        score_fronts("d", {"a": [np.vstack([corners, [[2.0, 2.0, 2.0]]])]})
        score_fronts("d", {"a": [corners]})
    assert [r.getMessage() for r in caplog.records] == [
        "hv on d: 1 run(s) have points beyond the reference [1.1, 1.1, 1.1], clipped: a rep 0 (1)"
    ]


def test_hv_matches_monte_carlo():
    rng = np.random.default_rng(77)
    for trial in range(6):
        front = rng.uniform(0, 1, size=(int(rng.integers(1, 12)), 3))
        exact = hv(front)
        est, sigma = mc_hypervolume(front, HV_REFERENCE, n_samples=200_000, seed=trial)
        assert abs(exact - est) <= 5 * sigma + 1e-9


# Coordinates drawn from a small pool tie often; 1.1 lies on the reference
# boundary and 1.5 beyond it, and -0.0 ties with 0.0.
COORD = st.sampled_from([-0.0, 0.0, 0.2, 0.5, 0.7, 1.1, 1.5]) | st.floats(-0.5, 1.6)


@st.composite
def point_sets(draw, max_rows=40):
    """Up to max_rows points, plus copies of up to five of them. Half the
    sets are drawn by numpy: mostly nondominated points with full 53-bit
    mantissas, whose many stairs and slabs round differently when summed
    in another order."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pts = rng.dirichlet(np.ones(3), size=draw(st.integers(1, max_rows))) * rng.uniform(0.5, 1.2)
    else:
        pts = np.array(draw(st.lists(st.tuples(COORD, COORD, COORD), max_size=max_rows)), dtype=float).reshape(-1, 3)
    if len(pts):
        pts = np.vstack([pts, pts[draw(st.lists(st.integers(0, len(pts) - 1), max_size=5))]])
    return pts


EDGE_SETS = [
    np.empty((0, 3)),
    np.array([[0.3, 0.6, 0.9]]),  # one point
    np.array([[1.2, 0.0, 0.0], [0.0, 1.1, 0.0], [1.1, 1.1, 1.1]]),  # all clipped
    np.array([[0.0, 0.5, 1.1], [0.5, 0.0, 0.5], [1.0999999999999999, 0.2, 0.2]]),  # on and just inside the boundary
    np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.2], [0.5, 0.2, 0.5], [0.2, 0.5, 0.5], [0.5, 0.5, 0.5]]),  # ties
    np.array([[0.0, 0.5, 0.5], [-0.0, 0.5, 0.5], [0.5, -0.0, 0.0], [0.5, 0.0, -0.0]]),  # signed zeros
]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(front=point_sets(), ref=st.sampled_from([HV_REFERENCE, (1.0, 1.0, 1.0), (0.6, 1.2, 0.8)]))
@example(front=EDGE_SETS[0], ref=HV_REFERENCE)
@example(front=EDGE_SETS[1], ref=HV_REFERENCE)
@example(front=EDGE_SETS[2], ref=HV_REFERENCE)
@example(front=EDGE_SETS[3], ref=HV_REFERENCE)
@example(front=EDGE_SETS[4], ref=HV_REFERENCE)
@example(front=EDGE_SETS[5], ref=HV_REFERENCE)
def test_hv_matches_slab_loop_bit_for_bit(front, ref):
    assert hv(front, ref).hex() == hv_slab_loop(front, ref).hex()


@settings(max_examples=500, derandomize=True, deadline=None)
@given(points=point_sets())
@example(points=EDGE_SETS[0])
@example(points=EDGE_SETS[1])
@example(points=EDGE_SETS[4])
@example(points=EDGE_SETS[5])
@example(points=np.vstack([EDGE_SETS[5]] * 6))  # more rows than np.unique sorts stably
def test_pareto_filter_matches_unique_filter_bit_for_bit(points):
    """np.unique keeps one of two rows that differ only in the sign of a
    zero, which one depending on its unstable sort; pareto_filter writes
    every zero as +0.0, so the oracle's rows are compared the same way.
    Adding +0.0 changes no other value."""
    got = pareto_filter(points)
    want = pareto_filter_unique(points) + 0.0
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()



def test_rdi_cases():
    assert rdi([2.0, 3.0], better="smaller") == [0.0, 0.5]
    assert rdi([0.5, 0.4], better="larger") == pytest.approx([0.0, -0.2])
    assert rdi([4.0], better="smaller") == [0.0]
    assert rdi([0.0, 0.0, 1.0], "smaller") == [0.0, 0.0, math.inf]
    with pytest.raises(ValueError, match="better"):
        rdi([1.0], better="bigger")
    with pytest.raises(ValueError):
        rdi([], better="smaller")


def test_score_fronts_reference_holder_gets_zero_igd():
    full = np.array([[0.0, 1, 1], [1.0, 0, 1], [1.0, 1, 0]])
    weak = np.array([[2.0, 2, 2]])
    scores = score_fronts("d", {"good": [full], "bad": [weak]})
    assert {(s.dataset, s.algorithm, s.repetition) for s in scores} == {("d", "good", 0), ("d", "bad", 0)}
    by_alg = {s.algorithm: s for s in scores}
    assert by_alg["good"].igd == 0.0
    assert by_alg["bad"].igd > 0.0
    assert by_alg["good"].hv > by_alg["bad"].hv
    # the dominated front normalizes beyond the unit cube and is clipped
    assert by_alg["bad"].hv == 0.0


def test_score_fronts_raw_igd_option():
    f1 = np.array([[0.0, 0, 0]])
    f2 = np.array([[3.0, 4, 0]])
    scores = score_fronts("d", {"a": [f1], "b": [f2]}, normalize_igd=False)
    by_alg = {s.algorithm: s for s in scores}
    # reference is just (0,0,0); the weak front sits at distance 5 raw
    assert by_alg["b"].igd == 5.0
    assert by_alg["a"].igd == 0.0


@pytest.mark.parametrize("normalize_igd", [True, False])
@pytest.mark.parametrize(
    "far",
    [
        [1e200, 1e200, 1e200],  # its squared distance to the reference overflows
        [1e10, 2.0, 2.0],  # normalizing 1e10 by the reference's 1e-300 range overflows
    ],
)
def test_score_fronts_names_the_run_whose_metric_overflows(far, normalize_igd):
    reference = np.array([[0.0, 1.0, 1.0], [1e-300, 0.0, 0.0]])
    fronts = {"a": [reference], "b": [reference, np.vstack([reference, [far]])]}
    with pytest.raises(ValueError, match="^dataset d, clusterer b, repetition 1: .*overflows float"):
        score_fronts("d", fronts, normalize_igd=normalize_igd)


def test_score_fronts_names_the_dataset_whose_reference_range_overflows():
    reference = np.array([[-1e308, 1.0, 1.0], [1e308, 0.0, 0.0]])
    with pytest.raises(ValueError, match="^dataset d: the union reference's range overflows float"):
        score_fronts("d", {"a": [reference]})


def test_aggregate_scores_means_stds_and_rdi():
    scores = [
        RunScore("d", "A", 0, 1.0, 2.0),
        RunScore("d", "A", 1, 3.0, 4.0),
        RunScore("d", "B", 0, 2.0, 1.0),
        RunScore("d", "B", 1, 2.0, 1.0),
    ]
    aggs = {a.algorithm: a for a in aggregate_scores(scores)}
    assert aggs["A"].igd_mean == 2.0 and aggs["B"].igd_mean == 2.0
    assert aggs["A"].igd_std == statistics.pstdev([1.0, 3.0]) == 1.0
    assert aggs["B"].igd_std == 0.0
    assert aggs["A"].hv_mean == 3.0 and aggs["B"].hv_mean == 1.0
    assert aggs["A"].rdi_igd == 0.0 and aggs["B"].rdi_igd == 0.0  # tied on IGD
    assert aggs["A"].rdi_hv == 0.0
    assert aggs["B"].rdi_hv == pytest.approx((1.0 - 3.0) / 3.0)


def test_aggregate_scores_tolerates_perfect_igd():
    """A single-algorithm dataset (or one whose fronts carry the entire
    union reference) has best mean IGD exactly 0; the aggregate maps the
    best to deviation 0 and anything worse to infinity instead of failing."""
    solo = aggregate_scores([RunScore("d", "only", 0, 0.0, 1.0)])
    assert solo[0].rdi_igd == 0.0 and solo[0].rdi_hv == 0.0
    mixed = {
        a.algorithm: a
        for a in aggregate_scores(
            [RunScore("d", "perfect", 0, 0.0, 1.0), RunScore("d", "worse", 0, 0.3, 0.5)]
        )
    }
    assert mixed["perfect"].rdi_igd == 0.0
    assert mixed["worse"].rdi_igd == math.inf
    assert mixed["worse"].rdi_hv == pytest.approx(-0.5)


def test_run_scores_csv_round_trip(tmp_path):
    scores = [
        RunScore("d1", "alg", 0, 0.12345678901234567, 1.0000000000000002),
        RunScore("d2", "alg", 1, 5e-324, 0.1 + 0.2),
    ]
    path = tmp_path / "runs.csv"
    write_run_scores_csv(scores, path)
    assert read_run_scores_csv(path) == scores


def test_aggregate_and_rdi_csv_layout(tmp_path):
    aggs = [
        AggregateScore("d1", "A", 1.0, 0.1, 2.0, 0.2, 0.0, 0.0),
        AggregateScore("d1", "B", 1.5, 0.1, 1.0, 0.2, 0.5, -0.5),
        AggregateScore("d2", "A", 1.0, 0.0, 2.0, 0.0, 0.0, 0.0),
    ]
    apath = tmp_path / "aggregate.csv"
    write_aggregate_csv(aggs, apath)
    lines = apath.read_text().strip().splitlines()
    assert lines[0] == "dataset,algorithm,igd_mean,igd_std,hv_mean,hv_std,rdi_igd,rdi_hv"
    assert len(lines) == 4
    rpath = tmp_path / "rdi.csv"
    write_rdi_csv(aggs, rpath)
    rlines = rpath.read_text().strip().splitlines()
    assert rlines[0] == "dataset,rdi_igd_A,rdi_igd_B,rdi_hv_A,rdi_hv_B"
    assert rlines[1].split(",") == ["d1", "0.0", "0.5", "0.0", "-0.5"]
    # d2 never ran algorithm B: blank cells, not zeros
    assert rlines[2].split(",") == ["d2", "0.0", "", "0.0", ""]
