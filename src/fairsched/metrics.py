"""Front quality metrics: IGD, hypervolume, and relative deviation.

Comparisons for one dataset pool every front from every algorithm and
repetition into a union reference front, the nondominated filter of the
union (a staircase sweep: O(n log n) comparisons and O(n) memory); its
per-objective min/max provide the normalization bounds. IGD of a front is
the mean Euclidean distance from each reference point to its nearest front
point (smaller is better). Hypervolume is computed exactly in three
dimensions against reference point (1.1, 1.1, 1.1) after normalization
(larger is better). RDI rescales a group of values against the best among
them: (value - best) / best, so the best scores 0, IGD deviations are >= 0
and hypervolume deviations are <= 0.
"""

from __future__ import annotations

import csv
import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

HV_REFERENCE = (1.1, 1.1, 1.1)


def pareto_filter(points: np.ndarray) -> np.ndarray:
    """Unique nondominated points (minimization), sorted lexicographically.
    Input rows are (x, y, z); any other shape raises ValueError. Rows equal
    up to the sign of a zero are one point; every zero comes out as +0.0.
    Rows holding a NaN dominate nothing and are all kept.

    After the sort and the dropping of repeats, only an earlier row can
    dominate a later one, and it does so exactly when some earlier kept row
    is <= on both y and z. A sweep answers that test with one bisection into
    the staircase of the kept (y, z) pairs that no other kept pair is <= on
    both, y ascending and z descending (Kung, Luccio & Preparata 1975). It
    takes O(n log n) comparisons, plus the list moves of each insertion, and
    O(n) memory, where an n x n dominance matrix takes O(n^2) of both.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"pareto_filter needs rows of 3 objectives, got shape {pts.shape}")
    if len(pts) == 0:
        return pts
    pts = pts[np.lexsort(pts.T[::-1])]  # first column is the primary key
    pts = pts[np.append(True, (pts[1:] != pts[:-1]).any(axis=1))] + 0.0
    keep = np.isnan(pts).any(axis=1)  # set aside: a NaN compares false both ways
    ys: list[float] = []  # the staircase: ys ascending, zs descending
    zs: list[float] = []
    for i, (y, z) in zip(np.flatnonzero(~keep).tolist(), pts[~keep, 1:].tolist()):
        below = bisect_right(ys, y)
        if below and zs[below - 1] <= z:  # the lowest z of the stairs with y <= this y
            continue
        # the new stair replaces those it is <= on both: y from its own on, z down to its own
        first = last = bisect_left(ys, y)
        while last < len(zs) and zs[last] >= z:
            last += 1
        ys[first:last] = [y]
        zs[first:last] = [z]
        keep[i] = True
    return pts[keep]


def union_reference(fronts) -> np.ndarray:
    """Nondominated filter of every point from every front."""
    stacked = [np.asarray(f, dtype=float).reshape(-1, 3) for f in fronts if len(f)]
    if not stacked:
        raise ValueError("union reference of no points")
    return pareto_filter(np.vstack(stacked))


def norm_bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("bounds of no points")
    return pts.min(axis=0), pts.max(axis=0)


def normalize(points: np.ndarray, bounds: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Min-max rescale; a degenerate objective (min == max) maps to 0."""
    lo, hi = bounds
    pts = np.asarray(points, dtype=float)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    out = (pts - lo) / safe
    return np.where(span > 0, out, 0.0)


def igd(front: np.ndarray, reference: np.ndarray) -> float:
    """Mean distance from each reference point to the nearest front point."""
    P = np.asarray(front, dtype=float).reshape(-1, 3)
    R = np.asarray(reference, dtype=float).reshape(-1, 3)
    if len(P) == 0 or len(R) == 0:
        raise ValueError("igd needs non-empty front and reference")
    diff = R[:, None, :] - P[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    return float(d.min(axis=1).mean())


def hv(front, ref=HV_REFERENCE) -> float:
    """Exact 3-D hypervolume dominated by `front` up to `ref` (minimization).

    Points that do not strictly dominate the reference point contribute
    nothing; they are clipped and logged at DEBUG level (`score_fronts`
    warns once for all of its runs). Dominated or duplicate points are
    harmless. Computed by sweeping the first objective: each distinct x
    opens a slab up to the next one (the last up to ref), whose area is the
    2-D staircase of the points with x up to its own. All slabs are swept
    at once as rows of [slab, point] matrices, and areas and volumes are
    added left to right (`np.add.accumulate`, not the pairwise `np.sum`),
    so every float is the one a loop over slabs and stairs gives.
    """
    pts = np.asarray(front, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float)
    if len(pts) == 0:
        return 0.0
    inside = (pts < ref).all(axis=1)
    if not inside.all():
        log.debug("hv: clipped %d point(s) not dominating the reference %s", int((~inside).sum()), ref.tolist())
    pts = pareto_filter(pts[inside])
    if len(pts) == 0:
        return 0.0
    x, y, z = pts[np.lexsort((pts[:, 2], pts[:, 1]))].T  # y ascending, z ascending within
    xs = np.unique(x)
    active = x <= xs[:, None]
    # a stair's z is below that of every earlier point of its slab
    lowest = np.minimum.accumulate(np.where(active, z, ref[2]), axis=1)
    before = np.concatenate([np.full((len(xs), 1), ref[2]), lowest[:, :-1]], axis=1)
    slab, point = np.nonzero(active & (z < before))  # slab by slab, in y order
    # each stair reaches to the next stair of its slab, the last one to ref
    next_y = np.append(y[point[1:]], ref[1])
    next_y[np.append(slab[1:] != slab[:-1], True)] = ref[1]
    terms = np.zeros(active.shape)
    terms[slab, point] = (next_y - y[point]) * (ref[2] - z[point])
    area = np.add.accumulate(terms, axis=1)[:, -1]
    depth = np.diff(np.append(xs, ref[0]))
    return float(np.add.accumulate(depth * area)[-1])


def rdi(values, better: str) -> list[float]:
    """Relative deviation from the best value in the group.

    better="smaller" treats the minimum as best (IGD), better="larger" the
    maximum (hypervolume). The best entry maps to 0. A best of exactly 0,
    which a run holding the whole union reference scores on IGD, leaves the
    ratio undefined; then entries equal to the best map to 0 and all others
    to infinity.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("rdi of no values")
    if better == "smaller":
        best = min(values)
    elif better == "larger":
        best = max(values)
    else:
        raise ValueError(f"better must be 'smaller' or 'larger', got {better!r}")
    if best == 0.0:
        return [0.0 if v == best else float("inf") for v in values]
    return [(v - best) / best for v in values]


@dataclass(frozen=True)
class RunScore:
    dataset: str
    algorithm: str
    repetition: int
    igd: float
    hv: float


@dataclass(frozen=True)
class AggregateScore:
    dataset: str
    algorithm: str
    igd_mean: float
    igd_std: float
    hv_mean: float
    hv_std: float
    rdi_igd: float
    rdi_hv: float


def score_fronts(
    dataset: str,
    fronts_by_algorithm: dict[str, list[np.ndarray]],
    normalize_igd: bool = True,
) -> list[RunScore]:
    """IGD and hypervolume of every run front against the dataset's union
    reference. Bounds are never mixed across datasets: callers score each
    dataset separately. One warning names the runs whose normalized fronts
    have points that `hv` clips, and the runs that score a hypervolume of 0.
    A metric that overflows float raises ValueError naming the dataset and,
    where one run's front causes it, the clusterer and repetition."""
    all_fronts = [f for runs in fronts_by_algorithm.values() for f in runs]
    ref_pts_raw = union_reference(all_fronts)
    bounds = norm_bounds(ref_pts_raw)
    with np.errstate(over="raise"):
        try:
            ref_pts = normalize(ref_pts_raw, bounds)
        except FloatingPointError:
            raise ValueError(f"dataset {dataset}: the union reference's range overflows float") from None
    scores: list[RunScore] = []
    clipped: list[str] = []
    empty: list[str] = []
    for algorithm in fronts_by_algorithm:
        for rep, front in enumerate(fronts_by_algorithm[algorithm]):
            with np.errstate(over="raise"):
                try:
                    norm_front = normalize(front, bounds)
                    igd_value = igd(norm_front, ref_pts) if normalize_igd else igd(front, ref_pts_raw)
                    hv_value = hv(norm_front)
                except FloatingPointError:
                    raise ValueError(
                        f"dataset {dataset}, clusterer {algorithm}, repetition {rep}: "
                        "the front's distance to the union reference overflows float"
                    ) from None
            scores.append(RunScore(dataset, algorithm, rep, igd_value, hv_value))
            beyond = int((~(norm_front < HV_REFERENCE).all(axis=1)).sum())
            if beyond:
                clipped.append(f"{algorithm} rep {rep} ({beyond})")
            if hv_value == 0.0:
                empty.append(f"{algorithm} rep {rep}")
    parts = []
    if clipped:
        parts.append(f"{len(clipped)} run(s) have points beyond the reference {list(HV_REFERENCE)}, clipped: {', '.join(clipped)}")
    if empty:
        parts.append(f"{len(empty)} run(s) score hv = 0: {', '.join(empty)}")
    if parts:
        log.warning("hv on %s: %s", dataset, "; ".join(parts))
    return scores


def aggregate_scores(scores: list[RunScore]) -> list[AggregateScore]:
    """Per (dataset, algorithm) means and population stds, plus RDI of the
    means within each dataset."""
    grouped: dict[tuple[str, str], list[RunScore]] = {}
    for s in scores:
        grouped.setdefault((s.dataset, s.algorithm), []).append(s)
    datasets: dict[str, list[tuple[str, float, float, float, float]]] = {}
    for (dataset, algorithm), rows in grouped.items():
        igds = np.array([r.igd for r in rows])
        hvs = np.array([r.hv for r in rows])
        datasets.setdefault(dataset, []).append(
            (algorithm, float(igds.mean()), float(igds.std()), float(hvs.mean()), float(hvs.std()))
        )
    out: list[AggregateScore] = []
    for dataset in datasets:
        rows = datasets[dataset]
        igd_rdis = rdi([r[1] for r in rows], better="smaller")
        hv_rdis = rdi([r[3] for r in rows], better="larger")
        for (algorithm, im, istd, hm, hstd), ri, rh in zip(rows, igd_rdis, hv_rdis):
            out.append(AggregateScore(dataset, algorithm, im, istd, hm, hstd, ri, rh))
    return out


def write_run_scores_csv(scores: list[RunScore], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["dataset", "algorithm", "repetition", "igd", "hv"])
        for s in scores:
            out.writerow([s.dataset, s.algorithm, s.repetition, repr(s.igd), repr(s.hv)])


def write_aggregate_csv(aggregates: list[AggregateScore], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["dataset", "algorithm", "igd_mean", "igd_std", "hv_mean", "hv_std", "rdi_igd", "rdi_hv"])
        for a in aggregates:
            out.writerow(
                [a.dataset, a.algorithm]
                + [repr(v) for v in (a.igd_mean, a.igd_std, a.hv_mean, a.hv_std, a.rdi_igd, a.rdi_hv)]
            )


def write_rdi_csv(aggregates: list[AggregateScore], path) -> None:
    """Wide deviation table: one row per dataset, RDI columns per algorithm."""
    algorithms = sorted({a.algorithm for a in aggregates})
    by_dataset: dict[str, dict[str, AggregateScore]] = {}
    for a in aggregates:
        by_dataset.setdefault(a.dataset, {})[a.algorithm] = a
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        header = ["dataset"]
        header += [f"rdi_igd_{alg}" for alg in algorithms]
        header += [f"rdi_hv_{alg}" for alg in algorithms]
        out.writerow(header)
        for dataset in sorted(by_dataset):
            row = [dataset]
            row += [repr(by_dataset[dataset][alg].rdi_igd) if alg in by_dataset[dataset] else "" for alg in algorithms]
            row += [repr(by_dataset[dataset][alg].rdi_hv) if alg in by_dataset[dataset] else "" for alg in algorithms]
            out.writerow(row)
