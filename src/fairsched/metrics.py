"""Front quality metrics: IGD, hypervolume, and relative deviation.

Comparisons for one dataset pool every front from every algorithm and
repetition into a union reference front (nondominated filter of the union);
its per-objective min/max provide the normalization bounds. IGD of a front
is the mean Euclidean distance from each reference point to its nearest
front point (smaller is better). Hypervolume is computed exactly in three
dimensions against reference point (1.1, 1.1, 1.1) after normalization
(larger is better). RDI rescales a group of values against the best among
them: (value - best) / best, so the best scores 0, IGD deviations are >= 0
and hypervolume deviations are <= 0.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .nsga3 import nondominated_sort

log = logging.getLogger(__name__)

HV_REFERENCE = (1.1, 1.1, 1.1)


def pareto_filter(points: np.ndarray) -> np.ndarray:
    """Unique nondominated points (minimization), sorted lexicographically."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.size == 0:
        return pts.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    return pts[nondominated_sort(pts, stop=1)[0]]


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


@dataclass(frozen=True)
class NormalizedFront:
    """A front in [0, 1]^3 together with the bounds that produced it."""

    points: np.ndarray
    bounds: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size and (pts.min() < -1e-9 or pts.max() > 1 + 1e-9):
            raise ValueError("normalized coordinates fall outside [0, 1]")
        object.__setattr__(self, "points", pts)


def normalized_reference(fronts) -> NormalizedFront:
    """Union reference front normalized by its own bounds."""
    return _self_normalized(union_reference(fronts))


def _self_normalized(ref: np.ndarray) -> NormalizedFront:
    bounds = norm_bounds(ref)
    return NormalizedFront(normalize(ref, bounds), bounds)


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
    nothing; they are clipped and logged. Dominated or duplicate points are
    harmless. Computed by sweeping the first objective and accumulating
    2-D staircase areas of the active slabs.
    """
    pts = front.points if isinstance(front, NormalizedFront) else front
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float)
    if len(pts) == 0:
        return 0.0
    inside = (pts < ref).all(axis=1)
    if not inside.all():
        log.warning("hv: clipped %d point(s) not dominating the reference %s", int((~inside).sum()), ref.tolist())
    pts = pareto_filter(pts[inside])
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


def rdi(values, better: str) -> list[float]:
    """Relative deviation from the best value in the group.

    better="smaller" treats the minimum as best (IGD), better="larger" the
    maximum (hypervolume). The best entry maps to 0; a best of 0 leaves the
    ratio undefined and raises.
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
        raise ValueError("rdi undefined: best value is 0")
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
    ref_point=HV_REFERENCE,
    normalize_igd: bool = True,
) -> tuple[list[RunScore], NormalizedFront]:
    """IGD and hypervolume of every run front against the dataset's union
    reference. Bounds are never mixed across datasets: callers score each
    dataset separately."""
    all_fronts = [f for runs in fronts_by_algorithm.values() for f in runs]
    ref_pts_raw = union_reference(all_fronts)
    reference = _self_normalized(ref_pts_raw)
    scores: list[RunScore] = []
    for algorithm in fronts_by_algorithm:
        for rep, front in enumerate(fronts_by_algorithm[algorithm]):
            norm_front = normalize(front, reference.bounds)
            if normalize_igd:
                igd_value = igd(norm_front, reference.points)
            else:
                igd_value = igd(front, ref_pts_raw)
            scores.append(
                RunScore(dataset, algorithm, rep, igd_value, hv(norm_front, ref_point))
            )
    return scores, reference


def _rdi_allowing_zero_best(values, better: str) -> list[float]:
    """RDI with a convention for the degenerate best == 0 case, which a
    perfectly scoring algorithm can produce (its every front contains the
    whole union reference, so mean IGD is exactly 0): ties with the best
    deviate by 0, everything else by infinity."""
    values = [float(v) for v in values]
    best = min(values) if better == "smaller" else max(values)
    if best == 0.0:
        return [0.0 if v == best else float("inf") for v in values]
    return rdi(values, better)


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
        igd_rdis = _rdi_allowing_zero_best([r[1] for r in rows], better="smaller")
        hv_rdis = _rdi_allowing_zero_best([r[3] for r in rows], better="larger")
        for (algorithm, im, istd, hm, hstd), ri, rh in zip(rows, igd_rdis, hv_rdis):
            out.append(AggregateScore(dataset, algorithm, im, istd, hm, hstd, ri, rh))
    return out


def write_run_scores_csv(scores: list[RunScore], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["dataset", "algorithm", "repetition", "igd", "hv"])
        for s in scores:
            out.writerow([s.dataset, s.algorithm, s.repetition, repr(s.igd), repr(s.hv)])


def read_run_scores_csv(path) -> list[RunScore]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        RunScore(r["dataset"], r["algorithm"], int(r["repetition"]), float(r["igd"]), float(r["hv"]))
        for r in rows
    ]


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
