"""Wall-clock scaling measurements for the kernel variants.

Times the per-stage cost of the three neighbor searches on random magnitude
matrices so their growth can be compared against the expected asymptotics:
the baseline search is quadratic in the frame count, the exhaustive
shift-invariant search additionally grows linearly with the shift range, and
the specmurt similarity stage does not depend on the shift range at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kam, shiftkam, specmurt


@dataclass(frozen=True)
class BenchPoint:
    """Median stage timings in seconds for one problem size."""

    n_bins: int
    n_frames: int
    max_shift: int
    baseline_total: float
    shift_similarity: float
    specmurt_similarity: float


def _median_time(fn, reps: int) -> float:
    fn()  # warm-up: FFT plans, allocator, caches
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _random_mag(n_bins: int, n_frames: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n_bins, n_frames))


def bench_point(
    n_bins: int,
    n_frames: int,
    max_shift: int,
    k: int = 16,
    reps: int = 3,
    seed: int = 0,
) -> BenchPoint:
    """Time each stage once per target frame over a random magnitude matrix."""
    mag = _random_mag(n_bins, n_frames, seed)
    all_frames = np.arange(n_frames)

    def run_baseline():
        for t in range(n_frames):
            nset = shiftkam.knn_shift_exhaustive(mag, t, all_frames, k, 0)
            kam.median_estimate(mag, nset)

    def run_shift_similarity():
        for t in range(n_frames):
            shiftkam.knn_shift_exhaustive(mag, t, all_frames, k, max_shift)

    def run_specmurt_similarity():
        spec = specmurt.specmurt_matrix(mag, drop_head=1)
        for t in range(n_frames):
            specmurt.knn_specmurt(mag, t, all_frames, k, spec=spec)

    return BenchPoint(
        n_bins=n_bins,
        n_frames=n_frames,
        max_shift=max_shift,
        baseline_total=_median_time(run_baseline, reps),
        shift_similarity=_median_time(run_shift_similarity, reps),
        specmurt_similarity=_median_time(run_specmurt_similarity, reps),
    )


def run_bench(sizes, k: int = 16, reps: int = 3, seed: int = 0) -> list[BenchPoint]:
    """One :class:`BenchPoint` per (n_bins, n_frames, max_shift) triple."""
    return [bench_point(f, t, d, k=k, reps=reps, seed=seed) for f, t, d in sizes]


def doubling_ratios(points) -> list[dict]:
    """Timing ratios between consecutive sizes, tagged by what doubled."""
    out = []
    for a, b in zip(points, points[1:]):
        entry = {
            "from": (a.n_bins, a.n_frames, a.max_shift),
            "to": (b.n_bins, b.n_frames, b.max_shift),
            "baseline_total": b.baseline_total / a.baseline_total,
            "shift_similarity": b.shift_similarity / a.shift_similarity,
            "specmurt_similarity": b.specmurt_similarity / a.specmurt_similarity,
        }
        out.append(entry)
    return out


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def format_table(points) -> str:
    header = (
        f"{'F':>5} {'T':>6} {'delta':>6} | "
        f"{'baseline_total':>15} {'shift_sim':>12} {'specmurt_sim':>13}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.n_bins:>5} {p.n_frames:>6} {p.max_shift:>6} | "
            f"{p.baseline_total:>13.4f}s {p.shift_similarity:>10.4f}s "
            f"{p.specmurt_similarity:>11.4f}s"
        )
    return "\n".join(lines)
