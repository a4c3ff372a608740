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

# The timed stages, named as the BenchPoint fields that hold their times.
STAGES = ("baseline_total", "shift_similarity", "specmurt_similarity")


@dataclass(frozen=True)
class BenchPoint:
    """Median stage timings in seconds for one problem size."""

    n_bins: int
    n_frames: int
    max_shift: int
    baseline_total: float
    shift_similarity: float
    specmurt_similarity: float


def _stages(n_bins: int, n_frames: int, max_shift: int, k: int, seed: int) -> dict:
    """The timed stages of one size, each searching every frame of a random matrix."""
    mag = np.random.default_rng(seed).random((n_bins, n_frames))
    all_frames = np.arange(n_frames)

    def run_baseline():
        for t in range(n_frames):
            nset = shiftkam.knn_shift_exhaustive(mag, t, all_frames, k, 0)
            kam.median_estimate(mag, nset)

    def run_shift_similarity():
        for t in range(n_frames):
            shiftkam.knn_shift_exhaustive(mag, t, all_frames, k, max_shift)

    def run_specmurt_similarity():
        spec = specmurt.specmurt_matrix(mag)
        for t in range(n_frames):
            specmurt.knn_specmurt(mag, t, all_frames, k, spec=spec)

    return dict(zip(STAGES, (run_baseline, run_shift_similarity, run_specmurt_similarity)))


def run_bench(sizes, k: int = 16, reps: int = 3, seed: int = 0) -> list[BenchPoint]:
    """One :class:`BenchPoint` per (n_bins, n_frames, max_shift) triple.

    Every stage of every size runs once untimed (FFT plans, allocator,
    caches). Each rep then times all stages of one size, then of the next,
    so that a slow spell of a shared machine falls on all sizes alike and
    every stage runs after the same stages at every size; each time is the
    median over reps.
    """
    stages = [_stages(f, t, d, k, seed) for f, t, d in sizes]
    for fns in stages:
        for fn in fns.values():
            fn()
    times = [{name: [] for name in STAGES} for _ in sizes]
    for _ in range(reps):
        for fns, spent in zip(stages, times):
            for name, fn in fns.items():
                t0 = time.perf_counter()
                fn()
                spent[name].append(time.perf_counter() - t0)
    return [
        BenchPoint(f, t, d, **{name: float(np.median(v)) for name, v in spent.items()})
        for (f, t, d), spent in zip(sizes, times)
    ]


def doubling_ratios(points) -> list[dict]:
    """Timing ratios between consecutive sizes, tagged by what doubled."""
    out = []
    for a, b in zip(points, points[1:]):
        entry = {
            "from": (a.n_bins, a.n_frames, a.max_shift),
            "to": (b.n_bins, b.n_frames, b.max_shift),
        }
        entry.update({name: getattr(b, name) / getattr(a, name) for name in STAGES})
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
