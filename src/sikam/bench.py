"""Wall-clock scaling measurements for the kernel variants.

Times the per-stage cost of the three neighbor searches on random magnitude
matrices so their growth can be compared against the expected asymptotics:
the baseline search is quadratic in the frame count, the exhaustive
shift-invariant search additionally grows linearly with the shift range, and
the specmurt search does not depend on the shift range at all. The baseline
stage times the batched search and median over runs of frames, the specmurt
stage the ``specmurt`` variant's whole search over runs of frames, and the
shift stage the exhaustive search engine called with one target at a time
(see ``_stages``). The shift stage stays one target at a time because a
batched search grows less than the shift range: on a 2-core machine,
doubling the range of a batched stage measured x1.53 in 1 of 8 runs of
acceptance criterion 7, under its x1.6 floor, against 0 of 8 runs for the
one-target stage.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _THREAD_VARIABLES, kam, shiftkam, specmurt
from .shiftkam import KernelError

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


# Each stage's target frames are split into this many runs of consecutive
# frames; the sizes take turns run by run (see _measure).
_RUNS = 16


def _stages(mag: np.ndarray, max_shift: int, k: int) -> dict:
    """The timed stages of one size, each searching every frame of ``mag``.

    A stage is a list of steps that together make one pass over the frames,
    one step per run of target frames; every size has the same number of
    steps. The baseline stage searches a run at once and takes its medians
    at once, and the specmurt stage runs the whole search of the
    ``specmurt`` variant on a run, with the size's shift range, both as
    :func:`kam.plan_neighbors` searches a support: their claims are about
    all frames together, and one-target calls would spend most of their time
    in per-call work that grows with neither T nor the shift range. The
    shift stage calls :func:`shiftkam._exhaustive_search` with one target at
    a time; the module docstring says why.
    """
    all_frames = np.arange(mag.shape[1])

    def baseline(targets):
        frames, shifts = shiftkam._exhaustive_search(mag, targets, all_frames, k, 0)
        kam._medians(mag, frames, shifts)

    def shift_similarity(targets):
        for t in targets.tolist():
            shiftkam._exhaustive_search(mag, [t], all_frames, k, max_shift)

    def specmurt_similarity(targets):
        specmurt._pruned_search(mag, targets, all_frames, k, 0, max_shift)

    searches = (baseline, shift_similarity, specmurt_similarity)
    runs = np.array_split(all_frames, _RUNS)
    return {
        name: [lambda run=run, search=search: search(run) for run in runs]
        for name, search in zip(STAGES, searches)
    }


def run_bench(sizes, k: int = 16, reps: int = 3, seed: int = 0) -> list[BenchPoint]:
    """One :class:`BenchPoint` per (n_bins, n_frames, max_shift) triple.

    Each rep runs in a fresh interpreter with single-threaded BLAS, as
    :func:`_measure`, and each reported time is the median over reps. On a
    shared machine a BLAS worker thread can take milliseconds to wake for
    one small matrix product; the heap and the garbage collector of a
    process that holds much else slow some sizes more than others; and
    where a process's arrays land in memory biases all of its timings
    alike. None of that belongs to the searches being measured. Raises
    :class:`KernelError` for fewer than 1 rep, fewer than 2 bins, a shift
    range outside ``[0, n_bins]`` or a ``k`` outside ``[1, n_frames)``.
    """
    if reps < 1:
        raise KernelError(f"reps must be >= 1, got {reps}")
    sizes = [(int(f), int(t), int(d)) for f, t, d in sizes]
    for n_bins, n_frames, max_shift in sizes:
        if n_bins < 2 or not 0 <= max_shift <= n_bins or not 1 <= k < n_frames:
            raise KernelError(
                f"size {n_bins}:{n_frames}:{max_shift} with k={k} needs at least 2 bins, "
                "a shift range in [0, bins] and k in [1, frames)"
            )
    # one BLAS and OpenMP thread each, whatever the environment says
    env = {**os.environ, **dict.fromkeys(_THREAD_VARIABLES, "1")}
    # the measuring interpreter imports this very package
    paths = (str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    argv = [sys.executable, "-m", "sikam.bench", json.dumps([sizes, k, seed])]
    times = []
    for _ in range(reps):
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"the benchmark interpreter failed:\n{done.stderr}")
        times.append(json.loads(done.stdout))
    # (reps, sizes, stages) seconds; the stages in STAGES order, as BenchPoint has them
    medians = np.median(np.reshape(times, (reps, len(sizes), len(STAGES))), axis=0)
    return [BenchPoint(*size, *map(float, row)) for size, row in zip(sizes, medians)]


def _measure(sizes, k: int, seed: int) -> list[list[float]]:
    """One rep of :func:`run_bench` in this process: the seconds of every stage of every size.

    Every stage of every size runs once untimed (FFT plans, allocator,
    caches). Then the stages are timed one after the other, and within a
    stage the sizes take turns step by step: the first step of every size,
    then the second step of every size in reverse order, and so on. A slow
    spell of a shared machine, which lasts longer than a step, thus falls
    on all sizes alike instead of on one side of a ratio, and each size
    goes first as often as last. A stage's time is the sum of its steps.
    """
    # one random matrix per shape, so that sizes differing only in the shift
    # range search the very same array
    mags = {}
    for f, t, _ in sizes:
        mags.setdefault((f, t), np.random.default_rng(seed).random((f, t)))
    stages = [_stages(mags[f, t], d, k) for f, t, d in sizes]
    for steps in stages:
        for fns in steps.values():
            for fn in fns:
                fn()
    spent = [[0.0] * len(STAGES) for _ in sizes]
    for n, name in enumerate(STAGES):
        for j, fns in enumerate(zip(*(steps[name] for steps in stages))):
            order = range(len(sizes)) if j % 2 == 0 else reversed(range(len(sizes)))
            for i in order:
                t0 = time.perf_counter()
                fns[i]()
                spent[i][n] += time.perf_counter() - t0
    return spent


def report(points) -> str:
    """The text ``sikam bench`` prints: a table of the points, each stage's
    ratios between consecutive points, and the log-log slope of the baseline
    against T per (F, delta) and of the shift stage against 2 * delta + 1
    per (F, T), for each group of two or more points with distinct x values.
    """
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
    if len(points) > 1:
        lines.append("\nratios between consecutive sizes:")
    for a, b in zip(points, points[1:]):
        lines.append(
            f"  {(a.n_bins, a.n_frames, a.max_shift)} -> {(b.n_bins, b.n_frames, b.max_shift)}: "
            f"baseline x{b.baseline_total / a.baseline_total:.2f}, "
            f"shift-similarity x{b.shift_similarity / a.shift_similarity:.2f}, "
            f"specmurt-similarity x{b.specmurt_similarity / a.specmurt_similarity:.2f}"
        )
    # each fitted group under the line that reports it, as (x, seconds) pairs
    fits = {}
    for p in points:
        line = f"\nlog-log slope of baseline vs T (F={p.n_bins}, delta={p.max_shift})"
        fits.setdefault(line, []).append((p.n_frames, p.baseline_total))
    for p in points:
        line = f"log-log slope of shift similarity vs (2*delta+1) (F={p.n_bins}, T={p.n_frames})"
        fits.setdefault(line, []).append((2 * p.max_shift + 1, p.shift_similarity))
    for line, pairs in fits.items():
        if len(pairs) >= 2 and len({x for x, _ in pairs}) == len(pairs):
            log_x, log_y = np.log(np.array(pairs, dtype=float)).T
            lines.append(f"{line}: {np.polyfit(log_x, log_y, 1)[0]:.2f}")
    return "\n".join(lines)


if __name__ == "__main__":
    # one rep of run_bench: sizes, k and seed as one JSON argument, the
    # seconds of every stage of every size as JSON on stdout
    print(json.dumps(_measure(*json.loads(sys.argv[1]))))
