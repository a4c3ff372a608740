"""Exhaustive shift-invariant neighbor search and the zero-padded shift.

Compares the target with every candidate frame at every shift in
``[-delta, delta]`` and keeps the best shift per frame. This makes notes of
the same source at different pitches usable as neighbors, at a cost that
grows linearly with the shift range. With ``delta=0`` it is the baseline
kernel: plain K nearest neighbors between whole magnitude frames.

All targets are searched together: one matrix product per shift gives
approximate distances of every frame to every target, and a rounding margin
decides which (frame, shift) pairs need the exact distance, so the neighbor
sets are those of an exact per-shift comparison.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .kam import KernelError, NeighborSet, _as_matrix, _candidate_array, _top_k


def shift_frame(col: np.ndarray, delta) -> np.ndarray:
    """Shift magnitude columns by ``delta`` bins with zero padding.

    ``col`` is one (F,) column shifted by an integer ``delta``, or an (F, n)
    matrix with one shift per column in ``delta``. ``out[f] = col[f + delta]``
    where defined, else 0: positive shifts move content toward lower bins.
    """
    col = np.asarray(col)
    delta = np.asarray(delta, dtype=int)
    n = col.shape[0]
    pad = int(np.abs(delta).max())
    if pad > n:
        raise KernelError(f"|delta|={pad} exceeds column length {n}")
    # Copy every column into a zero-padded row; column i of the result is the
    # length-n window of row i that starts delta[i] bins after its own start.
    rows = col.reshape(n, -1).T
    padded = np.zeros((len(rows), n + 2 * pad), dtype=col.dtype)
    padded[:, pad : pad + n] = rows
    step_row, step_bin = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (len(rows), 2 * pad + 1, n), (step_row, step_bin, step_bin), writeable=False
    )
    return windows[np.arange(len(rows)), pad + delta].T.reshape(col.shape)


# Rounding bound of one distance per bin, in units of (candidate energy +
# target energy). The matrix-product form and the difference form of a
# distance each add up at most F + 3 rounded terms no larger than that energy,
# so each is within (F + 3) * eps of the exact value; the factor 32 leaves room
# for the rounding of the energies, of the margin and of the comparisons.
_MARGIN_PER_BIN = 32 * np.finfo(float).eps


def _rescore(
    data: np.ndarray,
    target: int,
    frames: np.ndarray,
    shifts: np.ndarray,
    tied: np.ndarray,
    k: int,
    delta: int,
) -> list[tuple[int, int]]:
    """Top K of the short-listed (frame, shift) pairs by exact distance.

    The exact distance is the covered-band sum of squared differences, bin
    by bin in ascending order, plus the target's energy in the uncovered
    band. Frames marked ``tied`` try every shift in ascending order and keep
    the first best one; the others keep their shift.
    """
    n_bins = data.shape[0]
    col = data[:, target]
    # numpy sums a C-ordered matrix over its rows one row at a time, the
    # order the distances must keep, but a lone column pairwise: hence the
    # row-major copy and the spare column
    columns = np.ascontiguousarray(data[:, np.append(frames, frames[0])])
    dist = np.full(len(frames), np.inf)
    shifts = shifts.copy()
    for d in range(-delta, delta + 1) if tied.any() else np.unique(shifts).tolist():
        lo, hi = max(d, 0), n_bins + min(d, 0)
        core = columns[lo:hi] - col[lo - d : hi - d, None]
        head, tail = col[: lo - d], col[hi - d :]
        edge = float(np.dot(head, head) + np.dot(tail, tail))
        here = np.einsum("ij,ij->j", core, core)[:-1] + edge
        better = (tied | (shifts == d)) & (here < dist)
        dist[better] = here[better]
        shifts[better] = d
    return _top_k(dist, frames, shifts, k)


def _exhaustive_search(data, targets, cands, k: int, delta: int) -> list[NeighborSet]:
    """Neighbor sets of every target, from one matrix product per shift.

    At each shift the distance of every frame to every target is approximated
    as covered-band energy + target energy - 2 * (band . shifted target); per
    (target, frame) the best shift and the runner-up are kept. Rounding puts
    an approximate distance at most a margin m from the exact one, so only
    frames whose best is within 2m of the k-th smallest best can make the
    top K. Those are re-scored exactly (every shift of a frame whose
    runner-up is within 2m of its best) unless the margin already settles
    the top K, its order and every shift. A target never neighbors itself;
    callers make sure each target keeps at least k candidates and that
    delta does not exceed the bin count.
    """
    data = np.asarray(data, dtype=float)
    targets = np.asarray(targets, dtype=int)
    n_bins, n_frames = data.shape
    valid = np.zeros((len(targets), n_frames), dtype=bool)
    valid[:, cands] = True
    valid[np.arange(len(targets)), targets] = False
    energy = np.einsum("ij,ij->j", data, data)
    # -2 * target is exact, so each product below is -2 * (band . target)
    target_cols = -2.0 * data[:, targets]
    best = np.full(valid.shape, np.inf)
    runner = best.copy()
    best_shift = np.zeros(valid.shape, dtype=int)
    # Shifts in order of |d|, so the energy of the bins a shift drops (the
    # first d for d > 0, the last |d| for d < 0) grows by one row per step.
    dropped_low, dropped_high = np.zeros(n_frames), np.zeros(n_frames)
    for d in sorted(range(-delta, delta + 1), key=abs):
        lo, hi = max(d, 0), n_bins + min(d, 0)
        approx = target_cols[lo - d : hi - d].T @ data[lo:hi]
        approx += energy
        if d > 0:
            dropped_low += data[d - 1] ** 2
            approx -= dropped_low
        elif d < 0:
            dropped_high += data[d] ** 2
            approx -= dropped_high
        np.minimum(runner, np.maximum(best, approx), out=runner)
        best_shift[approx < best] = d
        np.minimum(best, approx, out=best)
    # m for every distance to target i, the loudest frame bounding the candidate energy
    margin = _MARGIN_PER_BIN * (n_bins + 3) * (energy.max() + energy[targets])
    margin += n_bins * np.finfo(float).tiny  # underflow
    best = np.where(valid, best, np.inf)
    ranked = np.argsort(best, axis=1)
    plans = []
    for i, t in enumerate(targets.tolist()):
        # every frame whose best - m reaches the k-th smallest best + m
        center = best[i, ranked[i]]
        cut = np.searchsorted(center, center[k - 1] + 2 * margin[i], side="right")
        frames, center = ranked[i, :cut], center[:cut]
        shifts = best_shift[i, frames]
        tied = runner[i, frames] - center <= 2 * margin[i]
        # The margin alone settles the top K, its order and every shift when
        # the short-listed bests are more than 2m apart (so exactly K are
        # short-listed) and no frame has a second shift within 2m of its best.
        if tied.any() or np.any(np.diff(center) <= 2 * margin[i]):
            pairs = _rescore(data, t, frames, shifts, tied, k, delta)
        else:
            pairs = list(zip(frames.tolist(), shifts.tolist()))
        plans.append(NeighborSet(target=t, neighbors=tuple(pairs)))
    return plans


def knn_shift_exhaustive(
    mag, target: int, candidates: Iterable[int], k: int, delta: int
) -> NeighborSet:
    """K best (frame, shift) pairs over all shifts in [-delta, delta].

    At most one shift per candidate frame survives (the best one), so a
    single frame cannot fill several neighbor slots with near-identical
    content. Ties break by ascending (distance, frame, shift); the target
    itself is excluded from the pool. ``delta=0`` is the baseline kernel.
    This is the one-target case of the search :func:`kam.plan_neighbors`
    runs for all support frames at once.
    """
    data = _as_matrix(mag)
    if delta > data.shape[0]:
        raise KernelError(f"delta={delta} exceeds the {data.shape[0]} frequency bins")
    cands = _candidate_array(candidates, target)
    if len(cands) < k:
        raise KernelError(
            f"need at least k={k} candidate frames, got {len(cands)} "
            "(one shift per frame is kept)"
        )
    return _exhaustive_search(data, [target], cands, k, delta)[0]
