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

This module imports nothing from :mod:`sikam`: it owns the search contract
(:class:`KernelError`, the shift primitive and this engine) that the other
kernels import. The engine checks no input: :func:`sikam.kam.plan_neighbors`
does, before any search runs.
"""

from __future__ import annotations

import numpy as np


class KernelError(ValueError):
    """Raised for invalid kernel inputs (for example a candidate pool < K)."""


def _top_k(
    distances: np.ndarray, frames: np.ndarray, shifts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frames and shifts of the K smallest by (distance, frame, shift) order."""
    order = np.lexsort((shifts, frames, distances))[:k]
    return frames[order], shifts[order]


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
    rows = col.reshape(n, -1).T
    return _shift_windows(rows, pad)[np.arange(len(rows)), pad + delta].T.reshape(col.shape)


def _shift_windows(rows: np.ndarray, pad: int) -> np.ndarray:
    """Every shift in ``[-pad, pad]`` of each row, as a (rows, 2 * pad + 1, F) view.

    ``windows[i, pad + d]`` is row i shifted by d bins as :func:`shift_frame`
    shifts a column: the length-F stretch of one shared zero-padded copy of
    the row that starts d bins after the row itself. The view is read-only.
    """
    n_rows, n = rows.shape
    padded = np.zeros((n_rows, n + 2 * pad), dtype=rows.dtype)
    padded[:, pad : pad + n] = rows
    step_row, step_bin = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, (n_rows, 2 * pad + 1, n), (step_row, step_bin, step_bin), writeable=False
    )


# Rounding bound of one distance per bin, in units of (candidate energy +
# target energy). The matrix-product form and the difference form of a
# distance each add up at most F + 3 rounded terms no larger than that energy,
# so each is within (F + 3) * eps of the exact value; the factor 32 leaves room
# for the rounding of the energies, of the margin and of the comparisons.
_MARGIN_PER_BIN = 32 * np.finfo(float).eps
# Smallest normal double; n_bins of it in the margin cover underflow.
_TINY = np.finfo(float).tiny


def _rescore(
    data: np.ndarray,
    target: int,
    frames: np.ndarray,
    shifts: np.ndarray,
    tied: np.ndarray,
    k: int,
    delta: int,
) -> tuple[np.ndarray, np.ndarray]:
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


def _exhaustive_search(data, targets, cands, k: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor frames and shifts of every target, from one matrix product per shift.

    At each shift the distance of every frame to every target is approximated
    as covered-band energy + target energy - 2 * (band . shifted target); per
    (target, frame) the best shift and the runner-up are kept. Rounding puts
    an approximate distance at most a margin m from the exact one, so only
    frames whose best is within 2m of the k-th smallest best can make the
    top K. Those are re-scored exactly (every shift of a frame whose
    runner-up is within 2m of its best) unless the margin already settles
    the top K, its order and every shift. A frame keeps only its best shift,
    ties break by ascending (distance, frame, shift), and a target never
    neighbors itself; callers make sure k >= 1, that each target keeps at
    least k candidates and that delta does not exceed the bin count. Row i
    of the two (targets, k) results holds the neighbors of target i,
    closest first.
    """
    targets = np.asarray(targets, dtype=int)
    n_bins, n_frames = data.shape
    energy = np.einsum("ij,ij->j", data, data)
    # -2 * target is exact, so each product below is -2 * (band . target)
    target_cols = -2.0 * data[:, targets]
    best, runner = np.full((2, len(targets), n_frames), np.inf)
    best_shift = np.zeros(best.shape, dtype=int)
    # Shifts in order of |d|, so the energy of the bins a shift drops (the
    # first d for d > 0, the last |d| for d < 0) grows by one row per step.
    dropped_low, dropped_high = np.zeros((2, n_frames))
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
    margin += n_bins * _TINY
    # frames outside the pool, and every target itself, are no neighbors
    outside = np.ones(n_frames, dtype=bool)
    outside[cands] = False
    best[:, outside] = np.inf
    rows = np.arange(len(targets))[:, None]
    best[rows, targets[:, None]] = np.inf
    # every target's frames by ascending best; the first k are short-listed,
    # copied so that the returned frames do not hold the (targets, T) order
    order = best.argsort(axis=1)
    short = order[:, :k].copy()
    center = best[rows, short]
    gap = 2 * margin[:, None]
    # every frame whose best - m reaches the k-th smallest best + m
    limit = center[:, -1:] + gap
    # The margin alone settles the top K, its order and every shift when
    # exactly K are short-listed (the (k + 1)-th best is above the limit),
    # their bests are more than 2m apart and no frame has a second shift
    # within 2m of its best.
    unsettled = (
        (best[rows, order[:, k : k + 1]] <= limit).any(axis=1)
        | (center[:, 1:] - center[:, :-1] <= gap).any(axis=1)
        | (runner[rows, short] - center <= gap).any(axis=1)
    )
    shifts = best_shift[rows, short]
    for i in unsettled.nonzero()[0].tolist():
        frames = (best[i] <= limit[i]).nonzero()[0]
        tied = runner[i, frames] - best[i, frames] <= gap[i]
        short[i], shifts[i] = _rescore(
            data, targets[i], frames, best_shift[i, frames], tied, k, delta
        )
    return short, shifts
