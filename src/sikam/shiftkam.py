"""Exhaustive shift-invariant neighbor search and the zero-padded shift.

Compares the target with every candidate frame at every shift in
``[-delta, delta]`` and keeps the best shift per frame. This makes notes of
the same source at different pitches usable as neighbors, at a cost that
grows linearly with the shift range. With ``delta=0`` it is the baseline
kernel: plain K nearest neighbors between whole magnitude frames.
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


def _distances_at_shift(
    mag: np.ndarray, target_col: np.ndarray, candidates: np.ndarray, delta: int
) -> np.ndarray:
    """Squared distances between the target and each candidate shifted by delta.

    Out-of-range bins of the shifted candidate read as zero, so the target's
    energy in the uncovered band counts fully toward the distance. Distances
    are computed against the whole (contiguous) matrix and the candidate
    entries selected afterwards, which is much faster than gathering columns.
    """
    lo, hi = max(delta, 0), mag.shape[0] + min(delta, 0)
    core = mag[lo:hi] - target_col[lo - delta : hi - delta, None]
    head, tail = target_col[: lo - delta], target_col[hi - delta :]
    edge = float(np.dot(head, head) + np.dot(tail, tail))
    return (np.einsum("ij,ij->j", core, core) + edge)[candidates]


def knn_shift_exhaustive(
    mag, target: int, candidates: Iterable[int], k: int, delta: int
) -> NeighborSet:
    """K best (frame, shift) pairs over all shifts in [-delta, delta].

    At most one shift per candidate frame survives (the best one), so a
    single frame cannot fill several neighbor slots with near-identical
    content. Ties break by ascending (distance, frame, shift); the target
    itself is excluded from the pool. ``delta=0`` is the baseline kernel.
    """
    data = _as_matrix(mag)
    cands = _candidate_array(candidates, target)
    if len(cands) < k:
        raise KernelError(
            f"need at least k={k} candidate frames, got {len(cands)} "
            "(one shift per frame is kept)"
        )
    target_col = data[:, target]
    best = np.full(len(cands), np.inf)
    best_shift = np.zeros(len(cands), dtype=int)
    for d in range(-delta, delta + 1):
        dist = _distances_at_shift(data, target_col, cands, d)
        better = dist < best
        best[better] = dist[better]
        best_shift[better] = d
    pairs = _top_k(best, cands, best_shift, k)
    return NeighborSet(target=int(target), neighbors=tuple(pairs))
