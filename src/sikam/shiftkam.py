"""Exhaustive shift-invariant neighbor search and the zero-padded shift.

Compares the target with every candidate frame at every shift in
``[-delta, delta]`` and keeps the best shift per frame. This makes notes of
the same source at different pitches usable as neighbors, at a cost that
grows linearly with the shift range. With ``delta=0`` it is the baseline
kernel: plain K nearest neighbors between whole magnitude frames.

All targets are searched together, in chunks of at most
:data:`CHUNK_ROWS`: one matrix product per shift gives approximate
distances of every frame to every target of a chunk, and a rounding margin
decides which (frame, shift) pairs need the exact distance, so the neighbor
sets are those of an exact per-shift comparison, written chunk by chunk
into one (2, targets, k) block. From :data:`SPLIT_ENTRIES` a search with
shifts runs on two threads without splitting any product: each thread
takes every other shift of a chunk. The same gate splits the targets of
the specmurt re-rank.

This module owns the search contract (:class:`KernelError`, the shift
primitive and this engine) that the other kernels import; from
:mod:`sikam` it imports only the thread helper of :mod:`sikam.timefreq`,
which imports nothing. The engine checks no input:
:func:`sikam.kam.plan_neighbors` does, before any search runs.
"""

from __future__ import annotations

import numpy as np

from .timefreq import _two_threads


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

# Most target rows the exhaustive search scans at a time; a support is cut
# into as few chunks, of sizes one row apart. A 60 s plan (430 targets x 232
# bins x 5,168 frames, delta 48, four chunks split by shifts) peaked at
# 55.6 MiB under tracemalloc, against 87.4 MiB for one array set of every
# target on one thread, in 2.04-2.06 against 1.92-2.06 s.
CHUNK_ROWS = 128

# Entries from which a search runs on two threads: targets x bins x frames
# for the exhaustive search with shifts, targets x pool columns x bins for
# the specmurt re-rank. Plan times per eval-grid scene (medians over its 16
# scenes; shared 2-core VM, one BLAS thread): shift_exhaustive (0.77-0.93 M
# entries) took 6.1-6.5 ms on two threads against 8.0 ms on one,
# specmurt_pruned's shared pools (0.68-0.84 M) 5.4-5.9 against 7.6-8.0 ms,
# but specmurt's pools of k (0.34-0.42 M) 5.9-6.5 against 5.5-5.7 ms, so
# the gate sits between. Criterion 7's calls stay below it: one target of
# 128 x 160, re-ranks of at most 147 k entries.
SPLIT_ENTRIES = 2**19

# Most product entries (shifts x targets x frames) a thread of a split search
# stacks. Below it a thread computes the products of all its shifts and
# reduces the stack at once, else it folds in one shift at a time: on
# eval-grid (at most 49 x 23 x 194 entries) stacking all took 6.1-6.5 ms per
# plan against 6.8-7.6 ms, and its shift_exhaustive cells in perfbench 17.2
# against 19.3 ms (medians of ten 40 s runs each, faster in 10 of 10); stacks
# of 4 shifts took 10.7-11.2 ms per plan, each stack costing a few fixed
# calls. A search on one thread never stacks, so its cost per shift stays
# what criterion 7 measures.
STACK_ENTRIES = 2**18


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


def _buffers(rows: int, n_frames: int, stack: int) -> tuple:
    """Empty arrays of one thread's :func:`_scan` of up to ``rows`` targets.

    Returns a (stack, rows, T) buffer of products and the (rows, T) best,
    runner and best_shift, then the scratch of one shift at a time (a float
    and a bool array) or, where ``stack`` > 1, of a stack (an int array).
    The float arrays are one block. glibc gives freed memory back to the
    system above twice the largest block freed so far, and a search whose
    arrays outgrow that faults in fresh pages on every call: a batched
    baseline search of 96 targets x 1,536 frames took 6.4 ms with the
    float arrays in three blocks and 3.7 ms in one.
    """
    shape = (rows, n_frames)
    floats = np.empty((stack + 2 + (stack == 1), *shape))
    products, best, runner = floats[:stack], floats[stack], floats[stack + 1]
    if stack == 1:
        scratch = [floats[3], np.empty(shape, dtype=bool)]
    else:
        scratch = [np.empty(shape, dtype=int)]
    return products, [best, runner, np.empty(shape, dtype=int), *scratch]


def _scan(data, cols, energy, dropped, shifts, products, state) -> None:
    """Fill the best, runner and best_shift of ``state`` over ``shifts``, in that order.

    ``cols`` holds -2 x each target column, one column per row of the
    (rows, T) outputs. At the i-th shift d the approximate distance of
    every frame to every target is one matrix product of the covered band,
    plus the frame energies, minus ``dropped[i]``, the energy of the bins
    the shift drops. Per (target, frame), best keeps the smallest, runner
    the second smallest (the smallest again where it is reached twice) and
    best_shift the first shift that reaches best. With one product buffer
    the shifts are folded in one at a time; with one per shift the stack is
    reduced at once, to the same arrays.
    """
    best, runner, best_shift, *scratch = state
    n_bins = data.shape[0]
    if len(products) == 1:
        (approx,), (second, mask) = products, scratch
        best.fill(np.inf)
        runner.fill(np.inf)
        for d, lost in zip(shifts, dropped):
            lo, hi = max(d, 0), n_bins + min(d, 0)
            np.matmul(cols[lo - d : hi - d].T, data[lo:hi], out=approx)
            approx += energy
            if d:  # the zero shift drops no bins
                approx -= lost
            np.maximum(best, approx, out=second)
            np.minimum(runner, second, out=runner)
            np.less(approx, best, out=mask)
            best_shift[mask] = d
            np.minimum(best, approx, out=best)
        return
    (index,) = scratch
    stack = products[: len(shifts)]
    for d, out in zip(shifts, stack):
        lo, hi = max(d, 0), n_bins + min(d, 0)
        np.matmul(cols[lo - d : hi - d].T, data[lo:hi], out=out)
    stack += energy
    stack -= dropped[:, None]  # a zero row leaves the zero shift's distances as they are
    # argmin and min take the first of equal values, as the fold does
    stack.argmin(axis=0, out=index)
    stack.min(axis=0, out=best)
    np.take(shifts, index, out=best_shift, mode="clip")  # every index is in range
    np.put_along_axis(stack, index[None], np.inf, axis=0)
    stack.min(axis=0, out=runner)


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
    of the two (targets, k) results, halves of one block that each chunk's
    :func:`_settle` fills in place, holds target i's neighbors, closest first.

    The targets are searched in chunks of at most :data:`CHUNK_ROWS`, so
    the working arrays stay (chunk, T) however long the support is. With
    shifts, from :data:`SPLIT_ENTRIES` targets x bins x frames, the search
    runs on two threads, each product still taking a whole chunk: for
    each chunk in turn each thread scans every other shift, and the two
    scans are merged exactly (:func:`_merge`).
    A thread whose products all fit in :data:`STACK_ENTRIES` stacks them
    and reduces the stack at once (:func:`_scan`).
    """
    targets = np.asarray(targets, dtype=int)
    n_bins, n_frames = data.shape
    energy = np.einsum("ij,ij->j", data, data)
    order = sorted(range(-delta, delta + 1), key=abs)
    # The energy of the bins each shift drops, row i for the shift order[i]:
    # running sums over the first d bins for d > 0, the last -d for d < 0.
    dropped = np.zeros((len(order), n_frames))
    if delta:
        for sums, bins in ((dropped[2::2], data[:delta]), (dropped[1::2], data[: -delta - 1 : -1])):
            np.square(bins, out=sums)
            np.add.accumulate(sums, out=sums)
    # m for every distance to target i, the loudest frame bounding the candidate energy
    margin = _MARGIN_PER_BIN * (n_bins + 3) * (energy.max() + energy[targets])
    margin += n_bins * _TINY
    # frames outside the pool, and every target itself, are no neighbors
    outside = np.ones(n_frames, dtype=bool)
    outside[cands] = False
    # as few chunks as CHUNK_ROWS allows, their sizes at most one row apart
    count = max(1, -(-len(targets) // CHUNK_ROWS))
    chunks = [slice(len(targets) * i // count, len(targets) * (i + 1) // count) for i in range(count)]
    rows = -(-len(targets) // count)
    split = delta > 0 and len(targets) * data.size >= SPLIT_ENTRIES
    # Every (rows, T) array either thread writes is allocated here, before
    # any worker starts. Where all of a thread's products fit in
    # STACK_ENTRIES it stacks them: each call into numpy hands the
    # interpreter lock to the other thread, and a stack takes a few calls
    # where one shift at a time takes eight per shift.
    stack = delta + 1 if split and (delta + 1) * rows * n_frames <= STACK_ENTRIES else 1
    buffers = [_buffers(rows, n_frames, stack) for _ in range(1 + split)]
    plan = np.empty((2, len(targets), k), dtype=int)
    for chunk in chunks:
        size = chunk.stop - chunk.start
        # -2 * target is exact, so each product is -2 * (band . target)
        cols = -2.0 * data[:, targets[chunk]]

        def scan(j: int, part: slice) -> list:
            """Thread j's best, runner, best_shift, ... over the shifts order[part]."""
            products, state = buffers[j]
            state = [a[:size] for a in state]
            _scan(data, cols, energy, dropped[part], order[part], products[:, :size], state)
            return state

        if split:
            # the caller scans the shifts 0, 1, 2, ... and the worker -1, -2, ...
            state, other = _two_threads(
                lambda: scan(0, slice(0, None, 2)), lambda: scan(1, slice(1, None, 2))
            )
            _merge(*state[:3], *other[:3])
        else:
            state = scan(0, slice(None))
        _settle(data, targets[chunk], outside, margin[chunk], *state[:3], plan[:, chunk], delta)
    return plan[0], plan[1]


def _merge(best, runner, best_shift, other_best, other_runner, other_shift) -> None:
    """Fold the scan of the shifts -1, -2, ... into that of 0, 1, 2, ..., in place.

    The bests are the smaller of the two; the runner-up is the smallest of
    both runners-up and the larger best; on equal bests the shift first in
    the |d| order 0, -1, 1, -2, 2, ... wins, which for -d against d' >= 0
    is -d where d <= d'. So the arrays are those of one scan of every
    shift, bit for bit.
    """
    take = other_best < best
    take |= (other_best == best) & (-other_shift <= best_shift)
    np.copyto(best_shift, other_shift, where=take)
    np.minimum(runner, other_runner, out=runner)
    np.minimum(runner, np.maximum(best, other_best), out=runner)
    np.minimum(best, other_best, out=best)


def _settle(data, targets, outside, margin, best, runner, best_shift, plan, delta: int) -> None:
    """Write the neighbor frames and shifts of ``targets`` from their scanned arrays.

    ``best``, ``runner`` and ``best_shift`` are :func:`_scan`'s (targets, T)
    outputs and ``margin`` the rounding margin of each target's distances;
    ``best`` is overwritten. ``plan`` is their rows of the (2, targets, k)
    block of frames and shifts that :func:`_exhaustive_search` returns.
    """
    short, shifts = plan
    k = short.shape[1]
    best[:, outside] = np.inf
    rows = np.arange(len(targets))[:, None]
    best[rows, targets[:, None]] = np.inf
    # every target's frames by ascending best; the first k are short-listed
    order = best.argsort(axis=1)
    short[:] = order[:, :k]
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
    shifts[:] = best_shift[rows, short]
    for i in unsettled.nonzero()[0].tolist():
        frames = (best[i] <= limit[i]).nonzero()[0]
        tied = runner[i, frames] - best[i, frames] <= gap[i]
        short[i], shifts[i] = _rescore(
            data, targets[i], frames, best_shift[i, frames], tied, k, delta
        )
