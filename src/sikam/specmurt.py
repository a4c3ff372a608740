"""Accelerated shift-invariant search in the specmurt domain.

The specmurt representation of a log-frequency magnitude frame is the
modulus of the frame's Fourier transform: circularly shifting the frame (a
pitch transposition) leaves it unchanged, so frame similarity can be scored
without enumerating shifts. The shift itself is recovered afterwards by a
fast deconvolution between the two magnitude columns, and an optional
pruning stage re-ranks an oversampled pool by true aligned distance.

All targets are searched together: their pools are the baseline search of
:mod:`sikam.shiftkam` run once on the specmurt matrix. The conjugated real
half-spectrum of every pooled frame and the reciprocal of its power are
taken once and shared by all deconvolutions, as is one zero-padded copy of
the pooled frames that the re-rank reads its shifted columns from; above
:data:`SPLIT_POOL_ENTRIES` two threads each deconvolve and score one half
of every pool's columns, to the same bits. That search is the one place
the deconvolution runs. It and
:func:`specmurt_matrix` check no input: :func:`sikam.kam.plan_neighbors`
does, before any search runs.
"""

from __future__ import annotations

import numpy as np

from .shiftkam import (
    _exhaustive_search,
    _shift_windows,
    _top_k,
    shift_frame,  # the primitive every returned shift is defined for; no call here
)
from .timefreq import _two_threads

# Pool columns x bins from which each target's pool is scored in two halves,
# one per thread. Means of plan times on a shared 2-core VM, one BLAS thread:
# an eval-grid scene's pools of 85-87 x 208 took 7.8 ms on two threads against
# 6.1 ms on one, and of 171-175 x 208 about as long (9.1-10.7 against
# 10.5-11.5 ms); a 20 s melody's pools of 300 and 900 x 232 took 30 against
# 41 ms and 77 against 113 ms.
SPLIT_POOL_ENTRIES = 2**16


def specmurt_matrix(mag) -> np.ndarray:
    """Specmurt coefficients of every column of an (F, T) matrix, shape (F // 2, T).

    Column t holds the moduli of the DFT of magnitude frame t from index 1
    up to the half length: index 0, the DC term, is dropped, and real-input
    symmetry makes the rest redundant. The plain transform: the input is
    not checked, and a 1-bin matrix gives no rows.
    """
    return np.abs(np.fft.rfft(mag, axis=0))[1:]


def _inverse_spectra(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate ``conj(v)`` of each column's real half-spectrum ``v``, one row
    per column, and ``1 / (|v|^2 + eps^2)``.

    ``v`` is the ``rfft`` of the column, bins 0 to n // 2. ``eps`` is one per
    column, 1e-8 of its largest ``|v|``, which the half-spectrum holds as the
    whole one does; the power is squared and inverted in the modulus's
    buffer. A silent column gets ``eps = 1``, so its quotient, its ``|h|``
    and its lag are 0.
    """
    v = np.fft.rfft(cols.T, axis=1)
    power = np.abs(v)
    eps = 1e-8 * power.max(axis=1)
    eps[eps == 0] = 1.0
    power **= 2
    power += eps[:, None] ** 2
    np.reciprocal(power, out=power)
    # C order, so that a row's real and imaginary parts can be viewed as
    # pairs of floats; rfft along the rows of a transposed matrix is not.
    return np.conjugate(v, order="C"), power


def _deconvolve(
    w: np.ndarray, v: np.ndarray, inv_power: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``y = h * z`` (circular) for ``h`` against several columns ``z`` of n bins.

    ``w`` is the row :func:`_inverse_spectra` gives for ``y``, so
    ``conj(w)`` is the real half-spectrum ``u`` of ``y``, and ``v``,
    ``inv_power`` the C-ordered rows it gives for the columns. ``v`` is
    overwritten by ``u * v * inv_power``, the quotient ``u * conj(v_z) /
    power`` that is half of a Hermitian spectrum whose inverse ``h`` is
    real. Scaling each (real, imaginary) pair by ``inv_power`` rounds as
    that division does: numpy divides by a complex number with no imaginary
    part as a product with the reciprocal of its real part. n is passed
    because an odd and an even length can have half-spectra of one size.
    Returns the shift per column that aligns it to ``y`` through
    :func:`shift_frame`, in ``[-n/2, n/2)``, and the (columns, n) matrix of
    ``|h|``.
    """
    np.multiply(np.conjugate(w), v, out=v)
    pairs = v.view(np.float64).reshape(*v.shape, 2)
    pairs *= inv_power[..., None]
    mags = np.fft.irfft(v, n, axis=1)
    np.abs(mags, out=mags)
    # h peaks at the negated displacement of z relative to y; negate it so
    # that shift_frame(z, delta) lines z up with y.
    delta = (n // 2 - np.argmax(mags, axis=1)) % n - n // 2
    return delta, mags


def _pruned_search(data, targets, cands, k: int, surplus: int, max_shift: int):
    """Neighbor frames and shifts of every target, as two (targets, k) arrays.

    The pools of k + surplus frames come from one baseline search on the
    :func:`specmurt_matrix` of ``data``. The half-spectra of the targets
    and of every pooled frame are taken once, and so is one zero-padded
    copy of those frames with every shift in ``[-max_shift, max_shift]`` as
    a view. Each target then divides and transforms back its pool columns
    (a silent target or column gets shift 0), clamps the shifts to
    ``[-max_shift, max_shift]``, gathers its aligned columns from that view
    and scores them against the target; a pool of at least
    :data:`SPLIT_POOL_ENTRIES` columns x bins is scored in two halves of
    columns, one per thread, each column to the same bits. Each target
    keeps the k closest; with ``surplus=0`` that only re-ranks the pool
    (the ``specmurt`` variant). Callers make sure k >= 1 and that each
    target keeps at least k + surplus candidates.
    """
    targets = np.asarray(targets, dtype=int)
    n_bins = data.shape[0]
    pools = _exhaustive_search(specmurt_matrix(data), targets, cands, k + surplus, 0)[0]
    # Only the pooled frames are transformed: spectra of every frame would
    # be taken before the pool search and outlive it, which raised a 120 s,
    # 38-target plan's tracemalloc peak from 37.9 to 64.9 MB.
    used = np.union1d(pools, targets)
    cols = data[:, used]
    v, inv_power = _inverse_spectra(cols)
    windows = _shift_windows(cols.T, max_shift)
    at, target_rows = np.searchsorted(used, pools), v[np.searchsorted(used, targets)]
    shifts = np.empty(pools.shape, dtype=int)
    dists = np.empty(pools.shape)

    def rerank(part: slice) -> None:
        for i, target in enumerate(targets.tolist()):
            here = at[i, part]
            lags = _deconvolve(target_rows[i], v[here], inv_power[here], n_bins)[0]
            lags = np.clip(lags, -max_shift, max_shift)
            # One C-ordered row per pool frame, the values shift_frame gives;
            # the batched row dot products are the same sums as np.dot on
            # each row, so distances match a per-frame loop.
            diff = windows[here, max_shift + lags]
            diff -= data[:, target]
            dists[i, part] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
            shifts[i, part] = lags

    if pools.shape[1] * n_bins >= SPLIT_POOL_ENTRIES:
        half = (pools.shape[1] + 1) // 2
        _two_threads(lambda: rerank(slice(half)), lambda: rerank(slice(half, None)))
    else:
        rerank(slice(None))
    found = np.empty((2, len(targets), k), dtype=int)
    for i, frames in enumerate(pools):
        found[:, i] = _top_k(dists[i], frames, shifts[i], k)
    return found[0], found[1]
