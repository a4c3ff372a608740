"""Accelerated shift-invariant search in the specmurt domain.

The specmurt representation of a log-frequency magnitude frame is the
modulus of the frame's Fourier transform: circularly shifting the frame (a
pitch transposition) leaves it unchanged, so frame similarity can be scored
without enumerating shifts. The shift itself is recovered afterwards by a
fast deconvolution between the two magnitude columns, and an optional
pruning stage re-ranks an oversampled pool by true aligned distance.

All targets are searched together: their pools are the baseline search of
:mod:`sikam.shiftkam` run once on the specmurt matrix, unless a pool is to
hold every candidate. Then the candidates are the one pool every target
shares, and neither the matrix nor that search is computed; the kept
neighbors are ordered by (distance, frame, shift), so the plans are those
of the searched pools. The conjugated real half-spectrum of every pooled
frame and the reciprocal of its power are taken once and shared by all
deconvolutions, as is one zero-padded copy of the pooled frames that the
re-rank reads its shifted columns from; a shared pool's rows are gathered
once for all targets. From :data:`sikam.shiftkam.SPLIT_ENTRIES` targets x
pool columns x bins, two threads each deconvolve and score one half of the
targets, whole pools each, to the same bits. That search is the one place
the deconvolution runs. It and :func:`specmurt_matrix` check no input:
:func:`sikam.kam.plan_neighbors` does, before any search runs.
"""

from __future__ import annotations

import numpy as np

from . import shiftkam
from .shiftkam import (
    _exhaustive_search,
    _shift_windows,
    _top_k,
    shift_frame,  # the primitive every returned shift is defined for; no call here
)
from .timefreq import _two_threads


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
    # C order, so that gathering a pool copies whole contiguous rows; rfft
    # along the rows of a transposed matrix leaves them strided.
    return np.conjugate(v, order="C"), power


def _deconvolve(
    w: np.ndarray, v: np.ndarray, inv_power: np.ndarray, n: int, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``y = h * z`` (circular) for ``h`` against several columns ``z`` of n bins.

    ``w`` is the row :func:`_inverse_spectra` gives for ``y``, so
    ``conj(w)`` is the real half-spectrum ``u`` of ``y``, and ``v``,
    ``inv_power`` the rows it gives for the columns. ``out``, a complex
    array of ``v``'s shape that may be ``v`` itself, is overwritten by
    ``u * v * inv_power``, the quotient ``u * conj(v_z) / power`` that is
    half of a Hermitian spectrum whose inverse ``h`` is real; ``v`` is left
    as it was unless it is ``out``. Scaling the real and the imaginary parts
    by ``inv_power`` rounds as that division does, but for the sign of a
    zero part, which ``|h|`` does not see: numpy divides by a complex number
    with no imaginary part as a product with the reciprocal of its real
    part, after adding a zero product to each part. n is passed because an
    odd and an even length can have half-spectra of one size. Returns the
    shift per column that aligns it to ``y`` through :func:`shift_frame`,
    in ``[-n/2, n/2)``, and the (columns, n) matrix of ``|h|``.
    """
    np.multiply(np.conjugate(w), v, out=out)
    out.real *= inv_power
    out.imag *= inv_power
    mags = np.fft.irfft(out, n, axis=1)
    np.abs(mags, out=mags)
    # h peaks at the negated displacement of z relative to y; negate it so
    # that shift_frame(z, delta) lines z up with y.
    delta = (n // 2 - np.argmax(mags, axis=1)) % n - n // 2
    return delta, mags


def _pruned_search(data, targets, cands, k: int, surplus: int, max_shift: int):
    """Neighbor frames and shifts of every target, as two (targets, k) arrays.

    The pools of k + surplus frames come from one baseline search on the
    :func:`specmurt_matrix` of ``data``, unless k + surplus is every
    candidate: then ``cands`` is the one pool every target shares, and
    neither the matrix nor that search is computed. The half-spectra of the
    targets and of every pooled frame are taken once, and so is one
    zero-padded copy of those frames with every shift in ``[-max_shift,
    max_shift]`` as a view. Each target then divides and transforms back
    its pool columns (a silent target or column gets shift 0), clamps the
    shifts to ``[-max_shift, max_shift]``, gathers its aligned columns from
    that view and scores them against the target; a shared pool's rows are
    gathered once for all targets. Two targets or more, of at least
    :data:`sikam.shiftkam.SPLIT_ENTRIES` targets x pool columns x bins, are
    re-ranked in two halves of targets, one per thread, each target's pool
    whole and to the same bits. Each target
    keeps the k closest by (distance, frame, shift), an order that does not
    depend on the pool's; with ``surplus=0`` that only re-ranks the pool
    (the ``specmurt`` variant). Callers make sure k >= 1 and that each
    target keeps at least k + surplus candidates, so a shared pool holds no
    target.
    """
    targets = np.asarray(targets, dtype=int)
    n_bins = data.shape[0]
    if k + surplus == len(cands):
        pools = np.asarray(cands)[None]
    else:
        pools = _exhaustive_search(specmurt_matrix(data), targets, cands, k + surplus, 0)[0]
    # Only the pooled frames are transformed: spectra of every frame would
    # be taken before the pool search and outlive it, which raised a 120 s,
    # 38-target plan's tracemalloc peak from 37.9 to 64.9 MB.
    used = np.union1d(pools, targets)
    cols = data[:, used]
    v, inv_power = _inverse_spectra(cols)
    windows = _shift_windows(cols.T, max_shift)
    at, target_rows = np.searchsorted(used, pools), v[np.searchsorted(used, targets)]
    shifts = np.empty((len(targets), pools.shape[1]), dtype=int)
    dists = np.empty(shifts.shape)
    split = len(targets) > 1 and shifts.size * n_bins >= shiftkam.SPLIT_ENTRIES
    shared = len(at) == 1
    # The buffers a thread reuses from target to target are allocated here,
    # before any worker starts: one pool's quotients per thread and, where
    # every target has a pool of its own, that pool's reciprocal powers. A
    # shared pool's rows are gathered once, here.
    quotients = np.empty((1 + split, at.shape[1], v.shape[1]), dtype=v.dtype)
    if shared:
        spectra = [(v[at[0]], inv_power[at[0]])] * (1 + split)
    else:
        spectra = list(zip(quotients, np.empty(quotients.shape)))

    def rerank(rows: range, out: np.ndarray, pool_v: np.ndarray, pool_inv: np.ndarray) -> None:
        for i in rows:
            here = at[0 if shared else i]
            if not shared:
                # A target's own pool is gathered into out and divided in
                # place; "clip" lets take write into out unbuffered (every
                # index is in range).
                np.take(v, here, axis=0, out=pool_v, mode="clip")
                np.take(inv_power, here, axis=0, out=pool_inv, mode="clip")
            lags = _deconvolve(target_rows[i], pool_v, pool_inv, n_bins, out)[0]
            lags = np.clip(lags, -max_shift, max_shift)
            # One C-ordered row per pool frame, the values shift_frame gives;
            # the batched row dot products are the same sums as np.dot on
            # each row, so distances match a per-frame loop.
            diff = windows[here, max_shift + lags]
            diff -= data[:, targets[i]]
            dists[i] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
            shifts[i] = lags

    if split:
        half = (len(targets) + 1) // 2
        _two_threads(
            lambda: rerank(range(half), quotients[0], *spectra[0]),
            lambda: rerank(range(half, len(targets)), quotients[1], *spectra[1]),
        )
    else:
        rerank(range(len(targets)), quotients[0], *spectra[0])
    found = np.empty((2, len(targets), k), dtype=int)
    for i, frames in enumerate(np.broadcast_to(pools, shifts.shape)):
        found[:, i] = _top_k(dists[i], frames, shifts[i], k)
    return found[0], found[1]
