"""Accelerated shift-invariant search in the specmurt domain.

The specmurt representation of a log-frequency magnitude frame is the
modulus of the frame's Fourier transform: circularly shifting the frame (a
pitch transposition) leaves it unchanged, so frame similarity can be scored
without enumerating shifts. The shift itself is recovered afterwards by a
fast deconvolution between the two magnitude columns, and an optional
pruning stage re-ranks an oversampled pool by true aligned distance.

All targets are searched together: their pools are the baseline search of
:mod:`sikam.shiftkam` run once on the specmurt matrix, and the inverse DFT
of every pooled frame is taken once and shared by all deconvolutions. The
one-target functions are cases of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kam import KernelError, NeighborSet, _as_matrix, _candidate_array, _neighbor_set, _top_k
from .shiftkam import _exhaustive_search, shift_frame


@dataclass(frozen=True)
class ShiftEstimate:
    """Result of the deconvolution-based shift search.

    ``delta`` is the shift to feed :func:`sikam.shiftkam.shift_frame` so that
    the candidate aligns with the target; ``peak_ratio`` compares the winning
    deconvolution peak to the runner-up and is reported for diagnostics.
    """

    delta: int
    peak_value: float
    peak_ratio: float


def specmurt_matrix(mag, drop_head: int = 1) -> np.ndarray:
    """Specmurt coefficients of every nonnegative column, shape (half-F, T).

    Column t holds the moduli of the DFT of magnitude frame t from index
    ``drop_head`` up to the half length (real-input symmetry makes the rest
    redundant). Index 0 is the DC term, so the default of one drops it.
    """
    data = _as_matrix(mag)
    if np.any(data < 0):
        raise KernelError("magnitudes must be nonnegative")
    half = data.shape[0] // 2 + 1
    if drop_head < 0 or drop_head >= half:
        raise KernelError(f"drop_head={drop_head} out of range for half length {half}")
    return np.abs(np.fft.rfft(data, axis=0))[drop_head:half]


def knn_specmurt(
    mag,
    target: int,
    candidates: Iterable[int],
    count: int,
    drop_head: int = 1,
    spec: np.ndarray | None = None,
) -> np.ndarray:
    """``count`` candidate frames closest to the target in the specmurt domain.

    Returns frame indices only, closest first; shifts are assigned later.
    ``spec`` may carry a precomputed :func:`specmurt_matrix` to avoid
    recomputation. This is the one-target case of the baseline search on the
    specmurt matrix that the pruned search runs for all targets at once.
    """
    data = _as_matrix(mag)
    cands = _candidate_array(candidates, target)
    if len(cands) < count:
        raise KernelError(f"need at least {count} candidates, got {len(cands)}")
    if spec is None:
        spec = specmurt_matrix(data, drop_head)
    return _exhaustive_search(spec, [target], cands, count, 0)[0][0]


def _inverse_spectra(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse DFT ``v`` of each column, one row per column, and ``|v|^2 + eps^2``.

    ``eps`` is one per column; the power is squared in the modulus's buffer.
    """
    v = np.fft.ifft(cols.T, axis=1)
    power = np.abs(v)
    eps = 1e-8 * power.max(axis=1)
    power **= 2
    power += eps[:, None] ** 2
    return v, power


def _deconvolve(u: np.ndarray, v: np.ndarray, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``y = h * z`` (circular) for ``h`` against several columns ``z``.

    ``u`` is the inverse DFT of ``y`` and ``v``, ``power`` the rows
    :func:`_inverse_spectra` gives for the columns; ``v`` is overwritten
    by ``u * conj(v) / power``. Returns the shift per column that aligns it
    to ``y`` through :func:`shift_frame`, in ``[-n/2, n/2)``, and the
    (columns, n) matrix of ``|h|``.
    """
    n = len(u)
    np.conjugate(v, out=v)
    np.multiply(u, v, out=v)
    np.divide(v, power, out=v)
    mags = np.abs(np.fft.fft(v, axis=1))
    # h peaks at the negated displacement of z relative to y; negate it so
    # that shift_frame(z, delta) lines z up with y.
    delta = (n // 2 - np.argmax(mags, axis=1)) % n - n // 2
    return delta, mags


def estimate_shift_deconv(y: np.ndarray, z: np.ndarray) -> ShiftEstimate:
    """Relative frequency shift between two columns via fast deconvolution.

    The one-column case of the pruned search's deconvolution: the shift is
    read off the peak of ``|h|`` for ``y = h * z``. The returned delta aligns
    ``z`` to ``y`` through ``shift_frame(z, delta)`` and lies in
    ``[-n/2, n/2)``.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.shape != z.shape or y.ndim != 1:
        raise KernelError("inputs must be one-dimensional and equal length")
    if not np.any(y):
        raise KernelError("target column is all zero")
    if not np.any(z):
        raise KernelError("candidate column is all zero")
    v, power = _inverse_spectra(np.stack([y, z], axis=1))
    delta, mags = _deconvolve(v[0], v[1:], power[1:])
    top = np.sort(mags[0])[::-1]
    peak = float(top[0])
    second = float(top[1]) if len(top) > 1 else 0.0
    ratio = peak / second if second > 0 else float("inf")
    return ShiftEstimate(delta=int(delta[0]), peak_value=peak, peak_ratio=ratio)


def _pruned_search(data, spec, targets, cands, k: int, surplus: int, max_shift: int, clamp=True):
    """Neighbor frames and shifts of every target, as two (targets, k) arrays.

    The pools of k + surplus frames come from one baseline search on
    ``spec``, the :func:`specmurt_matrix` of ``data``, and the inverse
    spectra of the targets and of every pooled frame are taken once; each
    target then divides and transforms back only its own live pool columns
    (a silent target or column keeps shift 0). Callers make sure each
    target keeps at least k + surplus candidates.
    """
    targets = np.asarray(targets, dtype=int)
    pools = _exhaustive_search(spec, targets, cands, k + surplus, 0)[0]
    used = np.union1d(pools, targets)
    v, power = _inverse_spectra(data[:, used])
    live = np.any(data, axis=0)
    found = np.empty((2, len(targets), k), dtype=int)
    for i, (target, frames) in enumerate(zip(targets, pools)):
        shifts = np.zeros(len(frames), dtype=int)
        if live[target]:
            on = np.searchsorted(used, frames[live[frames]])
            u = v[np.searchsorted(used, target)]
            shifts[live[frames]] = _deconvolve(u, v[on], power[on])[0]
        if clamp:
            shifts = np.clip(shifts, -max_shift, max_shift)
        # One row per pool frame; the batched row dot products are the same
        # sums as np.dot on each column, so distances match a per-frame loop.
        diff = np.ascontiguousarray((shift_frame(data[:, frames], shifts) - data[:, [target]]).T)
        dists = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
        found[:, i] = _top_k(dists, frames, shifts, k)
    return found[0], found[1]


def knn_specmurt_pruned(
    mag,
    target: int,
    candidates: Iterable[int],
    k: int,
    surplus: int,
    max_shift: int,
    drop_head: int = 1,
    clamp: bool = True,
) -> NeighborSet:
    """Accelerated shift-invariant kernel with optional pruning.

    Pipeline: pick ``k + surplus`` frames by specmurt similarity, estimate
    one shift per frame by deconvolution (clamped to ``[-max_shift,
    max_shift]`` unless ``clamp`` is off), then keep the ``k`` frames whose
    aligned columns are closest to the target in the time-frequency domain.
    With ``surplus=0`` the last step only re-ranks, matching the plain
    accelerated variant. This is the one-target case of the search
    :func:`kam.plan_neighbors` runs for all support frames at once.
    """
    data = _as_matrix(mag)
    cands = _candidate_array(candidates, target)
    if len(cands) < k + surplus:
        raise KernelError(f"need at least {k + surplus} candidates, got {len(cands)}")
    spec = specmurt_matrix(data, drop_head)
    frames, shifts = _pruned_search(data, spec, [target], cands, k, surplus, max_shift, clamp)
    return _neighbor_set(target, frames[0], shifts[0])
