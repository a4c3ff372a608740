"""Accelerated shift-invariant search in the specmurt domain.

The specmurt representation of a log-frequency magnitude frame is the
modulus of the frame's Fourier transform: circularly shifting the frame (a
pitch transposition) leaves it unchanged, so frame similarity can be scored
without enumerating shifts. The shift itself is recovered afterwards by a
fast deconvolution between the two magnitude columns, and an optional
pruning stage re-ranks an oversampled pool by true aligned distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kam import KernelError, NeighborSet, _as_matrix, _candidate_array, _top_k
from .shiftkam import shift_frame


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

    Returns frame indices only; shifts are assigned later. ``spec`` may carry
    a precomputed :func:`specmurt_matrix` to avoid recomputation.
    """
    data = _as_matrix(mag)
    cands = _candidate_array(candidates, target)
    if len(cands) < count:
        raise KernelError(f"need at least {count} candidates, got {len(cands)}")
    if spec is None:
        spec = specmurt_matrix(data, drop_head)
    diff = spec - spec[:, target][:, None]
    dist = np.einsum("ij,ij->j", diff, diff)[cands]
    order = np.lexsort((cands, dist))[:count]
    return cands[order]


def _deconvolve(y: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deconvolve the target ``y`` against every column of ``zs`` at once.

    Solves ``y = h * z`` (circular convolution) for ``h`` in the Fourier
    domain with a regularized division, one ``eps`` per column. Returns the
    shift per column that aligns it to ``y`` through :func:`shift_frame`, in
    ``[-n/2, n/2)``, and the (n, columns) matrix of ``|h|``.
    """
    n = len(y)
    u = np.fft.ifft(y)
    v = np.fft.ifft(zs, axis=0)
    eps = 1e-8 * np.abs(v).max(axis=0)
    mags = np.abs(np.fft.fft(u[:, None] * np.conj(v) / (np.abs(v) ** 2 + eps**2), axis=0))
    # h peaks at the negated displacement of z relative to y; negate it so
    # that shift_frame(z, delta) lines z up with y.
    delta = (n // 2 - np.argmax(mags, axis=0)) % n - n // 2
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
    delta, mags = _deconvolve(y, z[:, None])
    top = np.sort(mags[:, 0])[::-1]
    peak = float(top[0])
    second = float(top[1]) if len(top) > 1 else 0.0
    ratio = peak / second if second > 0 else float("inf")
    return ShiftEstimate(delta=int(delta[0]), peak_value=peak, peak_ratio=ratio)


def knn_specmurt_pruned(
    mag,
    target: int,
    candidates: Iterable[int],
    k: int,
    surplus: int,
    max_shift: int,
    drop_head: int = 1,
    clamp: bool = True,
    spec: np.ndarray | None = None,
) -> NeighborSet:
    """Accelerated shift-invariant kernel with optional pruning.

    Pipeline: pick ``k + surplus`` frames by specmurt similarity, estimate
    one shift per frame by deconvolution (clamped to ``[-max_shift,
    max_shift]`` unless ``clamp`` is off), then keep the ``k`` frames whose
    aligned columns are closest to the target in the time-frequency domain.
    With ``surplus=0`` the last step only re-ranks, matching the plain
    accelerated variant.
    """
    data = _as_matrix(mag)
    pool = knn_specmurt(data, target, candidates, k + surplus, drop_head, spec)
    target_col = data[:, target]
    cols = data[:, pool]
    shifts = np.zeros(len(pool), dtype=int)
    if np.any(target_col):
        # A silent column carries no shift information: it keeps shift 0.
        live = np.flatnonzero(np.any(cols, axis=0))
        shifts[live] = _deconvolve(target_col, cols[:, live])[0]
    if clamp:
        shifts = np.clip(shifts, -max_shift, max_shift)
    # One row per pool frame; the batched row dot products are the same sums
    # as np.dot on each column, so distances match a per-frame loop exactly.
    diff = np.ascontiguousarray((shift_frame(cols, shifts) - target_col[:, None]).T)
    dists = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    pairs = _top_k(dists, pool, shifts, k)
    return NeighborSet(target=int(target), neighbors=tuple(pairs))
