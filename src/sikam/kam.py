"""Kernel additive estimation of a dominant source from similar frames.

A kernel assigns to every processed frame a set of K neighbor frames believed
to contain the same source content; the per-bin median across the neighbors
is an outlier-resistant estimate of the source magnitude, which turns into a
soft mask on the complex spectrogram. The kernels differ only in how they
pick the (frame, shift) neighbors: the baseline and the exhaustive search
(:mod:`sikam.shiftkam`, the baseline being its zero-shift case) and the
specmurt searches (:mod:`sikam.specmurt`); estimation and masking are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .timefreq import ComplexSpectrogram

VARIANTS = ("baseline", "shift_exhaustive", "specmurt", "specmurt_pruned")


class KernelError(ValueError):
    """Raised for invalid kernel inputs (for example a candidate pool < K)."""


@dataclass(frozen=True)
class NeighborSet:
    """Neighbors of one target frame: (frame, shift) pairs, length K.

    A shift of d means the value used for output bin f is read from the
    neighbor's bin f + d (content moves down by d bins for positive d).
    """

    target: int
    neighbors: tuple[tuple[int, int], ...]

    @property
    def frames(self) -> np.ndarray:
        return np.array([f for f, _ in self.neighbors], dtype=int)

    @property
    def shifts(self) -> np.ndarray:
        return np.array([s for _, s in self.neighbors], dtype=int)

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True)
class SeparationConfig:
    """Settings of one separation run.

    Attributes
    ----------
    k : int
        Number of neighbors per processed frame.
    delta : int
        Maximum admissible frequency shift in bins (shift variants).
    surplus : int or None
        Extra pool size P for the pruned variant; defaults to 2 * k.
    variant : str
        One of "baseline", "shift_exhaustive", "specmurt", "specmurt_pruned".
    support : frozenset[int]
        Frame indices containing the interference; only these are processed,
        and they are excluded from every candidate pool.
    """

    k: int = 300
    delta: int = 48
    surplus: int | None = None
    variant: str = "baseline"
    support: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.surplus is None:
            object.__setattr__(self, "surplus", 2 * self.k)
        object.__setattr__(self, "support", frozenset(int(t) for t in self.support))
        if self.k < 1:
            raise KernelError("k must be >= 1")
        if self.delta < 0:
            raise KernelError("delta must be >= 0")
        if self.surplus < 0:
            raise KernelError("surplus must be >= 0")
        if self.variant not in VARIANTS:
            raise KernelError(f"unknown variant {self.variant!r}")


def _as_matrix(mag) -> np.ndarray:
    data = np.asarray(mag)
    if data.ndim != 2:
        raise KernelError("magnitude input must be a 2-D matrix")
    return data


def _candidate_array(candidates, target: int) -> np.ndarray:
    """Sorted, deduplicated candidate frames with the target removed."""
    if isinstance(candidates, np.ndarray):
        cands = candidates.astype(int, copy=False)
    else:
        cands = np.fromiter((int(c) for c in candidates), dtype=int)
    cands = np.unique(cands)
    return cands[cands != target]


def _top_k(
    distances: np.ndarray, frames: np.ndarray, shifts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frames and shifts of the K smallest by (distance, frame, shift) order."""
    order = np.lexsort((shifts, frames, distances))[:k]
    return frames[order], shifts[order]


def _neighbor_set(target: int, frames: np.ndarray, shifts: np.ndarray) -> NeighborSet:
    return NeighborSet(target=int(target), neighbors=tuple(zip(frames.tolist(), shifts.tolist())))


def median_estimate(mag, nset: NeighborSet) -> np.ndarray:
    """Per-bin median over the neighbor values, honoring recorded shifts.

    The value contributed to output bin f by neighbor (frame, d) is the
    neighbor's magnitude at bin f + d, zero when out of range. With an even
    neighbor count the lower median (element ``(K-1)//2`` of the sorted
    values) is returned, which keeps the estimate inside the observed values.
    """
    from .shiftkam import shift_frame

    if len(nset) == 0:
        raise KernelError("empty neighbor set")
    data = _as_matrix(mag)
    stack = shift_frame(data[:, nset.frames], nset.shifts)
    kth = (len(nset) - 1) // 2
    return np.partition(stack, kth, axis=1)[:, kth]


def build_soft_mask(s_est, x_mag) -> np.ndarray:
    """Soft mask S / (N + S) with N = max(X - S, 0); zero where both vanish.

    Entries lie in [0, 1], and equal exactly 1 wherever the estimate reaches
    or exceeds the observed magnitude (and is itself nonzero).
    """
    s = np.asarray(s_est, dtype=np.float64)
    x = np.asarray(x_mag, dtype=np.float64)
    if s.shape != x.shape:
        raise KernelError(f"shape mismatch: {s.shape} vs {x.shape}")
    if np.any(s < 0) or np.any(x < 0):
        raise KernelError("magnitudes must be nonnegative")
    # mask = S / (max(X - S, 0) + S) = S / max(X, S), with 0/0 -> 0
    denom = np.maximum(x, s)
    mask = np.zeros_like(denom)
    np.divide(s, denom, out=mask, where=denom > 0)
    return mask


def plan_neighbors(mag, config: SeparationConfig) -> dict[int, NeighborSet]:
    """Neighbor sets for every support frame under the configured variant.

    Candidates are all frames outside the support. Raises
    :class:`KernelError` when the pool cannot supply k (plus surplus for the
    pruned variant) candidates, or when ``config.delta`` exceeds the number
    of frequency bins.
    """
    from . import shiftkam, specmurt

    data = _as_matrix(mag)
    n_bins, n_frames = data.shape
    if config.delta > n_bins:
        raise KernelError(f"delta={config.delta} exceeds the {n_bins} frequency bins")
    support = sorted(t for t in config.support)
    if not support:
        return {}
    if support[0] < 0 or support[-1] >= n_frames:
        raise KernelError("support frame index out of range")
    candidates = np.setdiff1d(np.arange(n_frames), np.array(support, dtype=int))
    pool = len(candidates)
    if pool < config.k:
        raise KernelError(
            f"candidate pool ({pool} frames) smaller than k={config.k}"
        )
    if config.variant == "specmurt_pruned" and pool < config.k + config.surplus:
        raise KernelError(
            f"candidate pool ({pool} frames) smaller than k+surplus="
            f"{config.k + config.surplus}"
        )

    if config.variant in ("baseline", "shift_exhaustive"):
        delta = 0 if config.variant == "baseline" else config.delta
        frames, shifts = shiftkam._exhaustive_search(data, support, candidates, config.k, delta)
    else:
        surplus = config.surplus if config.variant == "specmurt_pruned" else 0
        spec = specmurt.specmurt_matrix(data)
        frames, shifts = specmurt._pruned_search(
            data, spec, support, candidates, config.k, surplus, config.delta
        )
    return {t: _neighbor_set(t, f, s) for t, f, s in zip(support, frames, shifts)}


def separation_masks(mag, config: SeparationConfig, plans=None) -> np.ndarray:
    """Soft mask matrix for the source of interest: ones outside the support."""
    data = _as_matrix(mag)
    if plans is None:
        plans = plan_neighbors(data, config)
    frames = list(plans)
    est = np.empty((data.shape[0], len(frames)))
    for i, t in enumerate(frames):
        est[:, i] = median_estimate(data, plans[t])
    mask = np.ones_like(data)
    mask[:, frames] = build_soft_mask(est, data[:, frames])
    return mask


def separate(
    spect: ComplexSpectrogram, config: SeparationConfig
) -> tuple[ComplexSpectrogram, ComplexSpectrogram]:
    """Split a spectrogram into source and interference estimates.

    Support frames get the variant's median estimate turned into a soft mask;
    all other frames pass through unchanged into the source. The two outputs
    use complementary masks, so they sum to the input exactly.
    """
    mag = np.abs(spect.data)
    mask = separation_masks(mag, config)
    source = spect.with_data(spect.data * mask)
    interference = spect.with_data(spect.data * (1.0 - mask))
    return source, interference
