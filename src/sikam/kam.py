"""Kernel additive estimation of a dominant source from similar frames.

A kernel assigns to every processed frame a set of K neighbor frames believed
to contain the same source content; the per-bin median across the neighbors
is an outlier-resistant estimate of the source magnitude, which turns into a
soft mask on the complex spectrogram. The kernels differ only in how they
pick the (frame, shift) neighbors: the baseline and the exhaustive search
(:mod:`sikam.shiftkam`, the baseline being its zero-shift case) and the
specmurt searches (:mod:`sikam.specmurt`); estimation and masking are shared.
:func:`plan_neighbors` is the one entry point of the searches; it and
:func:`separation_masks` share the one check of a magnitude matrix, which
also fixes its working dtype: any real matrix is planned and masked as its
float64 copy. Above :data:`SPLIT_SEARCH_ENTRIES` the exhaustive search with
shifts runs on two threads, one half of the support each, to the same
neighbor sets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import shiftkam, specmurt
from .shiftkam import KernelError, shift_frame
from .timefreq import ComplexSpectrogram, _two_threads

VARIANTS = ("baseline", "shift_exhaustive", "specmurt", "specmurt_pruned")


# Targets x bins x frames from which the exhaustive search with shifts runs
# the two halves of the support on two threads. Means of plan times on a
# shared 2-core VM, one BLAS thread: an eval-grid scene (19-23 targets x 208
# x 194) took 9.1-10.1 ms on two threads against 7.5-8.0 ms on one, 20 s
# inputs (16 and 38 targets x 232 x 1,723) 32 against 51 ms and 55 against
# 93-98 ms. The baseline, one product with no shift, gained nothing at 20 s
# (3.2 against 3.3 ms, 2.4 against 2.2 ms), so it stays on one thread.
SPLIT_SEARCH_ENTRIES = 2**21


def _integer(name: str, value) -> int:
    """``value`` as an int; a float or any non-integer is a :class:`KernelError`."""
    try:
        return operator.index(value)
    except TypeError:
        raise KernelError(f"{name} must be an integer, got {value!r}") from None


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
        for name in ("k", "delta", "surplus"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        support = frozenset(_integer("support frame", t) for t in self.support)
        object.__setattr__(self, "support", support)
        if self.k < 1:
            raise KernelError("k must be >= 1")
        if self.delta < 0:
            raise KernelError("delta must be >= 0")
        if self.surplus < 0:
            raise KernelError("surplus must be >= 0")
        if self.variant not in VARIANTS:
            raise KernelError(f"unknown variant {self.variant!r}")


def _magnitudes(mag) -> np.ndarray:
    """``mag`` as a float64 array, if it is a 2-D matrix of finite nonnegative reals.

    Complex, string and object arrays are rejected before any comparison, so
    the search never plans on a real part or fails inside numpy. Every other
    real dtype is cast here, so no later step subtracts booleans, wraps an
    unsigned difference or rounds a mask to an integer or to float32.
    """
    data = np.asarray(mag)
    if (
        data.dtype.kind not in "biuf"
        or data.ndim != 2
        or not np.all((data >= 0) & (data < np.inf))
    ):
        raise KernelError("magnitudes must be a finite nonnegative 2-D matrix of reals")
    return data.astype(np.float64, copy=False)


def _medians(data: np.ndarray, frames: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per-bin median over each of n neighbor lists, honoring recorded shifts.

    Row i of the (n, K) ``frames`` and ``shifts`` holds the K (frame, shift)
    pairs of list i, K >= 1; column i of the (F, n) result is its estimate.
    The value contributed to output bin f by neighbor (frame, d) is the
    neighbor's magnitude at bin f + d, zero when out of range. With an even
    K the lower median (element ``(K-1)//2`` of the sorted values) is
    returned, which keeps the estimate inside the observed values.
    """
    stack = data[:, frames.ravel()]
    if shifts.any():
        stack = shift_frame(stack, shifts.ravel())
    kth = (frames.shape[1] - 1) // 2
    return np.partition(stack.reshape(len(data), *frames.shape), kth, axis=2)[:, :, kth]


@dataclass(frozen=True, eq=False)
class Plan:
    """The neighbors of every support frame.

    ``targets`` holds the support frames in ascending order, shape (n,).
    Row i of the (n, K) ``frames`` and ``shifts`` holds the K (frame, shift)
    neighbors of ``targets[i]``, closest first. A shift of d means the value
    used for output bin f is read from the neighbor's bin f + d, as
    :func:`shift_frame` shifts a column.
    """

    targets: np.ndarray
    frames: np.ndarray
    shifts: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def plan_neighbors(mag, config: SeparationConfig) -> Plan:
    """Neighbors of every support frame under the configured variant.

    Candidates are all frames outside the support. Before any search runs,
    raises :class:`KernelError` for a ``mag`` that is not 2-D or holds a NaN,
    an infinite or a negative entry, a specmurt variant on fewer than 2 bins,
    a ``config.delta`` above the bin count, a support frame outside ``[0, T)``
    and a pool short of k (plus surplus for the pruned variant) candidates.
    """
    data = _magnitudes(mag)
    n_bins, n_frames = data.shape
    if n_bins < 2 and config.variant.startswith("specmurt"):
        raise KernelError(f"specmurt needs at least 2 frequency bins, got {n_bins}")
    if config.delta > n_bins:
        raise KernelError(f"delta={config.delta} exceeds the {n_bins} frequency bins")
    support = np.array(sorted(config.support), dtype=int)
    if not len(support):
        return Plan(support, *np.zeros((2, 0, config.k), dtype=int))
    if support[0] < 0 or support[-1] >= n_frames:
        raise KernelError("support frame index out of range")
    candidates = np.setdiff1d(np.arange(n_frames), support)
    pool = len(candidates)
    surplus = config.surplus if config.variant == "specmurt_pruned" else 0
    for name, need in (("k", config.k), ("k+surplus", config.k + surplus)):
        if pool < need:
            raise KernelError(f"candidate pool ({pool} frames) smaller than {name}={need}")

    if config.variant in ("baseline", "shift_exhaustive"):
        delta = 0 if config.variant == "baseline" else config.delta

        def search(targets):
            return shiftkam._exhaustive_search(data, targets, candidates, config.k, delta)

        if delta and len(support) > 1 and len(support) * data.size >= SPLIT_SEARCH_ENTRIES:
            # The rounding margin takes the loudest of all frames, so each
            # half's neighbor sets are those of one search of the support.
            half = (len(support) + 1) // 2
            low, high = _two_threads(lambda: search(support[:half]), lambda: search(support[half:]))
            frames, shifts = np.concatenate([low, high], axis=1)
        else:
            frames, shifts = search(support)
    else:
        frames, shifts = specmurt._pruned_search(
            data, support, candidates, config.k, surplus, config.delta
        )
    return Plan(support, frames, shifts)


def separation_masks(mag, plan: Plan) -> np.ndarray:
    """Soft mask matrix for the source of interest: ones outside the support.

    ``plan`` comes from :func:`plan_neighbors` on ``mag`` or on a matrix of
    its shape (the CLI plans all channels once), and ``mag`` is checked as
    there. A support frame's mask is S / (N + S) with S its median estimate
    and N = max(X - S, 0), that is S / max(X, S): it lies in [0, 1], is 1
    where the estimate reaches the observed magnitude X and 0 where both
    vanish. The medians are taken one target at a time, so that no (F, n, K)
    stack of every target's neighbors is ever held.
    """
    data = _magnitudes(mag)
    est = np.empty((data.shape[0], len(plan)))
    for i, (frames, shifts) in enumerate(zip(plan.frames, plan.shifts)):
        est[:, i] = _medians(data, frames[None], shifts[None])[:, 0]
    denom = np.maximum(data[:, plan.targets], est)
    np.divide(est, denom, out=est, where=denom > 0)
    mask = np.ones_like(data)
    mask[:, plan.targets] = est
    return mask


def separate(
    spect: ComplexSpectrogram, config: SeparationConfig
) -> tuple[ComplexSpectrogram, ComplexSpectrogram]:
    """Split a spectrogram into source and interference estimates.

    Support frames get the variant's median estimate turned into a soft mask;
    all other frames pass through unchanged into the source. The
    interference is the input minus the source, as the CLI takes it. Raises
    :class:`KernelError` as :func:`plan_neighbors` does.
    """
    mag = np.abs(spect.data)
    mask = separation_masks(mag, plan_neighbors(mag, config))
    source = spect.with_data(spect.data * mask)
    return source, spect.with_data(spect.data - source.data)
