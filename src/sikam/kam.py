"""Kernel additive estimation of a dominant source from similar frames.

A kernel assigns to every processed frame a set of K neighbor frames believed
to contain the same source content; the per-bin median across the neighbors
is an outlier-resistant estimate of the source magnitude, which turns into a
soft mask on the complex spectrogram. The kernels differ only in how they
pick the (frame, shift) neighbors: the baseline and the exhaustive search
(:mod:`sikam.shiftkam`, the baseline being its zero-shift case) and the
specmurt searches (:mod:`sikam.specmurt`); estimation and masking are shared.
:func:`plan_neighbors` is the one entry point of the searches; it and
:func:`support_gains` share the one check of a magnitude matrix, which
also fixes its working dtype: any real matrix is planned and masked as its
float64 copy. Each search decides on its own whether to run on two threads
(:data:`sikam.shiftkam.SPLIT_ENTRIES`), to the same neighbor sets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import shiftkam, specmurt
from .shiftkam import KernelError, shift_frame
from .timefreq import ComplexSpectrogram

VARIANTS = ("baseline", "shift_exhaustive", "specmurt", "specmurt_pruned")


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

    @property
    def surplus_used(self) -> int:
        """The P each pool holds beyond k: ``surplus`` for the pruned variant, else 0."""
        return self.surplus if self.variant == "specmurt_pruned" else 0


# Largest-entry exponents left unscaled: within them no search sum overflows below
# 2**223 bins, and the loudest frames' energies and eps**2 stay normal.
UNSCALED_EXPONENTS = 64


def _magnitudes(mag) -> np.ndarray:
    """``mag`` as a float64 array, if it is a 2-D matrix of finite nonnegative reals.

    Complex, string and object arrays are rejected before any comparison, so
    the search never plans on a real part or fails inside numpy. Every other
    real dtype is cast here, so no later step subtracts booleans, wraps an
    unsigned difference or rounds a mask to an integer or to float32.

    When the largest entry's binary exponent lies outside
    ±:data:`UNSCALED_EXPONENTS`, the matrix is scaled by the power of two that
    brings that entry into [0.5, 1). That is exact and changes no plan or mask:
    distances, energies and margins scale by a power of four, mask ratios not
    at all. Inside the window the float64 data are returned uncopied.
    """
    data = np.asarray(mag)
    if (
        data.dtype.kind not in "biuf"
        or data.ndim != 2
        or not (data.min(initial=0) >= 0 and (high := float(data.max(initial=0))) < np.inf)
    ):
        raise KernelError("magnitudes must be a finite nonnegative 2-D matrix of reals")
    data = data.astype(np.float64, copy=False)
    exponent = int(np.frexp(high)[1])
    return data if abs(exponent) <= UNSCALED_EXPONENTS else np.ldexp(data, -exponent)


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
    surplus = config.surplus_used
    for name, need in (("k", config.k), ("k+surplus", config.k + surplus)):
        if pool < need:
            raise KernelError(f"candidate pool ({pool} frames) smaller than {name}={need}")

    if config.variant in ("baseline", "shift_exhaustive"):
        delta = 0 if config.variant == "baseline" else config.delta
        frames, shifts = shiftkam._exhaustive_search(data, support, candidates, config.k, delta)
    else:
        frames, shifts = specmurt._pruned_search(
            data, support, candidates, config.k, surplus, config.delta
        )
    return Plan(support, frames, shifts)


def support_gains(mag, plan: Plan) -> np.ndarray:
    """The (F, n) soft mask of the support frames, column i that of ``plan.targets[i]``.

    ``plan`` comes from :func:`plan_neighbors` on ``mag`` or on a matrix of
    its shape (the CLI plans all channels once), and ``mag`` is checked as
    there. A support frame's gain is S / (N + S) with S its median estimate
    and N = max(X - S, 0), that is S / max(X, S): it lies in [0, 1], is 1
    where the estimate reaches the observed magnitude X and 0 where both
    vanish. The medians are taken one target at a time, so that no (F, n, K)
    stack of every target's neighbors is ever held, nor any (F, T) array
    but the check's float64 copy of another dtype or scale.
    """
    data = _magnitudes(mag)
    gains = np.empty((data.shape[0], len(plan)))
    for i, (frames, shifts) in enumerate(zip(plan.frames, plan.shifts)):
        gains[:, i] = _medians(data, frames[None], shifts[None])[:, 0]
    denom = np.maximum(data[:, plan.targets], gains)
    np.divide(gains, denom, out=gains, where=denom > 0)
    return gains


def separation_masks(mag, plan: Plan) -> np.ndarray:
    """Soft mask matrix of ``mag``: :func:`support_gains` at the support frames, ones elsewhere."""
    gains = support_gains(mag, plan)
    mask = np.ones_like(mag, dtype=np.float64)  # in mag's memory order, as the product with it
    mask[:, plan.targets] = gains
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
