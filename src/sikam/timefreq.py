"""Invertible log-frequency time-frequency analysis.

The forward transform projects short-time frames onto a bank of windowed
complex exponentials whose center frequencies are geometrically spaced,
``f_min * 2**(k / bins_per_octave)``, so transposing a harmonic sound by an
integer number of bins translates its spectral pattern vertically. The
analysed samples are kept alongside the coefficients: resynthesis applies
the per-bin gains a mask made to a linear-frequency STFT of the changed
frames and their neighbours, and every other sample is the input sample.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass, field, replace

import numpy as np


class TransformError(ValueError):
    """Invalid parameters or inputs to the time-frequency transforms."""


# Largest kernel bank, n_bins x window_length entries: 256 MiB as complex128.
# The defaults use 232 x 4096 = 950,272.
MAX_KERNEL_ENTRIES = 2**24


@dataclass(frozen=True)
class TransformParams:
    """Parameters of the log-frequency transform.

    Attributes
    ----------
    sample_rate : float
        Sampling rate in Hz.
    bins_per_octave : int
        Number of geometrically spaced bins per octave.
    f_min : float
        Frequency of bin 0 in Hz; the band runs from it to the Nyquist
        frequency.
    hop : int
        Frame advance in samples.
    window_length : int
        Analysis/synthesis frame length in samples.
    window_policy : str
        "fixed" uses one window length for every bin; "per_bin" shortens the
        window of high bins so that bandwidth tracks ``alpha * f + gamma``.
    gamma : float
        Bandwidth offset in Hz, finite and non-negative; only used by the
        "per_bin" policy.
    """

    sample_rate: float = 44100.0
    bins_per_octave: int = 24
    f_min: float = 27.5
    hop: int = 512
    window_length: int = 4096
    window_policy: str = "fixed"
    gamma: float = 20.0

    def __post_init__(self):
        # false for NaN too
        if not 0.0 < self.sample_rate < np.inf:
            raise TransformError(f"sample_rate {self.sample_rate} is not positive and finite")
        for name in ("hop", "window_length"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise TransformError(f"{name} must be an integer, got {value!r}") from None
        if not 1 <= self.bins_per_octave < np.inf:
            raise TransformError("bins_per_octave must be finite and >= 1")
        if not 0.0 < self.f_min < self.sample_rate / 2.0:
            raise TransformError("need 0 < f_min < the Nyquist frequency")
        if self.hop < 1:
            raise TransformError("hop must be >= 1")
        if self.window_length < 2 * self.hop:
            raise TransformError("window_length must be at least twice the hop")
        if self.window_policy not in ("fixed", "per_bin"):
            raise TransformError(f"unknown window_policy {self.window_policy!r}")
        if not 0.0 <= self.gamma < np.inf:
            raise TransformError("gamma must be finite and >= 0")
        if self.n_bins * self.window_length > MAX_KERNEL_ENTRIES:
            raise TransformError(
                f"{self.n_bins} bins x window_length {self.window_length} exceeds "
                f"the kernel bound of {MAX_KERNEL_ENTRIES} entries"
            )

    @property
    def n_bins(self) -> int:
        """Number of log-frequency bins F."""
        return int(np.ceil(self.bins_per_octave * np.log2(self.sample_rate / 2.0 / self.f_min)))

    @property
    def bin_frequencies(self) -> np.ndarray:
        """Center frequency of every bin, in Hz."""
        k = np.arange(self.n_bins)
        return self.f_min * 2.0 ** (k / self.bins_per_octave)

    @property
    def n_linear_bins(self) -> int:
        return self.window_length // 2 + 1


@dataclass(frozen=True, eq=False)
class ComplexSpectrogram:
    """Complex log-frequency spectrogram of shape (F, T).

    Instances are immutable; masking produces a new instance via
    :meth:`with_data`. Spectrograms created by :func:`forward_logfreq` carry
    the analysed samples and the unmodified coefficients, which is what makes
    them invertible; hand-built instances cannot be resynthesized.
    """

    data: np.ndarray
    params: TransformParams
    _signal: np.ndarray | None = field(default=None, repr=False)
    _base: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray) -> "ComplexSpectrogram":
        """Return a copy pointing at ``data``, keeping the resynthesis state."""
        if data.shape != self.data.shape:
            raise TransformError(
                f"shape mismatch: got {data.shape}, expected {self.data.shape}"
            )
        return replace(self, data=data)


# Frames per block of each half of the forward transform: the fastest size at
# the defaults, and small beside the output of a long input (CHANGES.md,
# "Folded, blocked forward analysis"). The boundaries fix the coefficients'
# bits: a block of one frame rounds differently from the same frame in a
# longer block.
FORWARD_BLOCK = 256

# Kept frames per block of the inverse: the fastest size at the defaults
# (CHANGES.md, "Blocked resynthesis").
INVERSE_BLOCK = 16


def _kernel_bank(params: TransformParams) -> np.ndarray:
    """Bank of windowed complex exponentials, one row per log bin.

    Every taper is centred on the window centre ``(win - 1) / 2``, where the
    exponential's phase is referenced, so each row's real part is even and
    its imaginary part odd about that centre.
    """
    win = params.window_length
    sr = params.sample_rate
    freqs = params.bin_frequencies
    alpha = 2.0 ** (1.0 / params.bins_per_octave) - 1.0
    n = np.arange(win) - (win - 1) / 2.0
    kernel = np.zeros((params.n_bins, win), dtype=np.complex128)
    for k, fk in enumerate(freqs):
        if params.window_policy == "fixed":
            length = win
        else:
            target = 2.0 * sr / (alpha * fk + params.gamma)
            length = int(np.clip(round(target), 64, win))
            # The next length of the window's parity, so that the taper sits
            # on the centre and not half a sample off it.
            length += (win - length) % 2
        w = np.hanning(length)
        lo = (win - length) // 2
        taper = np.zeros(win)
        taper[lo : lo + length] = w
        kernel[k] = taper * np.exp(-2j * np.pi * fk * n / sr) / w.sum()
    return kernel


# One entry per cache: every program path uses one TransformParams, and the
# two halves of a folded bank may hold MAX_KERNEL_ENTRIES floats, 128 MiB.
@functools.lru_cache(maxsize=1)
def _analysis_kernel(params: TransformParams) -> tuple[np.ndarray, np.ndarray]:
    """The kernel bank folded about the window centre, as two (h, F) halves.

    With ``h = (win + 1) // 2`` the first half holds the real part of the
    first ``h`` taps, the centre tap of an odd window halved, and the second
    the imaginary part of the first ``win // 2`` taps. A frame ``f`` then
    has coefficients ``(f[:h] + f[::-1][:h]) @ cos_half`` plus ``1j`` times
    ``(f[:win//2] - f[::-1][:win//2]) @ sin_half``: the centre sample counts
    twice against a halved tap, and the odd part has no centre tap.
    """
    kernel = _kernel_bank(params)
    win = params.window_length
    cos_half = np.ascontiguousarray(kernel.real[:, : (win + 1) // 2].T)
    if win % 2:
        cos_half[-1] *= 0.5
    sin_half = np.ascontiguousarray(kernel.imag[:, : win // 2].T)
    for half in (cos_half, sin_half):  # cached and shared by every caller
        half.flags.writeable = False
    return cos_half, sin_half


@functools.lru_cache(maxsize=1)
def _mask_backmap(params: TransformParams) -> tuple[np.ndarray, ...]:
    """Two-tap map from per-log-bin gains to per-linear-bin gains.

    Returns ``(low, high, 1 - frac, frac)``, one entry per linear STFT bin:
    bin ``i`` takes ``gain[low[i]] * (1 - frac[i]) + gain[high[i]] * frac[i]``,
    the interpolation between the two log bins flanking its own
    log-frequency position. The weights sum to one, so a constant gain maps
    to the same constant and masked outputs stay complementary.
    """
    n_lin = params.n_linear_bins
    n_log = params.n_bins
    f_lin = np.arange(n_lin) * params.sample_rate / params.window_length
    with np.errstate(divide="ignore"):
        pos = params.bins_per_octave * np.log2(f_lin / params.f_min)
    pos[0] = 0.0
    pos = np.clip(pos, 0.0, n_log - 1.0)
    low = np.floor(pos).astype(int)
    low = np.minimum(low, n_log - 2) if n_log > 1 else low
    frac = pos - low
    maps = (low, np.minimum(low + 1, n_log - 1), 1.0 - frac, frac)
    for part in maps:  # cached and shared by every caller
        part.flags.writeable = False
    return maps


@functools.lru_cache(maxsize=1)
def _synthesis_window(params: TransformParams) -> tuple[np.ndarray, np.ndarray]:
    """The Hann window of the resynthesis and its square, both read-only."""
    window = np.hanning(params.window_length)
    parts = (window, window * window)
    for part in parts:  # cached and shared by every caller
        part.flags.writeable = False
    return parts


def _frame_view(signal: np.ndarray, params: TransformParams) -> np.ndarray:
    """Every frame as a (T, window) strided view of the signal, zero-padded
    once by half a window on each side so frame t is centred on ``t * hop``."""
    win, hop = params.window_length, params.hop
    pad = np.zeros(win // 2)
    padded = np.concatenate([pad, signal, pad])
    view = np.lib.stride_tricks.sliding_window_view(padded, win)
    return view[::hop][: n_frames_for(params, len(signal))]


def _project_half(fold, half, frames, folded, product, out) -> None:
    """One half of the forward transform: each block of FORWARD_BLOCK frames
    is folded about the window centre by ``fold`` (``np.add`` for the even
    part, ``np.subtract`` for the odd) into ``folded``, multiplied by the
    kernel ``half`` into ``product`` and copied into its rows of ``out``."""
    n_taps = half.shape[0]
    for start in range(0, len(frames), FORWARD_BLOCK):
        block = frames[start : start + FORWARD_BLOCK]
        rows = len(block)
        fold(block[:, :n_taps], block[:, ::-1][:, :n_taps], out=folded[:rows])
        np.matmul(folded[:rows], half, out=product[:rows])
        out[start : start + rows] = product[:rows]


def _two_threads(first, second) -> tuple:
    """Run ``second()`` on a worker thread and ``first()`` in the caller.

    Returns both results. The worker is joined before this returns, also
    when ``first`` raises, and an exception the worker raised is raised
    again here, in the caller. The forward transform, the neighbor searches
    and the CLI's back end split their work with it.
    """
    done, failure = [], []

    def run():
        try:
            done.append(second())
        except BaseException as exc:  # raised again below, in the caller
            failure.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        here = first()
    finally:
        worker.join()
    if failure:
        raise failure[0]
    return here, done[0]


def forward_logfreq(signal, params: TransformParams) -> ComplexSpectrogram:
    """Analyze a mono signal into a complex log-frequency spectrogram.

    Parameters
    ----------
    signal : array_like
        Mono sample sequence of finite real numbers (a bool, integer or
        float dtype: no complex part is dropped and no string parsed), at
        least one analysis window long.
    params : TransformParams

    Returns
    -------
    ComplexSpectrogram
        F x T complex matrix with one column per hop. A pure tone at the
        frequency of bin k peaks in bin k (within one bin).

    Each frame is folded about the window centre (see
    :func:`_analysis_kernel`), in blocks of :data:`FORWARD_BLOCK` frames; a
    worker thread computes the odd half (imaginary parts) while the caller
    computes the even half, to the bits of one thread doing both.
    """
    x = np.asarray(signal)
    if x.dtype.kind not in "biuf":
        raise TransformError(f"signal samples must be real numbers, got dtype {x.dtype}")
    x = np.array(x, dtype=np.float64)
    if x.ndim != 1:
        raise TransformError("signal must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise TransformError(
            f"signal holds {np.count_nonzero(~np.isfinite(x))} non-finite "
            "samples (NaN or infinity)"
        )
    if len(x) < params.window_length:
        raise TransformError(
            f"signal too short: {len(x)} samples, need >= {params.window_length}"
        )
    cos_half, sin_half = _analysis_kernel(params)
    frames = _frame_view(x, params)
    # Both halves' buffers are allocated here, before the output: the heap
    # layout this leaves decides whether later large arrays find a hole, and
    # so a stereo run's peak RSS (CHANGES.md, "Analysis on two cores").
    rows, n_bins = min(FORWARD_BLOCK, len(frames)), params.n_bins
    even = (np.add, cos_half, frames, np.empty((rows, len(cos_half))), np.empty((rows, n_bins)))
    odd = (np.subtract, sin_half, frames, np.empty((rows, len(sin_half))), np.empty((rows, n_bins)))
    coeffs = np.empty((len(frames), n_bins), dtype=np.complex128)
    _two_threads(
        lambda: _project_half(*even, coeffs.real), lambda: _project_half(*odd, coeffs.imag)
    )
    log_data = coeffs.T
    return ComplexSpectrogram(
        data=log_data,
        params=params,
        _signal=x,
        _base=log_data,
    )


def _covered(starts: np.ndarray, length: int, size: int) -> np.ndarray:
    """Boolean mask over ``range(size)`` of the union of [s, s + length)."""
    edges = np.zeros(size + 1, dtype=int)
    np.add.at(edges, np.clip(starts, 0, size), 1)
    np.add.at(edges, np.clip(starts + length, 0, size), -1)
    return np.cumsum(edges[:-1]) > 0


def _copy_into(out: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """``x`` copied into ``out``, or into a new array where ``out`` is None."""
    if out is None:
        return x.copy()
    out[...] = x
    return out


def inverse_logfreq(spect: ComplexSpectrogram, out: np.ndarray | None = None) -> np.ndarray:
    """Resynthesize a (possibly masked) spectrogram back to samples.

    The per-bin ratio between the current coefficients and the coefficients
    recorded at analysis time is interpreted as a gain, mapped back onto the
    linear-frequency grid, applied to the STFT of the analysed samples, and
    overlap-added. Only frames whose coefficients differ from the recorded
    ones, and the frames overlapping them, are resynthesized, in ascending
    blocks of :data:`INVERSE_BLOCK` frames; every sample outside the changed
    frames is returned as analysed. An unmodified spectrogram therefore
    inverts to its input exactly. Raises :class:`TransformError` for a NaN
    or infinite coefficient.

    With ``out``, a float64 array of the signal's shape (a column of a
    multichannel array, say), the samples are written there and ``out`` is
    returned; no array the length of the signal is allocated.
    """
    if spect._signal is None or spect._base is None:
        raise TransformError(
            "spectrogram lacks resynthesis state; only spectrograms produced "
            "by forward_logfreq (or masked copies of them) can be inverted"
        )
    if spect.data.shape != spect._base.shape:
        raise TransformError("data/params mismatch in spectrogram")
    if spect.data.shape[0] != spect.params.n_bins:
        raise TransformError("data/params mismatch in spectrogram")
    params, x = spect.params, spect._signal
    if out is not None and (out.dtype != np.float64 or out.shape != x.shape):
        raise TransformError(f"out must be float64 of shape {x.shape}")
    win, hop = params.window_length, params.hop
    changed = np.flatnonzero(np.any(spect.data != spect._base, axis=0))
    # the recorded coefficients are finite, so a NaN or inf one lies in a changed column
    if not np.isfinite(spect.data[:, changed]).all():
        raise TransformError("spectrogram holds non-finite coefficients")
    if len(changed) == 0:
        return _copy_into(out, x)
    # Every frame sharing a sample with a changed frame, in ascending order.
    reach = -(-win // hop) - 1
    frames = np.flatnonzero(_covered(changed - reach, 2 * reach + 1, spect.n_frames))
    low, high, w_low, w_high = _mask_backmap(params)
    window, wsq = _synthesis_window(params)
    # The samples from the first kept frame's start to the last one's end,
    # zero-padded past the ends of the signal as the analysis pads it: frame
    # t is row t - frames[0] of the stretch, and acc[0] is sample offset.
    offset = frames[0] * hop - win // 2
    size = (frames[-1] - frames[0]) * hop + win
    lo, hi = max(offset, 0), min(offset + size, len(x))
    padded = np.zeros(size)
    padded[lo - offset : hi - offset] = x[lo:hi]
    stretch = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop]
    acc = np.zeros(size)
    den = np.zeros_like(acc)
    for start in range(0, len(frames), INVERSE_BLOCK):
        block = frames[start : start + INVERSE_BLOCK]
        # One row per frame: the recorded coefficients are (T, F) rows in memory.
        base = spect._base.T[block]
        ratio = np.zeros_like(base)
        np.divide(spect.data.T[block], base, out=ratio, where=base != 0)
        lin_gain = ratio[:, low] * w_low + ratio[:, high] * w_high
        lin = np.fft.rfft(stretch[block - frames[0]] * window, axis=1)
        # numpy's complex product is not commutative to the bit: keep the gain first
        segs = np.fft.irfft(lin_gain * lin, n=win, axis=1)
        for seg, t in zip(segs, block.tolist()):
            s = (t - frames[0]) * hop
            acc[s : s + win] += window * seg
            den[s : s + win] += wsq
    del padded, stretch  # the padded copy goes before the output is allocated
    # The samples the changed frames cover get every overlapping frame. For
    # every hop phase the kept frames also hold a sample that all its frames
    # cover, so den.max() and the floor equal those of a full overlap-add.
    # The floor turns a zero window sum (the last sample when win == 2 * hop
    # and hop divides the length) into 0 instead of NaN.
    np.divide(acc, np.maximum(den, den.max() * 1e-12, out=den), out=acc)
    cover = _covered((changed - frames[0]) * hop, win, len(acc))
    y = _copy_into(out, x)
    np.copyto(y[lo:hi], acc[lo - offset : hi - offset], where=cover[lo - offset : hi - offset])
    return y


def n_frames_for(params: TransformParams, n_samples: int) -> int:
    """Number of frames :func:`forward_logfreq` yields for a signal length."""
    return 1 + (n_samples - 1) // params.hop


def frames_overlapping_samples(
    params: TransformParams, n_frames: int, start: int, end: int
) -> np.ndarray:
    """Indices of frames whose nonzero window taps overlap samples [start, end).

    The Hann window is zero at its first and last tap, so a frame sees the
    sample range ``[center - win/2 + 1, center + win/2 - 1]``.
    """
    if end <= start:
        return np.array([], dtype=int)
    win, hop = params.window_length, params.hop
    centers = np.arange(n_frames) * hop
    seen_lo = centers - win // 2 + 1
    seen_hi = centers + win // 2 - 1
    hit = (seen_hi >= start) & (seen_lo < end)
    return np.nonzero(hit)[0]


def frames_overlapping(
    params: TransformParams, n_frames: int, start_sec: float, end_sec: float
) -> np.ndarray:
    """Like :func:`frames_overlapping_samples` but with a seconds extent."""
    sr = params.sample_rate
    return frames_overlapping_samples(
        params, n_frames, int(round(start_sec * sr)), int(round(end_sec * sr))
    )
