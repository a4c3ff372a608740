"""Invertible log-frequency time-frequency analysis.

The forward transform projects short-time frames onto a bank of windowed
complex exponentials whose center frequencies are geometrically spaced,
``f_min * 2**(k / bins_per_octave)``, so transposing a harmonic sound by an
integer number of bins translates its spectral pattern vertically. A plain
linear-frequency STFT of the same frames is kept alongside the log-domain
coefficients; resynthesis derives per-bin gains in the log domain, maps them
back onto the linear grid through a sparse interpolation matrix, and runs
weighted overlap-add. The unmodified round trip is therefore exact up to
floating point, and masked spectrograms resynthesize through the same path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse


class TransformError(ValueError):
    """Invalid parameters or inputs to the time-frequency transforms."""


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
        Frequency of bin 0 in Hz.
    f_max : float or None
        Upper edge of the analyzed band; defaults to the Nyquist frequency.
    hop : int
        Frame advance in samples.
    window_length : int
        Analysis/synthesis frame length in samples.
    window_policy : str
        "fixed" uses one window length for every bin; "per_bin" shortens the
        window of high bins so that bandwidth tracks ``alpha * f + gamma``.
    gamma : float
        Bandwidth offset in Hz, only used by the "per_bin" policy.
    """

    sample_rate: float = 44100.0
    bins_per_octave: int = 24
    f_min: float = 27.5
    f_max: float | None = None
    hop: int = 512
    window_length: int = 4096
    window_policy: str = "fixed"
    gamma: float = 20.0

    def __post_init__(self):
        if self.f_max is None:
            object.__setattr__(self, "f_max", self.sample_rate / 2.0)
        if self.sample_rate <= 0:
            raise TransformError("sample_rate must be positive")
        if self.bins_per_octave < 1:
            raise TransformError("bins_per_octave must be >= 1")
        if not 0.0 < self.f_min < self.f_max:
            raise TransformError("need 0 < f_min < f_max")
        if self.f_max > self.sample_rate / 2.0 + 1e-9:
            raise TransformError("f_max exceeds the Nyquist frequency")
        if self.hop < 1:
            raise TransformError("hop must be >= 1")
        if self.window_length < 2 * self.hop:
            raise TransformError("window_length must be at least twice the hop")
        if self.window_policy not in ("fixed", "per_bin"):
            raise TransformError(f"unknown window_policy {self.window_policy!r}")

    @property
    def n_bins(self) -> int:
        """Number of log-frequency bins F."""
        return int(np.ceil(self.bins_per_octave * np.log2(self.f_max / self.f_min)))

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
    the linear-frequency STFT of the same frames, which is what makes them
    invertible; hand-built instances cannot be resynthesized.
    """

    data: np.ndarray
    params: TransformParams
    frame_times: np.ndarray
    _linear: np.ndarray | None = field(default=None, repr=False)
    _base: np.ndarray | None = field(default=None, repr=False)
    _n_samples: int = field(default=0, repr=False)

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


@functools.lru_cache(maxsize=8)
def _analysis_kernel(params: TransformParams) -> np.ndarray:
    """Bank of windowed complex exponentials, one row per log bin."""
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
        w = np.hanning(length)
        lo = (win - length) // 2
        taper = np.zeros(win)
        taper[lo : lo + length] = w
        kernel[k] = taper * np.exp(-2j * np.pi * fk * n / sr) / w.sum()
    return kernel


@functools.lru_cache(maxsize=8)
def _mask_backmap(params: TransformParams) -> scipy.sparse.csr_matrix:
    """Sparse map from per-log-bin gains to per-linear-bin gains.

    Every linear STFT bin interpolates the gains of the two log bins flanking
    its own log-frequency position; rows sum to one, so a constant gain maps
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
    rows = np.concatenate([np.arange(n_lin), np.arange(n_lin)])
    cols = np.concatenate([low, np.minimum(low + 1, n_log - 1)])
    vals = np.concatenate([1.0 - frac, frac])
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n_lin, n_log))
    return mat


def _frame_matrix(signal: np.ndarray, params: TransformParams) -> np.ndarray:
    """Centered, zero-padded frames as a (T, window) matrix."""
    win, hop = params.window_length, params.hop
    padded = np.concatenate(
        [np.zeros(win // 2), signal, np.zeros(win // 2)]
    )
    n_frames = 1 + (len(signal) - 1) // hop
    view = np.lib.stride_tricks.sliding_window_view(padded, win)
    starts = np.arange(n_frames) * hop
    return np.ascontiguousarray(view[starts])


def forward_logfreq(signal, params: TransformParams) -> ComplexSpectrogram:
    """Analyze a mono signal into a complex log-frequency spectrogram.

    Parameters
    ----------
    signal : array_like
        Mono sample sequence of finite values, at least one analysis window
        long.
    params : TransformParams

    Returns
    -------
    ComplexSpectrogram
        F x T complex matrix with one column per hop. A pure tone at the
        frequency of bin k peaks in bin k (within one bin).
    """
    x = np.asarray(signal, dtype=np.float64)
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
    frames = _frame_matrix(x, params)
    kernel = _analysis_kernel(params)
    log_data = (frames @ kernel.real.T + 1j * (frames @ kernel.imag.T)).T
    w = np.hanning(params.window_length)
    linear = np.fft.rfft(frames * w, axis=1).T
    frame_times = np.arange(frames.shape[0]) * params.hop / params.sample_rate
    return ComplexSpectrogram(
        data=log_data,
        params=params,
        frame_times=frame_times,
        _linear=linear,
        _base=log_data,
        _n_samples=len(x),
    )


def _overlap_add(lin: np.ndarray, params: TransformParams, n_samples: int) -> np.ndarray:
    win, hop = params.window_length, params.hop
    w = np.hanning(win)
    frames = np.fft.irfft(lin, n=win, axis=0)
    n_frames = lin.shape[1]
    length = (n_frames - 1) * hop + win
    acc = np.zeros(length)
    den = np.zeros(length)
    wsq = w * w
    for t in range(n_frames):
        s = t * hop
        acc[s : s + win] += w * frames[:, t]
        den[s : s + win] += wsq
    floor = den.max() * 1e-12
    y = acc / np.maximum(den, floor)
    pad = win // 2
    return y[pad : pad + n_samples]


def inverse_logfreq(spect: ComplexSpectrogram) -> np.ndarray:
    """Resynthesize a (possibly masked) spectrogram back to samples.

    The per-bin ratio between the current coefficients and the coefficients
    recorded at analysis time is interpreted as a gain, mapped back onto the
    linear-frequency grid, applied to the retained STFT, and overlap-added.
    For an unmodified spectrogram every ratio is one and the reconstruction
    is exact up to floating point.
    """
    if spect._linear is None or spect._base is None:
        raise TransformError(
            "spectrogram lacks resynthesis state; only spectrograms produced "
            "by forward_logfreq (or masked copies of them) can be inverted"
        )
    if spect.data.shape != spect._base.shape:
        raise TransformError("data/params mismatch in spectrogram")
    if spect.data.shape[0] != spect.params.n_bins:
        raise TransformError("data/params mismatch in spectrogram")
    ratio = np.zeros_like(spect.data)
    np.divide(spect.data, spect._base, out=ratio, where=spect._base != 0)
    lin_gain = _mask_backmap(spect.params) @ ratio
    return _overlap_add(lin_gain * spect._linear, spect.params, spect._n_samples)


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
