import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from conftest import SMALL_PARAMS
from sikam import timefreq as tf


def sine(freq, duration, sr, amp=1.0):
    t = np.arange(int(duration * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def harmonic(f0, duration, sr, n_partials=8):
    t = np.arange(int(duration * sr)) / sr
    x = np.zeros_like(t)
    for k in range(1, n_partials + 1):
        if k * f0 < sr / 2:
            x += np.sin(2 * np.pi * k * f0 * t + 0.37 * k) / k
    return x


DEFAULT = tf.TransformParams()


class TestParams:
    def test_n_bins_formula(self):
        p = tf.TransformParams()
        assert p.n_bins == int(np.ceil(24 * np.log2((44100 / 2) / 27.5)))

    def test_bin_frequencies_geometric(self):
        p = tf.TransformParams()
        f = p.bin_frequencies
        np.testing.assert_allclose(f[24] / f[0], 2.0, rtol=1e-12)
        assert f[0] == 27.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f_min=0.0),
            dict(f_min=-1.0),
            dict(f_min=30000.0),
            dict(bins_per_octave=0),
            dict(hop=0),
            dict(hop=4096),
            dict(window_policy="wat"),
            dict(gamma=np.nan),
            dict(gamma=np.inf),
            dict(gamma=-1.0),
            # kernel banks of 23,154 x 4096 and 232 x 441,000 entries, over the bound
            dict(bins_per_octave=2400),
            dict(window_length=441000),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(tf.TransformError):
            tf.TransformParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample_rate=np.inf),
            dict(sample_rate=np.nan),
            dict(sample_rate=0.0),
            dict(hop=256.5),
            dict(window_length=2048.5),
            dict(bins_per_octave=np.nan),
            dict(bins_per_octave=np.inf),
        ],
    )
    def test_bad_setting_named(self, kwargs):
        # Each is named, not left to fail later: a non-finite rate or
        # bins_per_octave inside n_bins (a NaN rate as if f_min were wrong),
        # a fractional hop or window inside forward_logfreq.
        (name,) = kwargs
        with pytest.raises(tf.TransformError, match=f"^{name} "):
            tf.TransformParams(**kwargs)


class TestForward:
    def test_tone_at_f_min_peaks_in_bin_zero(self):
        x = sine(27.5, 1.0, 44100)
        spect = tf.forward_logfreq(x, DEFAULT)
        argmax = np.argmax(np.abs(spect.data), axis=0)
        assert np.all(argmax <= 1)

    def test_tone_one_octave_up_peaks_at_bins_per_octave(self):
        x = sine(55.0, 1.0, 44100)
        spect = tf.forward_logfreq(x, DEFAULT)
        argmax = np.argmax(np.abs(spect.data), axis=0)
        assert np.all(np.abs(argmax - 24) <= 1)

    def test_zero_signal_zero_spectrogram(self):
        spect = tf.forward_logfreq(np.zeros(8192), DEFAULT)
        assert not np.any(spect.data)

    def test_too_short_signal_rejected(self):
        with pytest.raises(tf.TransformError):
            tf.forward_logfreq(np.zeros(100), DEFAULT)

    def test_non_mono_rejected(self):
        with pytest.raises(tf.TransformError):
            tf.forward_logfreq(np.zeros((8192, 2)), DEFAULT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, small_params, bad):
        x = np.zeros(4000)
        x[1234] = bad
        with pytest.raises(tf.TransformError, match="non-finite"):
            tf.forward_logfreq(x, small_params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.complex128, np.str_, object])
    def test_non_real_signal_rejected(self, small_params, dtype):
        # the same finite real values, held in a dtype that is not real
        x = np.zeros(4000).astype(dtype)
        with pytest.raises(tf.TransformError, match="real numbers"):
            tf.forward_logfreq(x, small_params)

    def test_linearity(self, small_params, rng):
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        a, b = 0.7, -1.9
        sx = tf.forward_logfreq(x, small_params).data
        sy = tf.forward_logfreq(y, small_params).data
        sxy = tf.forward_logfreq(a * x + b * y, small_params).data
        err = np.abs(sxy - (a * sx + b * sy)).max()
        assert err <= 1e-6 * np.abs(sxy).max()

    def test_octave_homomorphism(self):
        spect_lo = tf.forward_logfreq(sine(220.0, 0.5, 44100), DEFAULT)
        spect_hi = tf.forward_logfreq(sine(440.0, 0.5, 44100), DEFAULT)
        mid = spect_lo.n_frames // 2
        lo = np.argmax(np.abs(spect_lo.data[:, mid]))
        hi = np.argmax(np.abs(spect_hi.data[:, mid]))
        assert abs((hi - lo) - 24) <= 1

    def test_no_linear_stft_kept(self):
        spect = tf.forward_logfreq(np.zeros(44100), DEFAULT)
        full = DEFAULT.n_linear_bins * spect.n_frames
        for f in dataclasses.fields(spect):
            value = getattr(spect, f.name)
            if isinstance(value, np.ndarray):
                assert value.size < full, f.name


PARAMS_ODD_WINDOW = tf.TransformParams(
    sample_rate=8000.0, bins_per_octave=12, f_min=40.0, hop=96, window_length=501
)
FOLD_PARAMS = {
    "fixed": DEFAULT,
    "per_bin": tf.TransformParams(window_policy="per_bin"),
    "hop-not-dividing-window": tf.TransformParams(
        sample_rate=8000.0, bins_per_octave=12, f_min=40.0, hop=96, window_length=500
    ),
    "odd-window": PARAMS_ODD_WINDOW,
    "odd-window-per_bin": dataclasses.replace(PARAMS_ODD_WINDOW, window_policy="per_bin"),
}


class TestFoldedForward:
    """The forward transform folds each frame about the window centre and
    runs in blocks of frames; it must equal the dense product of the whole
    frame matrix with the kernel bank."""

    @pytest.mark.parametrize("params", FOLD_PARAMS.values(), ids=FOLD_PARAMS.keys())
    def test_kernel_rows_are_even_and_odd(self, params):
        kernel = tf._kernel_bank(params)
        assert np.array_equal(kernel.real, kernel.real[:, ::-1])
        assert np.array_equal(kernel.imag, -kernel.imag[:, ::-1])

    @pytest.mark.parametrize("params", FOLD_PARAMS.values(), ids=FOLD_PARAMS.keys())
    @pytest.mark.parametrize(
        "frame_count",
        [
            lambda params, block: tf.n_frames_for(params, params.window_length),
            lambda params, block: block - 1,
            lambda params, block: block,
            lambda params, block: block + 1,
            lambda params, block: 2 * block,
        ],
        ids=["shortest", "block-1", "block", "block+1", "two-blocks"],
    )
    def test_matches_dense_reference(self, params, frame_count, rng):
        frames = frame_count(params, tf.FORWARD_BLOCK)
        n = (frames - 1) * params.hop + 1 + int(rng.integers(params.hop))
        x = rng.standard_normal(max(n, params.window_length))
        spect = tf.forward_logfreq(x, params)
        assert spect.n_frames == frames
        dense = (tf._frame_view(x, params) @ tf._kernel_bank(params).T).T
        assert np.abs(spect.data - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_peak_memory_grows_with_the_output_not_the_frames(self, rng):
        # Doubling the input may add the output columns and the copies of
        # the signal (kept and padded), never a frame matrix of T x window.
        params = DEFAULT
        tf.forward_logfreq(np.zeros(params.window_length), params)  # fills the kernel cache
        peaks, lengths = [], [3 * tf.FORWARD_BLOCK * params.hop, 6 * tf.FORWARD_BLOCK * params.hop]
        for n in lengths:
            x = rng.standard_normal(n)
            tracemalloc.start()
            try:
                tf.forward_logfreq(x, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        more_samples = lengths[1] - lengths[0]
        more_frames = tf.n_frames_for(params, lengths[1]) - tf.n_frames_for(params, lengths[0])
        per_frame = params.n_bins * 16 + 8  # a complex column and its frame time
        allowed = more_frames * per_frame + 2 * more_samples * 8 + 2**20  # 1 MiB of slack
        assert peaks[1] - peaks[0] <= allowed
        assert more_frames * params.window_length * 8 > allowed


def one_thread_forward(x, params):
    """The folded forward transform computed by this thread alone, block by
    block as :func:`tf.forward_logfreq` does, as a (T, F) complex array."""
    cos_half, sin_half = tf._analysis_kernel(params)
    frames = tf._frame_view(x, params)
    coeffs = np.empty((len(frames), params.n_bins), dtype=np.complex128)
    n_even, n_odd = len(cos_half), len(sin_half)
    for start in range(0, len(frames), tf.FORWARD_BLOCK):
        block = frames[start : start + tf.FORWARD_BLOCK]
        mirrored = block[:, ::-1]
        stop = start + len(block)
        coeffs.real[start:stop] = (block[:, :n_even] + mirrored[:, :n_even]) @ cos_half
        coeffs.imag[start:stop] = (block[:, :n_odd] - mirrored[:, :n_odd]) @ sin_half
    return coeffs


class TestTwoThreadForward:
    """A second thread computes the odd half of the forward transform; the
    coefficients must be those of one thread doing both halves, bit for bit."""

    @pytest.mark.parametrize("sample_rate", [8000.0, 44100.0])
    @pytest.mark.parametrize(
        "frames",
        [tf.FORWARD_BLOCK - 1, tf.FORWARD_BLOCK, tf.FORWARD_BLOCK + 1, 2 * tf.FORWARD_BLOCK + 3],
        ids=["block-1", "block", "block+1", "2block+3"],
    )
    def test_bits_do_not_depend_on_the_thread(self, sample_rate, frames, rng):
        params = tf.TransformParams(sample_rate=sample_rate)
        x = rng.standard_normal((frames - 1) * params.hop + 1)
        spect = tf.forward_logfreq(x, params)
        assert spect.n_frames == frames
        np.testing.assert_array_equal(  # the (T, F) buffers, word by word
            spect.data.T.view(np.uint64), one_thread_forward(x, params).view(np.uint64)
        )

    def test_no_thread_outlives_a_call(self, small_params, rng):
        before = threading.active_count()
        tf.forward_logfreq(rng.standard_normal(4000), small_params)
        assert threading.active_count() == before

    def test_failure_in_the_odd_half_raises_in_the_caller(self, monkeypatch, small_params, rng):
        # A sine half one bin short fails only the odd half, on the worker
        # thread; the coefficients would otherwise be returned half unwritten.
        cos_half, sin_half = tf._analysis_kernel(small_params)
        monkeypatch.setattr(tf, "_analysis_kernel", lambda params: (cos_half, sin_half[:, :-1]))
        before = threading.active_count()
        with pytest.raises(ValueError):
            tf.forward_logfreq(rng.standard_normal(4000), small_params)
        assert threading.active_count() == before


class TestRoundTrip:
    @pytest.mark.parametrize("seconds", [1.0, 2.5])
    def test_noise_round_trip_under_bound(self, seconds, rng):
        x = rng.standard_normal(int(44100 * seconds))
        spect = tf.forward_logfreq(x, DEFAULT)
        y = tf.inverse_logfreq(spect)
        w = DEFAULT.window_length
        err = np.sqrt(np.mean((y[w:-w] - x[w:-w]) ** 2))
        ref = np.sqrt(np.mean(x[w:-w] ** 2))
        assert err / ref < 1e-2

    def test_zero_spectrogram_inverts_to_silence(self, small_params, rng):
        spect = tf.forward_logfreq(rng.standard_normal(4000), small_params)
        y = tf.inverse_logfreq(spect.with_data(np.zeros_like(spect.data)))
        assert not np.any(y)

    def test_round_trip_preserves_dominant_peak(self):
        x = sine(440.0, 1.0, 44100)
        spect = tf.forward_logfreq(x, DEFAULT)
        y = tf.inverse_logfreq(spect)
        spect_y = tf.forward_logfreq(y, DEFAULT)
        mid = spect.n_frames // 2
        peak_in = np.argmax(np.abs(spect.data[:, mid]))
        peak_out = np.argmax(np.abs(spect_y.data[:, mid]))
        assert abs(int(peak_in) - int(peak_out)) <= 1

    def test_inverse_requires_analysis_state(self, small_params):
        orphan = tf.ComplexSpectrogram(
            data=np.zeros((small_params.n_bins, 5), dtype=complex),
            params=small_params,
        )
        with pytest.raises(tf.TransformError):
            tf.inverse_logfreq(orphan)


def masked_inverse(spect, mask):
    """Resynthesis of a masked spectrogram, the way the separation does it."""
    return tf.inverse_logfreq(spect.with_data(spect.data * mask))


class TestMasking:
    def test_all_ones_mask_is_identity(self, small_params, rng):
        spect = tf.forward_logfreq(rng.standard_normal(4000), small_params)
        y_plain = tf.inverse_logfreq(spect)
        y_masked = masked_inverse(spect, np.ones(spect.data.shape))
        assert np.array_equal(y_plain, y_masked)

    def test_all_zeros_mask_is_silence(self, small_params, rng):
        spect = tf.forward_logfreq(rng.standard_normal(4000), small_params)
        assert not np.any(masked_inverse(spect, np.zeros(spect.data.shape)))

    def test_half_mask_halves_rms(self, rng):
        x = rng.standard_normal(44100)
        spect = tf.forward_logfreq(x, DEFAULT)
        y_full = tf.inverse_logfreq(spect)
        y_half = masked_inverse(spect, np.full(spect.data.shape, 0.5))
        rms = lambda v: np.sqrt(np.mean(v**2))  # noqa: E731
        assert abs(rms(y_half) / rms(y_full) - 0.5) < 1e-2

    def test_shape_mismatch_rejected(self, small_params, rng):
        spect = tf.forward_logfreq(rng.standard_normal(4000), small_params)
        with pytest.raises(tf.TransformError):
            spect.with_data(np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mask_column_rejected(self, small_params, rng, bad):
        # one such column would otherwise resynthesize every sample it reaches as NaN
        spect = tf.forward_logfreq(rng.standard_normal(8000), small_params)
        mask = np.ones(spect.data.shape)
        mask[:, spect.n_frames // 2] = bad
        with pytest.raises(tf.TransformError, match="non-finite"):
            masked_inverse(spect, mask)


def sparse_backmap(params):
    """The two-tap gain interpolation as a sparse (linear bins, log bins) matrix."""
    low, high, w_low, w_high = tf._mask_backmap(params)
    rows = np.concatenate([np.arange(len(low))] * 2)
    vals = (np.concatenate([w_low, w_high]), (rows, np.concatenate([low, high])))
    return scipy.sparse.csr_matrix(vals, shape=(params.n_linear_bins, params.n_bins))


def full_overlap_add_inverse(spect):
    """Resynthesis of every frame: linear STFT of all frames, gains through a
    sparse matrix product, and a per-frame overlap-add loop (the inverse
    before changed-frame splicing and frame blocks)."""
    params, x = spect.params, spect._signal
    win, hop = params.window_length, params.hop
    w = np.hanning(win)
    linear = np.fft.rfft(tf._frame_view(x, params) * w, axis=1).T
    ratio = np.zeros_like(spect.data)
    np.divide(spect.data, spect._base, out=ratio, where=spect._base != 0)
    frames = np.fft.irfft((sparse_backmap(params) @ ratio) * linear, n=win, axis=0)
    n_frames = frames.shape[1]
    acc = np.zeros((n_frames - 1) * hop + win)
    den = np.zeros_like(acc)
    for t in range(n_frames):
        acc[t * hop : t * hop + win] += w * frames[:, t]
        den[t * hop : t * hop + win] += w * w
    y = acc / np.maximum(den, den.max() * 1e-12)
    return y[win // 2 : win // 2 + len(x)]


def samples_of_frames(params, frames, n_samples):
    """Mask of the samples inside the analysis span of any of ``frames``."""
    hit = np.zeros(n_samples, dtype=bool)
    for t in frames:
        start = t * params.hop - params.window_length // 2
        hit[max(start, 0) : max(start + params.window_length, 0)] = True
    return hit


def assert_matches_full_inverse(spect, mask):
    """Changed-frame samples equal the full inverse bit for bit; the rest
    are the analysed samples."""
    masked = spect.with_data(spect.data * mask)
    changed = np.flatnonzero(np.any(masked.data != spect.data, axis=0))
    y = tf.inverse_logfreq(masked)
    x = spect._signal
    hit = samples_of_frames(spect.params, changed, len(x))
    assert np.array_equal(y[hit], full_overlap_add_inverse(masked)[hit])
    assert np.array_equal(y[~hit], x[~hit])
    return changed, hit


PARAMS_UNEVEN_HOP = FOLD_PARAMS["hop-not-dividing-window"]


class TestChangedFrameResynthesis:
    @pytest.mark.parametrize(
        "pick",
        [
            lambda n: [0],
            lambda n: [n - 1],
            lambda n: [0, n - 1],
            lambda n: [3, 4, 5, 6],
            lambda n: [2, 11, 12, 20],
            lambda n: list(range(n)),
        ],
        ids=["first", "last", "both-ends", "adjacent", "scattered", "all"],
    )
    def test_matches_full_inverse(self, small_params, rng, pick):
        spect = tf.forward_logfreq(rng.standard_normal(4000), small_params)
        cols = pick(spect.n_frames)
        mask = np.ones(spect.data.shape)
        mask[:, cols] = rng.random((spect.n_bins, len(cols)))
        changed, hit = assert_matches_full_inverse(spect, mask)
        assert list(changed) == cols
        assert hit.all() == (cols == list(range(spect.n_frames)))

    @pytest.mark.parametrize(
        "params",
        [tf.TransformParams(window_policy="per_bin"), PARAMS_UNEVEN_HOP],
        ids=["per_bin", "hop-not-dividing-window"],
    )
    def test_other_params_match_full_inverse(self, params, rng):
        spect = tf.forward_logfreq(rng.standard_normal(int(params.sample_rate)), params)
        mask = np.ones(spect.data.shape)
        for cols in ([0, 1], [spect.n_frames // 2], [spect.n_frames - 1]):
            mask[:, cols] = rng.random((spect.n_bins, len(cols)))
        assert_matches_full_inverse(spect, mask)

    @pytest.mark.parametrize("hop, n_frames", [(128, 32), (2048, 16)])
    def test_zero_window_sum_at_the_end(self, rng, hop, n_frames):
        # With win == 2 * hop and a length that hop divides, the last sample
        # meets only the zero end tap of the last frame, so its window sum
        # is 0; for win = 4096 the sum one sample earlier is below the floor.
        params = tf.TransformParams(
            sample_rate=8000.0, bins_per_octave=12, f_min=40.0, hop=hop, window_length=2 * hop
        )
        spect = tf.forward_logfreq(rng.standard_normal(n_frames * hop), params)
        assert spect.n_frames == n_frames
        mask = np.ones(spect.data.shape)
        mask[:, -1] = rng.random(spect.n_bins)
        with np.errstate(divide="raise", invalid="raise"):
            y = tf.inverse_logfreq(spect.with_data(spect.data * mask))
        assert np.isfinite(y).all() and y[-1] == 0.0
        assert_matches_full_inverse(spect, mask)

    def test_unmodified_returns_input(self, small_params, rng):
        x = rng.standard_normal(4000)
        spect = tf.forward_logfreq(x, small_params)
        y = tf.inverse_logfreq(spect)
        assert np.array_equal(y, x)
        # neither the caller's signal nor the returned samples alias the state
        x_kept = x.copy()
        x[:] = 0.0
        y[:] = 0.0
        assert np.array_equal(tf.inverse_logfreq(spect), x_kept)

    def test_gain_of_one_is_not_a_change(self, small_params, rng):
        # x * 1.0 == x exactly, although the ratio x / x of a complex x
        # need not be exactly 1: such frames keep the analysed samples.
        spect = tf.forward_logfreq(rng.standard_normal(4000), small_params)
        mask = np.ones(spect.data.shape)
        mask[:, 7] = 0.5
        changed, hit = assert_matches_full_inverse(spect, mask)
        assert list(changed) == [7] and 0 < hit.sum() <= small_params.window_length

    @given(
        seed=st.integers(0, 2**32 - 1),
        cols=st.sets(st.integers(0, 31), min_size=1, max_size=8),
        silent_stretch=st.booleans(),
    )
    def test_random_masks_match_full_inverse(self, seed, cols, silent_stretch):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32 * 128 - 100)  # 32 frames
        if silent_stretch:
            x[1000:2500] = 0.0  # digitally silent frames have zero coefficients
        spect = tf.forward_logfreq(x, SMALL_PARAMS)
        cols = sorted(cols)
        mask = np.ones(spect.data.shape)
        mask[:, cols] = rng.random((spect.n_bins, len(cols))) * rng.integers(0, 2, len(cols))
        assert_matches_full_inverse(spect, mask)


class TestBlockedInverse:
    """The inverse resynthesizes the kept frames in blocks of INVERSE_BLOCK;
    the blocks must not show in its output or its memory."""

    @pytest.mark.parametrize(
        "params", [DEFAULT, PARAMS_UNEVEN_HOP], ids=["default", "hop-not-dividing-window"]
    )
    def test_blocks_match_full_inverse(self, params, rng):
        block = tf.INVERSE_BLOCK
        n_frames = 4 * block
        spect = tf.forward_logfreq(rng.standard_normal((n_frames - 1) * params.hop + 1), params)
        assert spect.n_frames == n_frames
        # Every frame changes but a gap around frame `block`, wide enough
        # that no kept frame fills it.
        gap = list(range(block - 10, block + 10))
        mask = rng.random(spect.data.shape)
        mask[:, gap] = 1.0
        changed, hit = assert_matches_full_inverse(spect, mask)
        assert len(changed) > 2 * block and not hit.all()

    def test_peak_memory_grows_with_the_samples_not_the_frames(self, rng):
        # Doubling an all-changed input may add a few copies of the added
        # samples (the padded signal, the output, the overlap-add sums and
        # the cover mask), never a spectrum or frame matrix of T x window.
        params = DEFAULT
        peaks, lengths = [], [blocks * tf.INVERSE_BLOCK * params.hop for blocks in (16, 32)]
        for n in lengths:
            spect = tf.forward_logfreq(rng.standard_normal(n), params)
            masked = spect.with_data(spect.data * 0.5)
            tf.inverse_logfreq(masked)  # fills the back-map cache
            tracemalloc.start()
            try:
                tf.inverse_logfreq(masked)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        more_samples = lengths[1] - lengths[0]
        more_frames = tf.n_frames_for(params, lengths[1]) - tf.n_frames_for(params, lengths[0])
        allowed = 5 * more_samples * 8 + 2**20  # 1 MiB of slack
        assert peaks[1] - peaks[0] <= allowed
        assert more_frames * params.window_length * 8 > allowed


    def test_out_column_takes_the_samples_without_an_array_of_their_length(self, small_params, rng):
        # A few changed frames of a long input, resynthesized into a column
        # of a two-channel array: only the kept stretch's arrays and the
        # changed-frame search are allocated, nothing of the output's length.
        n = 2**19
        spect = tf.forward_logfreq(rng.standard_normal(n), small_params)
        mask = np.ones(spect.data.shape)
        mask[:, 2000:2010] = 0.5
        masked = spect.with_data(spect.data * mask)
        expected = tf.inverse_logfreq(masked)
        both = np.zeros((n, 2))
        tracemalloc.start()
        try:
            got = tf.inverse_logfreq(masked, out=both[:, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, both)
        assert np.array_equal(both[:, 1], expected) and not both[:, 0].any()
        assert peak < n * 8 / 2  # measured: 0.77 MiB of the 4 MiB output

    @pytest.mark.parametrize(
        "out", [np.empty(4000, dtype=np.float32), np.empty(3999), np.empty((4000, 1))]
    )
    def test_out_of_another_dtype_or_shape_rejected(self, small_params, rng, out):
        spect = tf.forward_logfreq(rng.standard_normal(4000), small_params)
        with pytest.raises(tf.TransformError, match="out must be float64"):
            tf.inverse_logfreq(spect.with_data(spect.data * 0.5), out=out)


class TestTranslation:
    @pytest.mark.parametrize("d", [3, 7, 12])
    def test_pitch_shift_is_translation(self, d):
        # Fixed-window analysis keeps lobe widths constant in Hz, so they
        # scale with the pitch ratio in bins; within half an octave the
        # correlation after integer translation stays high.
        f0 = 220.0
        spect_a = tf.forward_logfreq(harmonic(f0, 0.6, 44100), DEFAULT)
        spect_b = tf.forward_logfreq(
            harmonic(f0 * 2 ** (d / 24), 0.6, 44100), DEFAULT
        )
        a = np.abs(spect_a.data[:, spect_a.n_frames // 2])
        b = np.abs(spect_b.data[:, spect_b.n_frames // 2])
        n = len(a)
        b_aligned = np.zeros(n)
        b_aligned[: n - d] = b[d:]
        lo, hi = 48, n - 48
        u, v = a[lo:hi], b_aligned[lo:hi]
        ncc = float(np.dot(u, v) / np.sqrt(np.dot(u, u) * np.dot(v, v)))
        assert ncc > 0.9


class TestSupportHelpers:
    def test_frames_overlapping_edges(self, small_params):
        p = small_params
        n_frames = 50
        hit = tf.frames_overlapping_samples(p, n_frames, 2000, 2001)
        centers = np.arange(n_frames) * p.hop
        expected = [
            t
            for t in range(n_frames)
            if centers[t] - p.window_length // 2 + 1 <= 2000 < centers[t] + p.window_length // 2
        ]
        assert list(hit) == expected

    def test_empty_extent(self, small_params):
        assert len(tf.frames_overlapping_samples(small_params, 10, 5, 5)) == 0

    def test_n_frames_matches_forward(self, small_params, rng):
        x = rng.standard_normal(5273)
        spect = tf.forward_logfreq(x, small_params)
        assert spect.n_frames == tf.n_frames_for(small_params, len(x))


class TestCaches:
    def test_one_params_cached_at_a_time(self, small_params, rng):
        # A bank may hold up to MAX_KERNEL_ENTRIES complex entries, and every
        # program path uses one TransformParams, so the caches keep one entry.
        for params in (small_params, dataclasses.replace(small_params, bins_per_octave=6)):
            spect = tf.forward_logfreq(rng.standard_normal(4 * params.window_length), params)
            tf.inverse_logfreq(spect.with_data(spect.data * 0.5))
        assert tf._analysis_kernel.cache_info().currsize == 1
        assert tf._mask_backmap.cache_info().currsize == 1
        assert tf._synthesis_window.cache_info().currsize == 1

    def test_cached_arrays_are_read_only(self, small_params):
        # Every later analysis and resynthesis in the process reads them.
        cached = (tf._analysis_kernel, tf._mask_backmap, tf._synthesis_window)
        for part in (part for cache in cached for part in cache(small_params)):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0


class TestPerBinPolicy:
    def test_per_bin_round_trip_and_peaks(self, rng):
        params = tf.TransformParams(window_policy="per_bin")
        x = rng.standard_normal(44100)
        spect = tf.forward_logfreq(x, params)
        y = tf.inverse_logfreq(spect)
        w = params.window_length
        err = np.sqrt(np.mean((y[w:-w] - x[w:-w]) ** 2))
        assert err / np.sqrt(np.mean(x[w:-w] ** 2)) < 1e-2

        tone = tf.forward_logfreq(sine(220.0, 0.5, 44100), params)
        mid = tone.n_frames // 2
        peak = np.argmax(np.abs(tone.data[:, mid]))
        assert abs(int(peak) - 72) <= 1
