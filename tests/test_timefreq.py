import numpy as np
import pytest

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
            dict(f_max=30000.0),
            dict(bins_per_octave=0),
            dict(hop=0),
            dict(hop=4096),
            dict(window_policy="wat"),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(tf.TransformError):
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

    def test_frame_times_spacing(self, small_params):
        spect = tf.forward_logfreq(np.zeros(4000), small_params)
        dt = np.diff(spect.frame_times)
        np.testing.assert_allclose(dt, small_params.hop / small_params.sample_rate)


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
            frame_times=np.arange(5, dtype=float),
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
