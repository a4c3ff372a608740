import numpy as np
import pytest

from sikam import synth
from sikam.timefreq import TransformParams, forward_logfreq

SR = 22050.0


class TestSynthesizeNote:
    def test_pure_sine_rms(self):
        x = synth.synthesize_note(440.0, 1.0, SR, n_partials=1, amplitude=0.5)
        rms = np.sqrt(np.mean(x**2))
        assert rms == pytest.approx(0.5 / np.sqrt(2), rel=0.02)

    def test_partials_at_harmonic_frequencies(self):
        x = synth.synthesize_note(440.0, 1.0, SR, n_partials=5)
        spec = np.abs(np.fft.rfft(x))
        freqs = np.fft.rfftfreq(len(x), 1 / SR)
        for k in range(1, 6):
            window = (freqs > 440 * k - 25) & (freqs < 440 * k + 25)
            inside = spec[window].max()
            assert inside > 10 * np.median(spec)

    def test_aliasing_partials_rejected(self):
        with pytest.raises(synth.SynthError):
            synth.synthesize_note(3000.0, 0.5, SR, n_partials=4)

    @pytest.mark.parametrize(
        "f0, duration",
        [(np.nan, 0.1), (440.0, np.inf), (np.inf, 0.1), (440.0, np.nan), (0.0, 0.1)],
        ids=["nan-f0", "inf-duration", "inf-f0", "nan-duration", "zero-f0"],
    )
    def test_non_positive_or_non_finite_rejected(self, f0, duration):
        with pytest.raises(synth.SynthError, match="positive and finite"):
            synth.synthesize_note(f0, duration, 8000.0)

    def test_transposition_translates_transform(self):
        # ties the synthesizer to the transform's translation property
        params = TransformParams(sample_rate=SR)
        d = 6
        a = forward_logfreq(synth.synthesize_note(220.0, 0.4, SR), params)
        b = forward_logfreq(
            synth.synthesize_note(220.0 * 2 ** (d / 24), 0.4, SR), params
        )
        col_a = np.abs(a.data[:, a.n_frames // 2])
        col_b = np.abs(b.data[:, b.n_frames // 2])
        n = len(col_a)
        aligned = np.zeros(n)
        aligned[: n - d] = col_b[d:]
        u, v = col_a[24:-24], aligned[24:-24]
        ncc = np.dot(u, v) / np.sqrt(np.dot(u, u) * np.dot(v, v))
        assert ncc > 0.9


class TestRenderEvents:
    def test_spans_cover_events_back_to_back(self):
        events = synth.melody_events(0, note_duration=0.25)
        x, spans = synth.render_events(events, SR)
        assert len(spans) == len(events)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c
        head = int(round(synth.LEAD_S * SR))
        assert spans[0][0] == head
        assert len(x) == spans[-1][1] + head

    def test_chords_render(self):
        events = synth.chord_events(2, note_duration=0.2)
        x, spans = synth.render_events(events, SR)
        assert np.isfinite(x).all() and np.abs(x).max() > 0

    def test_partials_clamped_below_nyquist(self):
        # high fundamental with a bright timbre must not raise
        events = (((2000.0,), 0.2),)
        x, _ = synth.render_events(events, SR, timbre=synth.TIMBRES[0])
        assert np.abs(x).max() > 0


    def test_event_without_frequency_rejected(self):
        with pytest.raises(synth.SynthError, match="no frequency"):
            synth.render_events([((440.0,), 0.2), ((), 0.2)], SR)

    @pytest.mark.parametrize("f0", [np.nan, 0.0, -220.0], ids=["nan", "zero", "negative"])
    def test_bad_fundamental_rejected(self, f0):
        with pytest.raises(synth.SynthError, match="positive and finite"):
            synth.render_events([((440.0, f0), 0.2)], SR)


def tiled(events_of, tiles=5, transpose_middle=False):
    """Bundled pattern 0 repeated ``tiles`` times, optionally its middle event a semitone up."""
    events = list(events_of(0, 0.11)) * tiles
    if transpose_middle:
        freqs, duration = events[len(events) // 2]
        events[len(events) // 2] = (tuple(f * 2.0 ** (1 / 12) for f in freqs), duration)
    return events


def render_every_tone(events, sample_rate, timbre, lead=0.15, amplitude=0.8):
    """Reference render: one synthesize_note call per tone, summed per event in order."""
    head = int(round(lead * sample_rate))
    chunks, spans, cursor = [np.zeros(head)], [], head
    for freqs, duration in events:
        note = None
        for f0 in freqs:
            n_part = min(timbre.n_partials, int((sample_rate / 2.0 - 1.0) // f0))
            tone = synth.synthesize_note(
                f0, duration, sample_rate, n_partials=n_part,
                partial_decay=timbre.partial_decay, amplitude=amplitude / len(freqs),
                even_weight=timbre.even_weight,
            )
            note = tone if note is None else note + tone
        chunks.append(note)
        spans.append((cursor, cursor + len(note)))
        cursor += len(note)
    chunks.append(np.zeros(head))
    return np.concatenate(chunks), spans


class TestRepeatedTones:
    """render_events synthesizes each distinct tone once; the render is unchanged."""

    @pytest.mark.parametrize("timbre", synth.TIMBRES, ids=lambda t: t.name)
    @pytest.mark.parametrize("rate", [8000.0, 22050.0, 44100.0])
    @pytest.mark.parametrize(
        "events",
        [tiled(synth.melody_events, transpose_middle=True), tiled(synth.chord_events)],
        ids=["melody", "progression"],
    )
    def test_render_equals_one_call_per_tone(self, events, rate, timbre):
        x, spans = synth.render_events(events, rate, timbre)
        ref, ref_spans = render_every_tone(events, rate, timbre)
        assert spans == ref_spans
        assert x.dtype == ref.dtype and np.array_equal(x, ref)

    @pytest.mark.parametrize(
        "events, tones, calls",
        [
            (tiled(synth.melody_events, transpose_middle=True), 35, 5),
            (tiled(synth.chord_events), 105, 9),
        ],
        ids=["melody", "progression"],
    )
    def test_one_call_per_distinct_tone(self, monkeypatch, events, tones, calls):
        assert sum(len(freqs) for freqs, _ in events) == tones
        made = []
        original = synth.synthesize_note

        def counted(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(synth, "synthesize_note", counted)
        synth.render_events(events, SR)
        assert len(made) == calls


class TestInterferenceClips:
    @pytest.mark.parametrize("kind", synth.INTERFERENCE_KINDS)
    def test_unit_rms_and_finite(self, kind):
        clip = synth.interference_clip(kind, SR, duration=0.4, seed=3)
        assert np.isfinite(clip).all()
        assert np.sqrt(np.mean(clip**2)) == pytest.approx(1.0, rel=1e-6)

    def test_deterministic_per_seed(self):
        a = synth.interference_clip("cough", SR, seed=9)
        b = synth.interference_clip("cough", SR, seed=9)
        c = synth.interference_clip("cough", SR, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_kinds_differ(self):
        clips = [synth.interference_clip(k, SR, seed=0) for k in synth.INTERFERENCE_KINDS]
        for i in range(len(clips)):
            for j in range(i + 1, len(clips)):
                assert not np.array_equal(clips[i], clips[j])

    def test_each_clip_is_built_once_and_every_call_gets_a_copy(self, monkeypatch):
        synth._interference_clip.cache_clear()
        filtered = []
        lfilter = synth._lfilter
        monkeypatch.setattr(synth, "_lfilter", lambda *args: filtered.append(1) or lfilter(*args))
        first = synth.interference_clip("cough", SR, duration=0.35, seed=4)
        first[:] = 0.0  # a caller's edit must not reach the next call
        again = synth.interference_clip("cough", 22050, duration=0.35, seed=4)
        assert filtered == [1] and again.flags.writeable and np.any(again)
        synth._interference_clip.cache_clear()
        fresh = synth.interference_clip("cough", SR, duration=0.35, seed=4)
        assert filtered == [1, 1]
        assert again.tobytes() == fresh.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(synth.SynthError):
            synth.interference_clip("sneeze", SR)

    @pytest.mark.parametrize("kind", synth.INTERFERENCE_KINDS)
    def test_empty_clip_rejected(self, kind):
        with pytest.raises(synth.SynthError, match="no samples"):
            synth.interference_clip(kind, 22050.0, duration=0.0)

    def test_clip_shorter_than_its_fade_rejected(self):
        # chair_drag fades in and out over at most a quarter of the clip
        with pytest.raises(synth.SynthError, match="shorter than its fade"):
            synth.interference_clip("chair_drag", 22050.0, duration=0.0001)
        four_samples = synth.interference_clip("chair_drag", 22050.0, duration=4 / 22050.0)
        assert len(four_samples) == 4 and np.isfinite(four_samples).all()

    @pytest.mark.parametrize(
        "kind, rate, message",
        [
            ("cough", 3000.0, "1800 Hz .* Nyquist frequency 1500 Hz"),
            ("door_slam", 700.0, "350 Hz .* Nyquist frequency 350 Hz"),
            ("chair_drag", 260.0, "120 Hz .* upper edge 117 Hz .*Nyquist frequency 130 Hz"),
        ],
        ids=["cough", "door_slam", "chair_drag"],
    )
    def test_filter_edges_beyond_nyquist_rejected(self, kind, rate, message):
        with pytest.raises(synth.SynthError, match=message):
            synth.interference_clip(kind, rate, duration=0.4)


# The three filters of the bundled clips, as (order, edges in Hz) at a rate.
def bundled_filters(rate):
    return (
        (4, [300.0, 1800.0]),
        (4, 350.0),
        (2, [120.0, min(6000, rate / 2.0 * 0.9)]),
    )


def scipy_butter(order, edges_hz, sample_rate):
    """scipy's design of the same filter, with the edges in units of Nyquist."""
    import scipy.signal

    nyq = sample_rate / 2.0
    if np.ndim(edges_hz):
        return scipy.signal.butter(order, [f / nyq for f in edges_hz], btype="band")
    return scipy.signal.butter(order, edges_hz / nyq, btype="low")


class TestFiltersMatchScipy:
    """The clip filters repeat scipy's arithmetic: every result is equal, not close."""

    @pytest.mark.parametrize("rate", [8000.0, 16000.0, 22050.0, 44100.0, 48000.0])
    def test_butter_equals_scipy(self, rate):
        for order, edges in bundled_filters(rate):
            b, a = synth._butter(order, edges, rate)
            ref_b, ref_a = scipy_butter(order, edges, rate)
            assert b.dtype == ref_b.dtype and a.dtype == ref_a.dtype
            assert np.array_equal(b, ref_b) and np.array_equal(a, ref_a)
            assert a[0] == 1.0

    @pytest.mark.parametrize("rate", [8000.0, 44100.0])
    def test_lfilter_equals_scipy(self, rate):
        import scipy.signal

        noise = np.random.default_rng(11).standard_normal(4000)
        for order, edges in bundled_filters(rate):
            b, a = synth._butter(order, edges, rate)
            assert np.array_equal(
                synth._lfilter(b, a, noise), scipy.signal.lfilter(b, a, noise)
            )

    @pytest.mark.parametrize("kind", synth.INTERFERENCE_KINDS)
    @pytest.mark.parametrize("rate", [8000.0, 22050.0, 44100.0])
    def test_clip_equals_scipy_formula(self, monkeypatch, request, kind, rate):
        import scipy.signal

        # each side builds its clips anew, and no scipy-built clip stays cached
        clear = synth._interference_clip.cache_clear
        clear()
        request.addfinalizer(clear)
        cases = ((0.35, 1), (0.2, 6))
        clips = [synth.interference_clip(kind, rate, *case) for case in cases]
        monkeypatch.setattr(synth, "_butter", scipy_butter)
        monkeypatch.setattr(synth, "_lfilter", scipy.signal.lfilter)
        clear()
        for clip, case in zip(clips, cases):
            assert np.array_equal(clip, synth.interference_clip(kind, rate, *case))


class TestBundledMaterial:
    @pytest.mark.parametrize("index", range(5))
    def test_melodies_have_repeated_and_unique_interior_notes(self, index):
        pattern = synth.MELODIES[index]
        keys = list(pattern)
        counts = {k: keys.count(k) for k in keys}
        interior = keys[1:-1]
        assert any(counts[k] >= 3 for k in interior)
        assert any(counts[k] == 1 for k in interior)

    @pytest.mark.parametrize("index", range(5))
    def test_progressions_have_repeated_and_unique_interior_chords(self, index):
        pattern = synth.CHORD_PROGRESSIONS[index]
        keys = list(pattern)
        counts = {k: keys.count(k) for k in keys}
        interior = keys[1:-1]
        assert any(counts[k] >= 3 for k in interior)
        assert any(counts[k] == 1 for k in interior)
