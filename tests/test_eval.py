import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sikam import evaluate, synth
from sikam.kam import SeparationConfig
from sikam.timefreq import forward_logfreq

PARAMS = evaluate.EVAL_PARAMS
SR = PARAMS.sample_rate


def small_scene(placement="not_repeated", seed=0, content="melody"):
    events = (
        synth.melody_events(0, 0.5) if content == "melody" else synth.chord_events(0, 0.5)
    )
    clip = synth.interference_clip("cough", SR, duration=0.3, seed=seed)
    return evaluate.build_scene(
        events, clip, placement, 12.0, content=content, scene_id=f"t{seed}"
    )


class TestBuildScene:
    def test_mixture_is_exact_sum(self):
        sc = small_scene()
        assert np.array_equal(sc.mixture, sc.clean + sc.interference)

    def test_snr_round_trip(self):
        # SNR is defined over the overlap region: the time extent between the
        # first and last nonzero interference sample.
        for snr in (0.0, 6.0, 12.0):
            events = synth.melody_events(1, 0.5)
            clip = synth.interference_clip("drop", SR, duration=0.3, seed=2)
            sc = evaluate.build_scene(events, clip, "repeated", snr)
            nz = np.nonzero(sc.interference)[0]
            lo, hi = nz[0], nz[-1] + 1
            measured = 10 * np.log10(
                np.dot(sc.clean[lo:hi], sc.clean[lo:hi])
                / np.dot(sc.interference[lo:hi], sc.interference[lo:hi])
            )
            assert measured == pytest.approx(snr, abs=0.01)

    def test_support_matches_nonzero_energy_frames(self):
        sc = small_scene(seed=4)
        spect = forward_logfreq(sc.interference, sc.params)
        energy = np.sum(np.abs(spect.data) ** 2, axis=0)
        assert set(np.nonzero(energy > 0)[0].tolist()) == set(sc.support)

    def test_not_repeated_placement_picks_unique_event(self):
        events = tuple(
            ((synth.pitch_hz(s),), 0.5) for s in (0, 3, 0, 7, 0, 3, 5)
        )
        idx = evaluate._pick_event(events, "not_repeated")
        assert idx == 3  # the only interior unique pitch

    def test_repeated_placement_picks_recurring_event(self):
        events = tuple(
            ((synth.pitch_hz(s),), 0.5) for s in (0, 3, 0, 7, 0, 3, 5)
        )
        idx = evaluate._pick_event(events, "repeated")
        assert idx in (2, 4)

    def test_missing_placement_rejected(self):
        events = tuple(((synth.pitch_hz(s),), 0.5) for s in (0, 1, 2, 3))
        with pytest.raises(evaluate.EvalError):
            evaluate._pick_event(events, "repeated")

    def test_all_repeated_rejects_not_repeated(self):
        events = tuple(((synth.pitch_hz(s),), 0.5) for s in (0, 1, 0, 1, 0))
        with pytest.raises(evaluate.EvalError):
            evaluate._pick_event(events, "not_repeated")

    def test_oversized_clip_rejected(self):
        events = synth.melody_events(0, 0.3)
        clip = synth.interference_clip("cough", SR, duration=0.8, seed=0)
        with pytest.raises(evaluate.EvalError):
            evaluate.build_scene(events, clip, "repeated", 12.0)

    def test_user_wav_clip_ingestion(self, tmp_path):
        # scenes accept interference loaded from a WAV instead of the
        # bundled synthetic clips
        from sikam.audio_io import read_wav, write_wav

        clip = synth.interference_clip("chair_drag", SR, duration=0.3, seed=1)
        path = tmp_path / "clip.wav"
        write_wav(path, 0.5 * clip / np.abs(clip).max(), SR, "float32")
        loaded, rate, _ = read_wav(path)
        assert rate == SR
        sc = evaluate.build_scene(
            synth.melody_events(2, 0.5), loaded, "repeated", 12.0
        )
        assert len(sc.support) > 0
        assert np.array_equal(sc.mixture, sc.clean + sc.interference)


class TestSdr:
    def test_perfect_estimate_hits_ceiling(self, rng):
        x = rng.standard_normal(1000)
        assert evaluate.sdr(x, x.copy()) == 100.0

    def test_one_percent_noise_is_twenty_db(self, rng):
        ref = rng.standard_normal(20000)
        noise = rng.standard_normal(20000)
        noise -= noise @ ref / (ref @ ref) * ref  # orthogonalize
        noise *= np.sqrt(0.01 * (ref @ ref) / (noise @ noise))
        assert evaluate.sdr(ref, ref + noise) == pytest.approx(20.0, abs=1e-9)

    def test_zero_estimate_is_zero_db(self, rng):
        ref = rng.standard_normal(512)
        assert evaluate.sdr(ref, np.zeros_like(ref)) == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_reference_rejected(self):
        with pytest.raises(evaluate.EvalError):
            evaluate.sdr(np.zeros(16), np.ones(16))

    def test_restriction_mask(self, rng):
        ref = rng.standard_normal(100)
        est = ref.copy()
        est[50:] += 100.0  # badly wrong outside the mask
        mask = np.zeros(100, bool)
        mask[:50] = True
        assert evaluate.sdr(ref, est, mask) == 100.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["reference", "estimate"])
    def test_non_finite_samples_rejected(self, rng, operand, bad):
        ref = rng.standard_normal(64)
        est = ref + 0.1
        (ref if operand == "reference" else est)[7] = bad
        with pytest.raises(evaluate.EvalError, match="finite"):
            evaluate.sdr(ref, est)

    @given(st.floats(0.01, 100.0))
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(7)
        ref = rng.standard_normal(256)
        est = ref + rng.standard_normal(256) * 0.1
        a = evaluate.sdr(ref, est)
        b = evaluate.sdr(c * ref, c * est)
        assert a == pytest.approx(b, abs=1e-6)


class TestNsdr:
    def test_mixture_as_estimate_is_zero(self, rng):
        ref = rng.standard_normal(300)
        mix = ref + rng.standard_normal(300) * 0.2
        assert evaluate.nsdr(ref, mix, mix.copy()) == 0.0

    def test_quartered_error_gains_six_db(self, rng):
        ref = rng.standard_normal(4000)
        noise = rng.standard_normal(4000)
        noise -= noise @ ref / (ref @ ref) * ref
        mix = ref + noise
        est = ref + 0.5 * noise  # error energy / 4
        assert evaluate.nsdr(ref, mix, est) == pytest.approx(10 * np.log10(4), abs=1e-9)

    def test_perfect_estimate_hits_ceiling_minus_mixture(self, rng):
        ref = rng.standard_normal(1000)
        mix = ref + rng.standard_normal(1000) * 0.1
        expected = 100.0 - evaluate.sdr(ref, mix)
        assert evaluate.nsdr(ref, mix, ref.copy()) == pytest.approx(expected)


class TestSupportSampleMask:
    def test_hop_ownership(self):
        mask = evaluate.support_sample_mask((2, 3), PARAMS, 5000)
        lo, hi = 2 * PARAMS.hop, 4 * PARAMS.hop
        assert mask[lo:hi].all()
        assert not mask[:lo].any() and not mask[hi:].any()

    def test_clipped_to_signal_length(self):
        mask = evaluate.support_sample_mask((100,), PARAMS, 500)
        assert mask.shape == (500,) and not mask.any()

    def test_negative_frame_owns_no_sample(self):
        # A frame before the signal does not wrap around to its end.
        mask = evaluate.support_sample_mask((-2,), PARAMS, 5000)
        assert mask.shape == (5000,) and not mask.any()


class TestGrid:
    def test_single_scene_single_variant_one_row(self):
        sc = small_scene(seed=1)
        res = evaluate.run_grid([sc], ["baseline"], SeparationConfig(k=20))
        assert len(res) == 1
        r = res[0]
        assert r.variant == "baseline" and r.scene_id == sc.scene_id
        assert r.nsdr == pytest.approx(r.sdr_estimate - r.sdr_mixture)

    def test_row_count_is_scenes_times_variants(self):
        scenes = [small_scene(seed=s) for s in (1, 2)]
        res = evaluate.run_grid(
            scenes, ["baseline", "specmurt"], SeparationConfig(k=20)
        )
        assert len(res) == 4

    def test_default_grid_covers_axes(self):
        scenes = evaluate.default_scene_grid("melody", "repeated", n_scenes=20)
        assert len(scenes) == 20
        assert {s.interference_kind for s in scenes} == set(synth.INTERFERENCE_KINDS)
        assert len({s.timbre_name for s in scenes}) == len(synth.TIMBRES)
        assert all(s.placement == "repeated" for s in scenes)

    def test_csv_round_trip(self, tmp_path):
        sc = small_scene(seed=3)
        res = evaluate.run_grid([sc], ["baseline"], SeparationConfig(k=20))
        path = tmp_path / "results.csv"
        evaluate.write_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(evaluate.CSV_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == sc.scene_id and cells[3] == "baseline"
        assert float(cells[6]) == pytest.approx(res[0].nsdr, abs=1e-3)

    def test_summary_table_mentions_variants_and_conditions(self):
        sc = small_scene(seed=5)
        res = evaluate.run_grid([sc], ["baseline", "specmurt"], SeparationConfig(k=20))
        table = evaluate.summary_table(res)
        assert "baseline" in table and "specmurt" in table
        assert "melody" in table

    def test_summary_table_marks_empty_cells_in_first_seen_order(self):
        def result(variant, content, placement, nsdr):
            return evaluate.EvalResult("s", content, placement, variant, 0.0, nsdr, nsdr)

        res = [
            result("specmurt", "chords", "repeated", 1.0),
            result("baseline", "melody", "not_repeated", 2.0),
            result("specmurt", "chords", "repeated", 2.0),
            result("baseline", "chords", "repeated", -0.5),
            # no column for a condition outside the grid, but a row for its variant
            result("shift_exhaustive", "speech", "repeated", 9.0),
        ]
        assert evaluate.summary_table(res).split("\n") == [
            "                  melody/not_rep  chords/repeate",
            "specmurt                       -          1.50",
            "baseline                    2.00         -0.50",
            "shift_exhaustive               -             -",
        ]

    def test_adapt_config_clamps_to_pool(self):
        cfg = SeparationConfig(k=300, surplus=600)
        small = evaluate.adapt_config(cfg, 50)
        assert small.k == 25 and small.surplus == 25
        big = evaluate.adapt_config(cfg, 10000)
        assert big.k == 300 and big.surplus == 600


@pytest.mark.slow
class TestChordDirections:
    def test_pruning_helps_on_non_repeated_chords(self):
        # The plain specmurt selection confuses chords that share interval
        # structure; re-ranking by true aligned distance recovers the loss.
        scenes = evaluate.default_scene_grid(
            "chords", "not_repeated", n_scenes=20, seed=0
        )
        res = evaluate.run_grid(
            scenes, ["specmurt", "specmurt_pruned"], SeparationConfig(k=300, delta=48)
        )
        plain = np.mean([r.nsdr for r in res if r.variant == "specmurt"])
        pruned = np.mean([r.nsdr for r in res if r.variant == "specmurt_pruned"])
        assert pruned >= plain
