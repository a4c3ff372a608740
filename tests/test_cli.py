import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sikam import cli, evaluate
from sikam.audio_io import AudioIOError, read_wav, write_wav

SR = evaluate.EVAL_PARAMS.sample_rate


@pytest.fixture(scope="module")
def demo_scene():
    return evaluate.default_scene_grid("melody", "not_repeated", n_scenes=1, seed=5)[0]


@pytest.fixture(scope="module")
def demo_wav(tmp_path_factory, demo_scene):
    path = tmp_path_factory.mktemp("demo") / "input.wav"
    peak = np.abs(demo_scene.mixture).max()
    write_wav(path, 0.5 * demo_scene.mixture / peak, SR, "float32")
    return path


def support_arg(scene):
    hop, sr = scene.params.hop, scene.params.sample_rate
    lo = min(scene.support) * hop / sr
    hi = (max(scene.support) + 1) * hop / sr
    return f"{lo:.3f}:{hi:.3f}"


class TestAudioIO:
    def test_pcm16_round_trip(self, tmp_path, rng):
        x = np.clip(rng.standard_normal(4000) * 0.2, -0.9, 0.9)
        path = tmp_path / "x.wav"
        write_wav(path, x, 8000, "pcm16")
        y, rate, subtype = read_wav(path)
        assert rate == 8000 and subtype == "pcm16"
        assert np.abs(y - x).max() <= 1.0 / 32768

    def test_float32_round_trip(self, tmp_path, rng):
        x = rng.standard_normal(4000).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.wav"
        write_wav(path, x, 8000, "float32")
        y, _, subtype = read_wav(path)
        assert subtype == "float32"
        np.testing.assert_array_equal(y, x)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioIOError):
            read_wav(tmp_path / "absent.wav")

    def test_unsupported_subtype(self, tmp_path):
        import scipy.io.wavfile

        path = tmp_path / "x.wav"
        scipy.io.wavfile.write(path, 8000, np.zeros(100, dtype=np.int32))
        with pytest.raises(AudioIOError):
            read_wav(path)


class TestSeparateCommand:
    def test_end_to_end_reconstruction(self, demo_scene, demo_wav, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "separate",
                "--input",
                str(demo_wav),
                "--output-dir",
                str(out),
                "--variant",
                "shift",
                "--support",
                support_arg(demo_scene),
                "--k",
                "40",
            ]
        )
        assert code == 0
        x, _, _ = read_wav(demo_wav)
        s, _, _ = read_wav(out / "source.wav")
        n, _, _ = read_wav(out / "interference.wav")
        resid = np.sqrt(np.mean((s + n - x) ** 2)) / np.sqrt(np.mean(x**2))
        assert resid < 1e-2
        report = json.loads((out / "report.json").read_text())
        assert report["neighbor_stats"]["targets"] == len(report["support_frames"])
        assert set(report["timings_sec"]) >= {
            "analysis",
            "neighbor_search",
            "estimation_masking",
            "resynthesis",
        }

    def test_deterministic_outputs(self, demo_scene, demo_wav, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(
                [
                    "separate",
                    "--input",
                    str(demo_wav),
                    "--output-dir",
                    str(out),
                    "--variant",
                    "specmurt-pruned",
                    "--support",
                    support_arg(demo_scene),
                    "--k",
                    "30",
                ]
            )
            assert code == 0
            outs.append(out)
        for fname in ("source.wav", "interference.wav"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b

    def test_empty_support_passes_input_through(self, demo_wav, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["separate", "--input", str(demo_wav), "--output-dir", str(out)]
        )
        assert code == 0
        x, _, _ = read_wav(demo_wav)
        s, _, _ = read_wav(out / "source.wav")
        n, _, _ = read_wav(out / "interference.wav")
        assert np.sqrt(np.mean((s - x) ** 2)) < 1e-2 * np.sqrt(np.mean(x**2))
        assert np.abs(n).max() < 1e-6

    def test_stereo_input(self, demo_scene, tmp_path):
        stereo = np.stack(
            [demo_scene.mixture, np.roll(demo_scene.mixture, 3)], axis=1
        )
        stereo = 0.5 * stereo / np.abs(stereo).max()
        path = tmp_path / "stereo.wav"
        write_wav(path, stereo, SR, "float32")
        out = tmp_path / "out"
        code = cli.main(
            [
                "separate",
                "--input",
                str(path),
                "--output-dir",
                str(out),
                "--support",
                support_arg(demo_scene),
                "--k",
                "30",
            ]
        )
        assert code == 0
        s, _, _ = read_wav(out / "source.wav")
        assert s.ndim == 2 and s.shape[1] == 2

    def test_manifest_file_with_flag_override(self, demo_scene, demo_wav, tmp_path):
        manifest = tmp_path / "run.cfg"
        manifest.write_text(
            "\n".join(
                [
                    f"input = {demo_wav}",
                    f"output_dir = {tmp_path / 'from_manifest'}",
                    "variant = baseline",
                    "k = 25",
                    f"support = {support_arg(demo_scene)}",
                    "# comment line",
                ]
            )
        )
        out = tmp_path / "override"
        code = cli.main(
            ["separate", "--config", str(manifest), "--output-dir", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["k"] == 25
        assert report["config"]["output_dir"] == str(out)

    def test_exit_codes(self, demo_scene, demo_wav, tmp_path):
        sup = support_arg(demo_scene)
        assert cli.main(["separate", "--input", "/nonexistent.wav", "--support", sup]) == 3
        assert (
            cli.main(["separate", "--input", str(demo_wav), "--support", "bad"]) == 2
        )
        assert (
            cli.main(
                [
                    "separate",
                    "--input",
                    str(demo_wav),
                    "--output-dir",
                    str(tmp_path / "o"),
                    "--support",
                    sup,
                    "--k",
                    "99999",
                ]
            )
            == 4
        )
        assert (
            cli.main(
                ["separate", "--input", str(demo_wav), "--support", "50.0:60.0"]
            )
            == 4
        )
        x, _, _ = read_wav(demo_wav)
        x[len(x) // 2] = np.nan
        nan_wav = tmp_path / "nan.wav"
        write_wav(nan_wav, x, SR, "float32")
        nan_out = tmp_path / "nan_out"
        assert (
            cli.main(
                ["separate", "--input", str(nan_wav), "--output-dir", str(nan_out),
                 "--support", sup]
            )
            == 2
        )
        assert not nan_out.exists()

    def test_bad_manifest_key(self, tmp_path):
        manifest = tmp_path / "bad.cfg"
        manifest.write_text("nonsense = 1\n")
        assert cli.main(["separate", "--config", str(manifest)]) == 2

    def test_missing_input_is_usage_error(self):
        assert cli.main(["separate", "--support", "0:1"]) == 2

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        channels=st.sampled_from([1, 2]),
        seconds=st.floats(1.0, 1.6),
        amplitude=st.floats(0.01, 0.5),
        variant=st.sampled_from(sorted(cli.VARIANT_BY_FLAG)),
        start=st.floats(0.0, 0.8),
        length=st.floats(0.01, 0.2),
    )
    def test_outputs_sum_to_input(
        self, seed, channels, seconds, amplitude, variant, start, length
    ):
        rate = 8000
        rng = np.random.default_rng(seed)
        x = rng.uniform(-amplitude, amplitude, (int(seconds * rate), channels))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "in.wav", Path(tmp) / "out"
            write_wav(path, x[:, 0] if channels == 1 else x, rate, "pcm16")
            code = cli.main(
                ["separate", "--input", str(path), "--output-dir", str(out),
                 "--variant", variant, "--k", "2", "--p", "2", "--delta", "4",
                 "--support", f"{start}:{start + length}"]
            )
            assert code == 0
            x, _, _ = read_wav(path)
            s, _, _ = read_wav(out / "source.wav")
            n, _, _ = read_wav(out / "interference.wav")
        assert s.shape == n.shape == x.shape
        assert np.abs(s + n - x).max() <= 1.0 / 32768


@pytest.mark.slow
class TestBundledRegression:
    def test_shift_variant_scores_higher_nsdr_than_baseline(
        self, demo_scene, demo_wav, tmp_path
    ):
        # The demo scene is non-repeated, so the baseline has no usable
        # neighbors while the shift kernel aligns the other notes.
        x, _, _ = read_wav(demo_wav)
        scale = 0.5 / np.abs(demo_scene.mixture).max()
        clean = demo_scene.clean * scale
        mask = evaluate.support_sample_mask(
            demo_scene.support, demo_scene.params, len(x)
        )
        nsdrs = {}
        for variant in ("baseline", "shift"):
            out = tmp_path / variant
            code = cli.main(
                [
                    "separate",
                    "--input",
                    str(demo_wav),
                    "--output-dir",
                    str(out),
                    "--variant",
                    variant,
                    "--support",
                    support_arg(demo_scene),
                    "--k",
                    "60",
                ]
            )
            assert code == 0
            est, _, _ = read_wav(out / "source.wav")
            nsdrs[variant] = evaluate.nsdr(clean, x, est, mask)
        assert nsdrs["shift"] > nsdrs["baseline"]


class TestEvalCommand:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(
            [
                "eval",
                "--output-dir",
                str(out),
                "--content",
                "melody",
                "--placement",
                "not_repeated",
                "--scenes-per-condition",
                "2",
                "--variants",
                "baseline,specmurt",
                "--k",
                "40",
            ]
        )
        assert code == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + scenes x variants
        assert (out / "summary.txt").exists()

    @pytest.mark.slow
    def test_full_condition_table_shape(self, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(
            [
                "eval",
                "--output-dir",
                str(out),
                "--scenes-per-condition",
                "1",
                "--variants",
                "baseline",
                "--k",
                "40",
            ]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        # 2 contents x 2 placements = 4 condition columns
        header = summary.splitlines()[0]
        assert header.count("/") == 4
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4


class TestBenchCommand:
    def test_tiny_bench(self, tmp_path, capsys):
        out = tmp_path / "not" / "yet" / "bench.json"
        code = cli.main(
            [
                "bench",
                "--sizes",
                "16:30:2,16:60:2",
                "--k",
                "4",
                "--reps",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "baseline" in printed and "ratios" in printed
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert {"baseline_total", "shift_similarity", "specmurt_similarity"} <= set(
            payload[0]
        )


class TestManifestParsing:
    def test_support_ranges(self):
        assert cli.parse_support_ranges("1.0:2.0,3:4.5") == [(1.0, 2.0), (3.0, 4.5)]
        assert cli.parse_support_ranges("") == []

    @pytest.mark.parametrize("text", ["5", "2:1", "-1:3", "a:b"])
    def test_bad_ranges(self, text):
        with pytest.raises(cli.UsageError):
            cli.parse_support_ranges(text)
