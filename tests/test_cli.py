import ast
import json
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st

from sikam import audio_io, cli, evaluate, kam
from sikam.audio_io import AudioIOError, read_wav, write_wav
from sikam.timefreq import (
    TransformError,
    TransformParams,
    forward_logfreq,
    frames_overlapping,
    inverse_logfreq,
    n_frames_for,
)

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


def riff(*chunks):
    """A RIFF WAVE file of (id, body) chunks, an odd-sized body padded by a byte."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) % 2)
        for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm16_fmt(channels, rate, tag=1):
    return struct.pack("<HHIIHH", tag, channels, rate, rate * 2 * channels, 2 * channels, 16)


# WAVE_FORMAT_EXTENSIBLE naming 16-bit PCM: cbSize 22, 16 valid bits, front
# left and right, and the PCM subformat GUID.
EXTENSIBLE_PCM16_STEREO = pcm16_fmt(2, 8000, tag=0xFFFE) + struct.pack("<HHI", 22, 16, 3) + (
    b"\x01\x00\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
)


MONO_PCM16 = riff((b"fmt ", pcm16_fmt(1, 8000)), (b"data", b"\x00" * 200))


def scipy_samples(path):
    """scipy's read of a 16-bit PCM or 32-bit float file, scaled as read_wav scales it."""
    rate, data = scipy.io.wavfile.read(path)
    return (data / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)), float(rate)


def scipy_encoded(x, subtype):
    """``x`` as the samples scipy writes for a ``subtype`` file."""
    if subtype == "pcm16":
        return np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
    return x.astype(np.float32)


def assert_unreadable(path, tmp_path, match):
    with pytest.raises(AudioIOError, match=match):
        read_wav(path)
    out = tmp_path / "out"
    code = cli.main(
        ["separate", "--input", str(path), "--output-dir", str(out), "--support", "0:0.001"]
    )
    assert code == 3 and not out.exists()


def scipy_modules_after(code):
    """The scipy modules loaded after running `code` in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    tail = 'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))'
    run = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})\n{code}\n{tail}"],
        capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(run.stdout.splitlines()[-1])


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

    @pytest.mark.parametrize("subtype", ["pcm16", "float32"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_writes_and_reads_equal_scipy(self, tmp_path, rng, subtype, channels):
        x = np.clip(rng.standard_normal((1001, channels)) * 0.4, -1.2, 1.2)
        x = x[:, 0] if channels == 1 else x
        ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
        write_wav(ours, x, 22050.0, subtype)
        scipy.io.wavfile.write(theirs, 22050, scipy_encoded(x, subtype))
        assert ours.read_bytes() == theirs.read_bytes()
        y, rate, got = read_wav(ours)
        expected, expected_rate = scipy_samples(theirs)
        assert np.array_equal(y, expected) and y.shape == x.shape
        assert (rate, got) == (expected_rate, subtype)

    @pytest.mark.parametrize("subtype", ["pcm16", "float32"])
    def test_blocked_write_equals_scipy_and_holds_one_block(self, tmp_path, rng, subtype):
        # Eight whole blocks and a part, clipped samples in each.
        x = np.clip(rng.standard_normal((8 * audio_io.WRITE_BLOCK + 1001, 2)) * 0.4, -1.2, 1.2)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
        write_wav(ours, x, 22050.0, subtype)  # untraced, so numpy's caches fill outside
        tracemalloc.start()
        try:
            write_wav(ours, x, 22050.0, subtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scipy.io.wavfile.write(theirs, 22050, scipy_encoded(x, subtype))
        assert ours.read_bytes() == theirs.read_bytes()
        # the finiteness check's booleans or one block's encoding (2.1 MB
        # measured for pcm16), not an encoding of all 8.4 MB of samples
        assert peak < x.nbytes / 3

    @pytest.mark.parametrize(
        "chunks",
        [
            [(b"fmt ", EXTENSIBLE_PCM16_STEREO)],
            [(b"fmt ", pcm16_fmt(2, 8000)), (b"LIST", b"INFOodd")],
        ],
        ids=["extensible", "odd-list-chunk"],
    )
    def test_reads_equal_scipy(self, tmp_path, rng, chunks):
        data = rng.integers(-32768, 32768, (50, 2)).astype("<i2").tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(riff(*chunks, (b"data", data)))
        y, rate, subtype = read_wav(path)
        expected, expected_rate = scipy_samples(path)
        assert np.array_equal(y, expected) and y.shape == (50, 2)
        assert (rate, subtype) == (expected_rate, "pcm16")

    @pytest.mark.parametrize(
        "content, match",
        [
            (MONO_PCM16[:-100], "truncated data chunk"),
            (b"RIFX" + MONO_PCM16[4:], "not a little-endian RIFF"),
            (riff((b"LIST", b"INFO"), (b"data", b"\x00" * 200)), "no fmt chunk"),
        ],
        ids=["truncated-data", "rifx", "no-fmt"],
    )
    def test_malformed_file_rejected(self, tmp_path, content, match):
        path = tmp_path / "x.wav"
        path.write_bytes(content)
        assert_unreadable(path, tmp_path, match)

    @pytest.mark.parametrize("subtype", ["pcm16", "float32"])
    def test_non_finite_write_rejected(self, tmp_path, subtype):
        path = tmp_path / "x.wav"
        with pytest.raises(AudioIOError, match="2 non-finite samples"):
            write_wav(path, [0.1, np.nan, np.inf], 8000, subtype)
        assert not path.exists()

    def test_zero_sample_rate_rejected(self, tmp_path, rng):
        path = tmp_path / "x.wav"
        write_wav(path, rng.standard_normal(800) * 0.1, 8000, "pcm16")
        raw = bytearray(path.read_bytes())
        raw[24:28] = bytes(4)  # the fmt chunk's sample rate
        path.write_bytes(raw)
        assert_unreadable(path, tmp_path, r"x\.wav: sample rate of 0 Hz")

    @pytest.mark.parametrize(
        "shape, rate, match",
        [
            ((10, 0), 8000, "samples of shape"),
            ((10,), 0, "sample rate"),
            ((10,), 0.5, "sample rate"),
            ((10,), 22050.5, "sample rate"),
            ((10,), float("nan"), "sample rate"),
            ((10,), float("inf"), "sample rate"),
        ],
        ids=["no-channel", "zero-rate", "half-hertz", "fractional-rate", "nan-rate", "inf-rate"],
    )
    def test_unwritable_header_rejected(self, tmp_path, shape, rate, match):
        path = tmp_path / "x.wav"
        with pytest.raises(AudioIOError, match=match):
            write_wav(path, np.zeros(shape), rate)
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioIOError):
            read_wav(tmp_path / "absent.wav")

    def test_unsupported_subtype(self, tmp_path):
        path = tmp_path / "x.wav"
        scipy.io.wavfile.write(path, 8000, np.zeros(100, dtype=np.int32))
        with pytest.raises(AudioIOError):
            read_wav(path)

    @pytest.mark.parametrize(
        "dtype, name",
        [
            (np.uint8, "8-bit PCM"),
            (np.int32, "24- or 32-bit integer PCM"),
            (np.float64, "64-bit float"),
        ],
    )
    def test_unsupported_format_named(self, tmp_path, dtype, name):
        path = tmp_path / "x.wav"
        scipy.io.wavfile.write(path, 8000, np.zeros(100, dtype=dtype))
        assert_unreadable(path, tmp_path, f"unsupported WAV {name} in ")


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
        assert x.ndim == s.ndim == n.ndim == 1  # mono in, mono out
        resid = np.sqrt(np.mean((s + n - x) ** 2)) / np.sqrt(np.mean(x**2))
        assert resid < 1e-2
        report = json.loads((out / "report.json").read_text())
        assert report["neighbor_stats"]["targets"] == len(report["support_frames"])
        assert isinstance(report["peak_rss_mb"], float) and report["peak_rss_mb"] > 0
        layers = {"read", "analysis", "neighbor_search", "estimation_masking", "resynthesis", "write"}
        # wall and CPU seconds of the same layers
        assert set(report["timings_sec"]) == set(report["cpu_sec"]) == layers
        for seconds in (report["timings_sec"], report["cpu_sec"]):
            assert all(isinstance(v, float) and v >= 0 for v in seconds.values())

    @pytest.mark.parametrize(
        "variant, k, p, surplus, every",
        [
            ("specmurt-pruned", 10, 20, 20, False),
            ("specmurt-pruned", 10, None, None, True),  # p: the rest of the pool
            ("specmurt", 10, 20, 0, False),
            ("baseline", None, 20, 0, True),  # k: the whole pool
        ],
    )
    def test_report_states_the_surplus_and_whether_the_pool_is_every_candidate(
        self, demo_scene, demo_wav, tmp_path, variant, k, p, surplus, every
    ):
        params, support = demo_scene.params, support_arg(demo_scene)
        n_frames = n_frames_for(params, len(demo_scene.mixture))
        pool = n_frames - len(frames_overlapping(params, n_frames, *map(float, support.split(":"))))
        k = pool if k is None else k
        p = pool - k if p is None else p
        argv = ["separate", "--input", str(demo_wav), "--output-dir", str(tmp_path)]
        argv += ["--variant", variant, "--support", support]
        assert cli.main(argv + ["--k", str(k), "--p", str(p)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["candidate_pool"] == pool
        stats = report["neighbor_stats"]
        assert stats["surplus"] == (p if surplus is None else surplus)
        assert stats["pool_is_every_candidate"] is every

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

    @pytest.mark.parametrize("variant", ["baseline", "shift", "specmurt", "specmurt-pruned"])
    def test_input_kept_outside_support_frames(self, demo_scene, demo_wav, tmp_path, variant):
        out = tmp_path / "out"
        code = cli.main(
            ["separate", "--input", str(demo_wav), "--output-dir", str(out),
             "--variant", variant, "--support", support_arg(demo_scene), "--k", "20"]
        )
        assert code == 0
        x, _, _ = read_wav(demo_wav)
        s, _, _ = read_wav(out / "source.wav")
        n, _, _ = read_wav(out / "interference.wav")
        report = json.loads((out / "report.json").read_text())
        hop, win = report["config"]["hop"], report["config"]["window_length"]
        touched = np.zeros(len(x), dtype=bool)
        for t in report["support_frames"]:
            touched[max(t * hop - win // 2, 0) : t * hop - win // 2 + win] = True
        assert 0 < touched.sum() < len(x)
        assert np.array_equal(s[~touched], x[~touched])
        assert not np.any(n[~touched])
        assert np.any(n[touched])

    def test_support_end_past_the_input_is_cut_to_it(self, demo_scene, demo_wav, tmp_path):
        # 1e308 s is more samples than a float holds; an end at or past the
        # input covers the frames an end at the input does.
        lo = support_arg(demo_scene).split(":")[0]
        duration = len(demo_scene.mixture) / SR
        sources = []
        for name, hi in (("huge", "1e308"), ("end", repr(duration))):
            out = tmp_path / name
            argv = ["separate", "--input", str(demo_wav), "--output-dir", str(out),
                    "--support", f"{lo}:{hi}", "--k", "5"]
            assert cli.main(argv) == 0
            sources.append((out / "source.wav").read_bytes())
        assert sources[0] == sources[1]

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

    @pytest.mark.parametrize("shape", [(0,), (0, 2)], ids=["mono", "stereo"])
    def test_empty_input_exit_2(self, tmp_path, capsys, shape):
        path = tmp_path / "empty.wav"
        write_wav(path, np.zeros(shape), SR)
        out = tmp_path / "out"
        code = cli.main(["separate", "--input", str(path), "--output-dir", str(out)])
        assert code == 2
        assert "signal too short" in capsys.readouterr().err
        assert not out.exists()

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
                    "hop = 256  # trailing comment",
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
        assert report["config"]["hop"] == 256 and report["config"]["p"] is None
        assert report["config"]["config"] == str(manifest)

    def test_exit_codes(self, demo_scene, demo_wav, tmp_path):
        sup = support_arg(demo_scene)
        assert cli.main(["separate", "--input", "/nonexistent.wav", "--support", sup]) == 3
        assert (
            cli.main(["separate", "--input", str(demo_wav), "--support", "bad"]) == 2
        )
        inf_out = tmp_path / "inf_out"
        assert (
            cli.main(
                ["separate", "--input", str(demo_wav), "--output-dir", str(inf_out),
                 "--support", "0:inf"]
            )
            == 2
        )
        assert not inf_out.exists()
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
        # write_wav refuses NaN, so scipy writes this input
        scipy.io.wavfile.write(nan_wav, int(SR), x.astype(np.float32))
        nan_out = tmp_path / "nan_out"
        assert (
            cli.main(
                ["separate", "--input", str(nan_wav), "--output-dir", str(nan_out),
                 "--support", sup]
            )
            == 2
        )
        assert not nan_out.exists()
        # kernel settings out of range are bad arguments, caught before any output
        bad_out = tmp_path / "bad_out"
        for flag, value in (("--k", "0"), ("--delta", "-1"), ("--p", "-1")):
            assert (
                cli.main(
                    ["separate", "--input", str(demo_wav), "--output-dir", str(bad_out),
                     "--support", sup, flag, value]
                )
                == 2
            )
            assert not bad_out.exists()
        # a shift range wider than the spectrum (173 bins at 8 kHz) is infeasible
        noise = np.random.default_rng(0).standard_normal(24000) * 0.1
        pcm_wav = tmp_path / "pcm8k.wav"
        write_wav(pcm_wav, noise, 8000, "pcm16")
        wide_out = tmp_path / "wide_out"
        assert (
            cli.main(
                ["separate", "--input", str(pcm_wav), "--output-dir", str(wide_out),
                 "--variant", "shift", "--delta", "400", "--k", "5", "--support", "1.0:1.2"]
            )
            == 4
        )
        assert not wide_out.exists()
        for variant in ("specmurt", "specmurt-pruned"):
            assert (
                cli.main(
                    ["separate", "--input", str(pcm_wav), "--output-dir", str(wide_out),
                     "--variant", variant, "--delta", "400", "--k", "5", "--p", "5",
                     "--support", "1.0:1.2"]
                )
                == 4
            )
            assert not wide_out.exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-5000"])
    def test_gamma_out_of_range_exit_2(self, demo_scene, demo_wav, tmp_path, capsys, gamma):
        out = tmp_path / "out"
        code = cli.main(
            ["separate", "--input", str(demo_wav), "--output-dir", str(out),
             "--support", support_arg(demo_scene), "--window-policy", "per_bin",
             f"--gamma={gamma}"]
        )
        assert code == 2
        assert "gamma must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--bins-per-octave", "2400"), ("--window-length", "441000")]
    )
    def test_oversized_kernel_bank_exit_2(
        self, demo_scene, demo_wav, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "out"
        code = cli.main(
            ["separate", "--input", str(demo_wav), "--output-dir", str(out),
             "--support", support_arg(demo_scene), flag, value]
        )
        assert code == 2
        assert "exceeds the kernel bound" in capsys.readouterr().err
        assert not out.exists()

    def test_import_leaves_scipy_signal_out(self, tmp_path):
        # WAV input and output, resynthesis and the scene grid run on numpy
        # alone; scipy would add about 20 MB and a hundred modules to every
        # process.
        wav, out = str(tmp_path / "in.wav"), str(tmp_path / "out")
        code = f"""
import numpy as np
import sikam.cli, sikam.evaluate
from sikam.audio_io import write_wav
write_wav({wav!r}, 0.1 * np.random.default_rng(0).standard_normal(22050), 22050, "pcm16")
argv = ["separate", "--input", {wav!r}, "--output-dir", {out!r}, "--support", "0.4:0.6"]
assert sikam.cli.main(argv + ["--k", "5"]) == 0
sikam.evaluate.default_scene_grid("melody", "repeated", n_scenes=4)
"""
        assert scipy_modules_after(code) == []

    def test_building_scenes_leaves_scipy_signal_and_stats_out(self):
        # The interference clips filter their noise without scipy, so neither
        # the clips nor a scene grid load any scipy module.
        code = """
from sikam import evaluate, synth
[synth.interference_clip(k, 22050.0) for k in synth.INTERFERENCE_KINDS]
evaluate.default_scene_grid("melody", "repeated", n_scenes=4)
"""
        assert scipy_modules_after(code) == []

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


def multichannel_wav(path, scene, n_channels):
    """The scene's mixture on ``n_channels`` channels, each with its own gain,
    delay and noise, as a float32 WAV."""
    rng = np.random.default_rng(n_channels)
    x = np.stack(
        [(1 - 0.2 * ch) * np.roll(scene.mixture, 3 * ch) for ch in range(n_channels)], axis=1
    )
    x += 1e-3 * rng.standard_normal(x.shape)
    write_wav(path, 0.5 * x / np.abs(x).max(), SR, "float32")
    return path


def sequential_separate(path, out, variant, support, k):
    """What `sikam separate` writes, built one channel at a time: the plan from
    the channel-mean magnitude, then `separation_masks` and `inverse_logfreq`
    for each channel in turn."""
    samples, rate, subtype = read_wav(path)
    params = TransformParams(sample_rate=rate)
    spects = [forward_logfreq(samples[:, ch], params) for ch in range(samples.shape[1])]
    (lo, hi), = cli.parse_support_ranges(support)
    frames = frames_overlapping(params, spects[0].n_frames, lo, hi)
    config = kam.SeparationConfig(
        k=k, variant=cli.VARIANT_BY_FLAG[variant], support=frozenset(frames.tolist())
    )
    plan = kam.plan_neighbors(sum(np.abs(s.data) for s in spects) / len(spects), config)
    source = np.stack(
        [
            inverse_logfreq(s.with_data(s.data * kam.separation_masks(np.abs(s.data), plan)))
            for s in spects
        ],
        axis=1,
    )
    out.mkdir()
    write_wav(out / "source.wav", source, rate, subtype)
    write_wav(out / "interference.wav", samples - source, rate, subtype)


class TestChannelSplit:
    """`separate` masks and resynthesizes channels 0, 2, ... in the caller and
    1, 3, ... on a worker thread, and writes both outputs at once."""

    @pytest.mark.parametrize("n_channels", [2, 3])
    @pytest.mark.parametrize("variant", sorted(cli.VARIANT_BY_FLAG))
    def test_outputs_equal_one_channel_at_a_time(
        self, demo_scene, tmp_path, n_channels, variant
    ):
        path = multichannel_wav(tmp_path / "in.wav", demo_scene, n_channels)
        support = support_arg(demo_scene)
        code = cli.main(
            ["separate", "--input", str(path), "--output-dir", str(tmp_path / "split"),
             "--variant", variant, "--support", support, "--k", "20"]
        )
        assert code == 0
        sequential_separate(path, tmp_path / "one", variant, support, 20)
        report = json.loads((tmp_path / "split" / "report.json").read_text())
        assert report["channels"] == n_channels and report["neighbor_stats"]["targets"] > 0
        for name in ("source.wav", "interference.wav"):
            assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_outputs_hold_when_the_threads_switch_every_microsecond(
        self, demo_scene, tmp_path
    ):
        # Five channels, three in the caller and two on the worker, each
        # thread writing its own entries of the shared lists and columns of
        # the shared output while the interpreter switches between them.
        path = multichannel_wav(tmp_path / "in.wav", demo_scene, 5)
        support = support_arg(demo_scene)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = cli.main(
                ["separate", "--input", str(path), "--output-dir", str(tmp_path / "split"),
                 "--variant", "shift", "--support", support, "--k", "20"]
            )
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        sequential_separate(path, tmp_path / "one", "shift", support, 20)
        for name in ("source.wav", "interference.wav"):
            assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_a_channel_failing_on_the_worker_exits_2_before_any_output(
        self, demo_scene, tmp_path, monkeypatch, capsys
    ):
        path = multichannel_wav(tmp_path / "in.wav", demo_scene, 2)
        calls = []

        def inverse(spect, out=None):
            on_worker = threading.current_thread() is not threading.main_thread()
            calls.append(on_worker)
            if on_worker:
                raise TransformError("channel 1 cannot be resynthesized")
            return inverse_logfreq(spect, out=out)

        monkeypatch.setattr(cli, "inverse_logfreq", inverse)
        out = tmp_path / "out"
        code = cli.main(
            ["separate", "--input", str(path), "--output-dir", str(out),
             "--support", support_arg(demo_scene), "--k", "20"]
        )
        assert code == 2
        assert sorted(calls) == [False, True]  # channel 0 here, channel 1 on the worker
        assert "channel 1 cannot be resynthesized" in capsys.readouterr().err
        assert not (out / "source.wav").exists() and not (out / "interference.wav").exists()

    @pytest.mark.parametrize("blocked", ["source.wav", "interference.wav"])
    def test_a_failing_write_on_either_thread_exits_3(
        self, demo_scene, tmp_path, capsys, blocked
    ):
        # interference.wav is written on the worker thread
        path = multichannel_wav(tmp_path / "in.wav", demo_scene, 2)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)  # a directory cannot be opened for writing
        code = cli.main(
            ["separate", "--input", str(path), "--output-dir", str(out),
             "--support", support_arg(demo_scene), "--k", "20"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"cannot write {out / blocked}" in err and "Traceback" not in err
        written = ({"source.wav", "interference.wav"} - {blocked}).pop()
        assert read_wav(out / written)[0].shape == read_wav(path)[0].shape


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


# The settable values of `separate` other than its paths and support, each away from its default.
MANIFEST_VALUES = {
    "variant": "specmurt-pruned",
    "k": 12,
    "delta": 9,
    "p": 5,
    "f_min": 55.0,
    "bins_per_octave": 12,
    "hop": 256,
    "window_length": 2048,
    "window_policy": "per_bin",
    "gamma": 30.0,
}
MANIFEST_KEYS = ("input", "output_dir", "support", *MANIFEST_VALUES)


class TestManifestAsFlags:
    def run(self, manifest_path, settings, manifest=()):
        """Exit code of `separate` with ``settings`` as flags and ``manifest`` lines."""
        argv = ["separate"]
        if manifest:
            manifest_path.write_text("".join(f"{line}\n" for line in manifest))
            argv += ["--config", str(manifest_path)]
        for key, value in settings.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return cli.main(argv)

    def test_keys_are_the_flags_of_separate(self):
        args = vars(cli.build_parser().parse_args(["separate"]))
        assert set(args) - {"command", "fn"} == {*MANIFEST_KEYS, "config"}

    @pytest.mark.parametrize("key", MANIFEST_KEYS)
    def test_manifest_key_matches_its_flag(self, demo_scene, demo_wav, tmp_path, key):
        out = tmp_path / "out"
        values = {
            "input": demo_wav,
            "output_dir": out,
            "support": support_arg(demo_scene),
            **MANIFEST_VALUES,
        }
        settings = {n: values[n] for n in ("input", "output_dir", "support", "k", key)}
        configs = []
        for as_manifest in (False, True):
            flags = {n: v for n, v in settings.items() if not (as_manifest and n == key)}
            lines = [f"{key} = {settings[key]}"] if as_manifest else []
            assert self.run(tmp_path / "run.cfg", flags, lines) == 0
            config = json.loads((out / "report.json").read_text())["config"]
            configs.append({n: v for n, v in config.items() if n != "config"})
        assert configs[0] == configs[1]
        expected = settings[key]
        assert configs[1][key] == (str(expected) if isinstance(expected, Path) else expected)

    @pytest.mark.parametrize(
        "line",
        [
            "p = -5",  # ran with the default surplus 2k before
            "k = abc",
            "k 25",
            "seed = 3",
            "drop_head = 2",
            "clamp_shifts = flase",
            "out = elsewhere",  # a key is a whole flag name, not a prefix
        ],
    )
    def test_bad_manifest_lines_exit_2(self, demo_scene, demo_wav, tmp_path, line):
        out = tmp_path / "out"
        flags = {"input": demo_wav, "output_dir": out, "support": support_arg(demo_scene)}
        assert self.run(tmp_path / "run.cfg", flags, [line]) == 2
        assert not out.exists()

    def test_negative_support_is_a_support_range_error(self, demo_wav, tmp_path, capsys):
        out = tmp_path / "out"
        flags = {"input": demo_wav, "output_dir": out}
        assert self.run(tmp_path / "run.cfg", flags, ["support = -1:3"]) == 2
        assert "bad support range '-1:3'" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_manifest_exits_3(self, demo_wav, tmp_path):
        argv = ["separate", "--config", str(tmp_path / "absent.cfg"), "--input", str(demo_wav)]
        assert cli.main(argv) == 3
        assert cli.main(["separate", "--config", str(tmp_path)]) == 3


class TestEvalCommand:
    @pytest.mark.parametrize(
        "flag, value", [("--k", "0"), ("--delta", "-1"), ("--p", "-1"), ("--seed", "-1")]
    )
    def test_bad_kernel_settings_exit_2(self, tmp_path, flag, value):
        out = tmp_path / "eval"
        code = cli.main(
            ["eval", "--output-dir", str(out), "--scenes-per-condition", "1", flag, value]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_scenes_exit_2(self, tmp_path, capsys, count):
        out = tmp_path / "eval"
        code = cli.main(["eval", "--output-dir", str(out), "--scenes-per-condition", count])
        assert code == 2
        assert "--scenes-per-condition must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_snr_exit_2(self, tmp_path, capsys, snr):
        out = tmp_path / "eval"
        code = cli.main(["eval", "--output-dir", str(out), f"--snr={snr}"])
        assert code == 2
        assert "--snr must be a finite" in capsys.readouterr().err
        assert not out.exists()

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


    @pytest.mark.parametrize(
        "flags",
        [
            ["--reps", "0"],
            ["--reps", "-1"],
            ["--k", "0"],
            ["--sizes", "16:30:17"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_settings_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "bench.json"
        code = cli.main(["bench", "--sizes", "16:30:2", "--reps", "1", *flags, "--output", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestManifestParsing:
    def test_support_ranges(self):
        assert cli.parse_support_ranges("1.0:2.0,3:4.5") == [(1.0, 2.0), (3.0, 4.5)]
        assert cli.parse_support_ranges("") == []

    @pytest.mark.parametrize("text", ["5", "2:1", "-1:3", "a:b", "0:inf", "0:nan", "nan:1"])
    def test_bad_ranges(self, text):
        with pytest.raises(cli.UsageError):
            cli.parse_support_ranges(text)
