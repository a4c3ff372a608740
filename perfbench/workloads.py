"""Benchmark workloads: inputs built from a seed, timed rounds, output checks.

A *round* runs every separation variant once on the workload's inputs
through a user-facing entry point: ``cli.main(["separate", ...])`` for the
file workloads, ``evaluate.run_grid`` (what ``sikam eval`` calls, once per
condition) for the grid. Every separation becomes a :class:`Cell` holding
its wall time, its NSDR and the first output check it failed, if any.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from sikam import cli, evaluate, synth
from sikam.audio_io import read_wav, write_wav
from sikam.kam import VARIANTS, SeparationConfig
from sikam.timefreq import (
    TransformParams,
    forward_logfreq,
    frames_overlapping,
    inverse_logfreq,
    n_frames_for,
)

FLAG_BY_VARIANT = {variant: flag for flag, variant in cli.VARIANT_BY_FLAG.items()}

# float32 rounds to nearest, so each written sample is off by at most
# 2**-24 of its magnitude; source + interference may miss the input by the sum.
FLOAT32_UNIT_ROUNDOFF = 2.0**-24

# Level of the seeded noise floor relative to the source RMS (-60 dB). It makes
# every seed a different recording while leaving the separation task, and so
# the NSDR, the same up to a small fraction of a dB.
NOISE_FLOOR = 1e-3

# Silence that synth.render_events puts before and after the events.
RENDER_LEAD_S = 0.15

# Source-to-interference ratio over the burst, as in the bundled grid.
SNR_DB = 12.0

# The interference of the file workloads: a short broadband burst.
INTERFERENCE = "cough"


@dataclass
class Cell:
    """One separation: a (scene, variant) pair of the workload."""

    variant: str
    seconds: float
    nsdr: float = math.nan
    error: str = ""


@dataclass
class Round:
    """Every variant once; ``seconds`` sums the walls of the timed calls."""

    cells: list[Cell] = field(default_factory=list)
    seconds: float = 0.0


def complementarity_error(source, interference, reference) -> str:
    """Empty when both outputs are finite and sum to ``reference``.

    The file workloads check what was written as float32, so each output
    sample may be off by its float32 rounding; nothing beyond that is allowed.
    """
    if source.shape != reference.shape or interference.shape != reference.shape:
        return f"output shape {source.shape}/{interference.shape} != input {reference.shape}"
    if not (np.all(np.isfinite(source)) and np.all(np.isfinite(interference))):
        return "non-finite output samples"
    residual = np.abs(source + interference - reference).ravel()
    tol = FLOAT32_UNIT_ROUNDOFF * (np.abs(source) + np.abs(interference)).ravel() * (1 + 1e-6) + 1e-12
    worst = int(np.argmax(residual - tol))
    if residual[worst] > tol[worst]:
        return f"source + interference misses the input by {residual[worst]:.3g}"
    return ""


def add_noise_floor(source, interference, rng):
    """Source with a seeded noise floor at :data:`NOISE_FLOOR`, and the mixture."""
    floor = NOISE_FLOOR * np.sqrt(np.mean(source**2)) * rng.standard_normal(source.shape)
    return source + floor, source + floor + interference


# ---------------------------------------------------------------- file workloads


@dataclass(frozen=True)
class SeparateWorkload:
    """A synthetic recording written as a float32 WAV, separated by the CLI.

    The event pattern is tiled ``tiles`` times, with note lengths that make
    the recording ``seconds`` long. With ``transpose_middle`` the
    middle event moves up one semitone so that its pitch occurs nowhere else
    and only shifted neighbors can repair it. Stereo files pan the source and
    the interference differently on the second channel. The interference is
    an :data:`INTERFERENCE` clip, the same for every seed; the seed draws a
    noise floor under the source (see :data:`NOISE_FLOOR`).
    """

    name: str
    content: str
    seconds: float
    tiles: int
    channels: int
    interference_s: float
    placement: str
    transpose_middle: bool = False
    sample_rate: float = 44100.0
    k: int = 300
    delta: int = 48

    def build(self, seed: int, workdir: Path) -> "SeparateInputs":
        params = TransformParams(sample_rate=self.sample_rate)
        events_of = synth.melody_events if self.content == "melody" else synth.chord_events
        n_events = len(events_of(0)) * self.tiles
        events = list(events_of(0, (self.seconds - 2 * RENDER_LEAD_S) / n_events)) * self.tiles
        if self.transpose_middle:
            freqs, duration = events[len(events) // 2]
            events[len(events) // 2] = (tuple(f * 2.0 ** (1 / 12) for f in freqs), duration)
        clip = synth.interference_clip(INTERFERENCE, self.sample_rate, duration=self.interference_s)
        scene = evaluate.build_scene(
            events, clip, self.placement, SNR_DB, params=params, content=self.content
        )
        pan_source = np.array([1.0, 0.7][: self.channels])
        pan_interference = np.array([1.0, 1.3][: self.channels])
        clean, mixture = add_noise_floor(
            scene.clean[:, None] * pan_source,
            scene.interference[:, None] * pan_interference,
            np.random.default_rng(seed),
        )
        wav = workdir / "input.wav"
        write_wav(wav, mixture[:, 0] if self.channels == 1 else mixture, self.sample_rate, "float32")
        written, _, _ = read_wav(wav)

        nz = np.nonzero(scene.interference)[0]
        lo, hi = float(nz[0] / self.sample_rate), float((nz[-1] + 1) / self.sample_rate)
        n = len(scene.clean)
        cli_support = frames_overlapping(params, n_frames_for(params, n), lo, hi)
        if tuple(int(t) for t in cli_support) != scene.support:
            raise RuntimeError("--support seconds do not map back to the scene's support frames")
        return SeparateInputs(
            wav=wav,
            support=f"{lo!r}:{hi!r}",
            clean=clean,
            written=written.reshape(n, -1),
            sample_mask=evaluate.support_sample_mask(scene.support, params, n),
            outdir=workdir / "out",
            params=params,
        )

    def warm_up(self, inputs: "SeparateInputs") -> None:
        _fill_transform_caches(inputs.written[:, 0], inputs.params)

    def run_round(self, inputs: "SeparateInputs") -> Round:
        rnd = Round()
        for variant in VARIANTS:
            argv = [
                "separate",
                "--input", str(inputs.wav),
                "--output-dir", str(inputs.outdir),
                "--variant", FLAG_BY_VARIANT[variant],
                "--support", inputs.support,
                "--k", str(self.k),
                "--delta", str(self.delta),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - t0
            rnd.seconds += seconds
            rnd.cells.append(self.check(variant, seconds, code, inputs))
        return rnd

    @staticmethod
    def check(variant: str, seconds: float, code: int, inputs: "SeparateInputs") -> Cell:
        cell = Cell(variant, seconds)
        if code != 0:
            cell.error = f"exit code {code}"
            return cell
        try:
            source = read_wav(inputs.outdir / "source.wav")[0].reshape(inputs.written.shape)
            interference = read_wav(inputs.outdir / "interference.wav")[0].reshape(inputs.written.shape)
        except (OSError, ValueError) as exc:
            cell.error = f"unreadable output: {exc}"
            return cell
        cell.error = complementarity_error(source, interference, inputs.written)
        if cell.error:
            return cell
        cell.nsdr = float(
            np.mean(
                [
                    evaluate.nsdr(inputs.clean[:, ch], inputs.written[:, ch], source[:, ch], inputs.sample_mask)
                    for ch in range(inputs.written.shape[1])
                ]
            )
        )
        if not math.isfinite(cell.nsdr):
            cell.error = "non-finite NSDR"
        return cell


@dataclass
class SeparateInputs:
    wav: Path
    support: str
    clean: np.ndarray  # (n, channels) reference sources
    written: np.ndarray  # (n, channels) input as stored in the WAV
    sample_mask: np.ndarray
    outdir: Path
    params: TransformParams


def _fill_transform_caches(signal: np.ndarray, params: TransformParams) -> None:
    """Untimed warm-up: one short analysis/resynthesis fills the cached
    analysis kernel and mask back-map that every later call reuses."""
    inverse_logfreq(forward_logfreq(signal[: 4 * params.window_length], params))


# ---------------------------------------------------------------- grid workload


@dataclass(frozen=True)
class GridWorkload:
    """The bundled evaluation grid: many small scenes at 22.05 kHz.

    The scenes are those of ``sikam eval --seed 0``; the seed draws a noise
    floor under each source (see :data:`NOISE_FLOOR`).
    """

    name: str
    scenes_per_condition: int
    contents: tuple[str, ...] = ("melody", "chords")
    placements: tuple[str, ...] = ("repeated", "not_repeated")

    def build(self, seed: int, workdir: Path) -> "GridInputs":
        rng = np.random.default_rng(seed)
        conditions = []
        for content in self.contents:
            for placement in self.placements:
                scenes = []
                for scene in evaluate.default_scene_grid(content, placement, n_scenes=self.scenes_per_condition):
                    clean, mixture = add_noise_floor(scene.clean, scene.interference, rng)
                    scenes.append(replace(scene, clean=clean, mixture=mixture))
                conditions.append(scenes)
        return GridInputs(conditions=conditions, config=SeparationConfig())

    def warm_up(self, inputs: "GridInputs") -> None:
        scene = inputs.conditions[0][0]
        _fill_transform_caches(scene.mixture, scene.params)

    def run_round(self, inputs: "GridInputs") -> Round:
        rnd = Round()
        for scenes in inputs.conditions:
            error = ""
            with CellProbe() as probe:
                t0 = time.perf_counter()
                try:
                    results = evaluate.run_grid(scenes, VARIANTS, inputs.config)
                except (ValueError, ArithmeticError) as exc:
                    results, error = [], f"run_grid raised {exc!r}"
                seconds = time.perf_counter() - t0
            rnd.seconds += seconds
            rnd.cells.extend(self.check(scenes, results, probe.cells, seconds, error))
        return rnd

    def check(self, scenes, results, probed, seconds, error) -> list[Cell]:
        """One cell per (scene, variant); cells run_grid did not deliver get an
        equal share of the call's wall time and fail."""
        expected = [(scene, v) for scene in scenes for v in VARIANTS]
        cells = []
        for i, (scene, variant) in enumerate(expected):
            if i >= min(len(results), len(probed)):
                cells.append(Cell(variant, seconds / len(expected), error=error or "cell missing from run_grid"))
                continue
            cell_seconds, interference, estimate = probed[i]
            cell = Cell(variant, cell_seconds, nsdr=results[i].nsdr)
            cell.error = complementarity_error(estimate, inverse_logfreq(interference), scene.mixture)
            if not cell.error and not math.isfinite(cell.nsdr):
                cell.error = "non-finite NSDR"
            cells.append(cell)
        return cells


@dataclass
class GridInputs:
    conditions: list
    config: SeparationConfig


class CellProbe:
    """Records each grid cell (``separate`` + ``inverse_logfreq``) from outside.

    Replaces the two names ``evaluate`` looks up with thin wrappers that take
    two clock readings and keep the outputs for the checks. Installed over
    the tracer's wrappers when both are active.
    """

    def __init__(self):
        self.cells: list[tuple[float, object, np.ndarray]] = []
        self._pending = None

    def __enter__(self):
        separate, inverse = evaluate.separate, evaluate.inverse_logfreq
        self._saved = (separate, inverse)

        def probed_separate(spect, config):
            t0 = time.perf_counter()
            source, interference = separate(spect, config)
            self._pending = (t0, source, interference)
            return source, interference

        def probed_inverse(spect):
            signal = inverse(spect)
            t1 = time.perf_counter()
            if self._pending is not None and spect is self._pending[1]:
                t0, _, interference = self._pending
                self.cells.append((t1 - t0, interference, signal))
                self._pending = None
            return signal

        evaluate.separate, evaluate.inverse_logfreq = probed_separate, probed_inverse
        return self

    def __exit__(self, *exc):
        evaluate.separate, evaluate.inverse_logfreq = self._saved
        return False


WORKLOADS = {
    w.name: w
    for w in (
        SeparateWorkload(
            name="melody20-mono",
            content="melody",
            seconds=20.0,
            tiles=5,
            channels=1,
            interference_s=0.35,
            placement="not_repeated",
            transpose_middle=True,
        ),
        SeparateWorkload(
            name="chords20-stereo",
            content="chords",
            seconds=20.0,
            tiles=5,
            channels=2,
            interference_s=0.1,
            placement="repeated",
        ),
        GridWorkload(name="eval-grid", scenes_per_condition=4),
    )
}
