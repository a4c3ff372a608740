"""Synthetic evaluation harness: scenes, SDR metrics and the method grid.

Builds mixtures of a harmonic source and a short interference burst at a
known SNR, with the burst centered either on a repeated or on a unique
musical event, runs the separation variants over them, and scores the
results with an energy-ratio signal-to-distortion measure restricted to the
interfered segment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import synth
from .kam import SeparationConfig, separate
from .timefreq import (
    TransformParams,
    _covered,
    forward_logfreq,
    frames_overlapping_samples,
    inverse_logfreq,
    n_frames_for,
)

SDR_CEILING_DB = 100.0

# Desk-scale analysis setup for the bundled grids; synthetic scenes do not
# need full-band sampling and this keeps the exhaustive variant affordable.
EVAL_PARAMS = TransformParams(sample_rate=22050.0)


class EvalError(ValueError):
    """Invalid evaluation input (degenerate reference, bad placement...)."""


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """A clean source, an interference and their mixture, plus ground truth."""

    scene_id: str
    content: str
    placement: str
    clean: np.ndarray
    interference: np.ndarray
    mixture: np.ndarray
    support: tuple[int, ...]
    params: TransformParams
    snr_db: float
    timbre_name: str = ""
    interference_kind: str = ""


@dataclass(frozen=True)
class EvalResult:
    """Scores of one (scene, variant) cell; nsdr = sdr_estimate - sdr_mixture."""

    scene_id: str
    content: str
    placement: str
    variant: str
    sdr_mixture: float
    sdr_estimate: float
    nsdr: float


def _pick_event(events, placement: str) -> int:
    """Index of the event to overlay, nearest to the middle of the sequence.

    "repeated" needs an event whose pitch set occurs at least twice;
    "not_repeated" one that occurs exactly once. The first and last events
    are never picked (edge frames lack context on one side).
    """
    keys = [tuple(freqs) for freqs, _ in events]
    counts = {k: keys.count(k) for k in set(keys)}
    if placement == "repeated":
        eligible = [i for i in range(1, len(events) - 1) if counts[keys[i]] >= 2]
    elif placement == "not_repeated":
        eligible = [i for i in range(1, len(events) - 1) if counts[keys[i]] == 1]
    else:
        raise EvalError(f"unknown placement {placement!r}")
    if not eligible:
        raise EvalError(
            f"event list has no interior {placement} event to overlay"
        )
    mid = (len(events) - 1) / 2.0
    return min(eligible, key=lambda i: (abs(i - mid), i))


def build_scene(
    events,
    clip: np.ndarray,
    placement: str,
    snr_db: float,
    params: TransformParams = EVAL_PARAMS,
    timbre: synth.Timbre = synth.TIMBRES[0],
    content: str = "melody",
    scene_id: str = "scene",
    interference_kind: str = "",
) -> SyntheticScene:
    """Mix a rendered event sequence with an interference burst at a set SNR.

    The burst is centered on a repeated or unique event (see ``placement``)
    and scaled so that the source-to-interference energy ratio over the
    burst's nonzero extent equals ``snr_db``. The support is every analysis
    frame whose window sees at least one nonzero interference sample.
    """
    clean, spans = synth.render_events(events, params.sample_rate, timbre)
    clip = np.asarray(clip, dtype=np.float64)
    nz = np.nonzero(clip)[0]
    if len(nz) == 0:
        raise EvalError("interference clip is silent")
    idx = _pick_event(events, placement)
    start, end = spans[idx]
    if len(clip) > end - start:
        raise EvalError(
            f"interference ({len(clip)} samples) is longer than the overlaid "
            f"event ({end - start} samples)"
        )
    onset = (start + end) // 2 - len(clip) // 2
    ext_lo, ext_hi = onset + nz[0], onset + nz[-1] + 1

    e_clean = float(np.dot(clean[ext_lo:ext_hi], clean[ext_lo:ext_hi]))
    if e_clean == 0:
        raise EvalError("clean source is silent under the interference")
    e_clip = float(np.dot(clip[nz[0] : nz[-1] + 1], clip[nz[0] : nz[-1] + 1]))
    gain = np.sqrt(e_clean / (e_clip * 10.0 ** (snr_db / 10.0)))

    interference = np.zeros_like(clean)
    interference[onset : onset + len(clip)] = gain * clip
    mixture = clean + interference
    support = frames_overlapping_samples(
        params, n_frames_for(params, len(clean)), ext_lo, ext_hi
    )
    return SyntheticScene(
        scene_id=scene_id,
        content=content,
        placement=placement,
        clean=clean,
        interference=interference,
        mixture=mixture,
        support=tuple(int(t) for t in support),
        params=params,
        snr_db=snr_db,
        timbre_name=timbre.name,
        interference_kind=interference_kind,
    )


def support_sample_mask(
    support, params: TransformParams, n_samples: int
) -> np.ndarray:
    """Boolean sample mask of the segment owned by the support frames.

    Frame t owns the hop interval [t * hop, (t + 1) * hop), cut to the
    signal; a frame outside it owns no sample.
    """
    return _covered(np.asarray(support, dtype=int) * params.hop, params.hop, n_samples)


def sdr(reference, estimate, sample_mask=None) -> float:
    """Energy-ratio signal-to-distortion ratio in dB, capped at +100.

    ``10 * log10(sum(ref^2) / sum((ref - est)^2))`` over the (optionally
    restricted) samples. Raises :class:`EvalError` for a NaN or infinite
    sample, and when the reference carries no energy on the restricted segment.
    """
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise EvalError("reference and estimate lengths differ")
    if not (np.isfinite(ref).all() and np.isfinite(est).all()):
        raise EvalError("reference and estimate must be finite")
    if sample_mask is not None:
        ref = ref[sample_mask]
        est = est[sample_mask]
    e_ref = float(np.dot(ref, ref))
    if e_ref == 0:
        raise EvalError("reference is all zero on the restricted segment")
    err = est - ref
    e_err = float(np.dot(err, err))
    if e_err < 1e-20 * e_ref:
        return SDR_CEILING_DB
    return min(10.0 * np.log10(e_ref / e_err), SDR_CEILING_DB)


def nsdr(reference, mixture, estimate, sample_mask=None) -> float:
    """SDR improvement of the estimate over the unprocessed mixture, in dB."""
    return sdr(reference, estimate, sample_mask) - sdr(reference, mixture, sample_mask)


def adapt_config(config: SeparationConfig, pool: int) -> SeparationConfig:
    """Clamp k (and the pruning surplus) to what the candidate pool can supply."""
    k_eff = max(1, min(config.k, pool // 2))
    surplus_eff = min(config.surplus, max(pool - k_eff, 0))
    return replace(config, k=k_eff, surplus=surplus_eff)


def evaluate_scene(scene: SyntheticScene, variants, config: SeparationConfig) -> list[EvalResult]:
    """Run each variant over one scene and score it on the support segment."""
    spect = forward_logfreq(scene.mixture, scene.params)
    mask = support_sample_mask(scene.support, scene.params, len(scene.mixture))
    sdr_mix = sdr(scene.clean, scene.mixture, mask)
    pool = spect.n_frames - len(scene.support)
    results = []
    for variant in variants:
        cfg = adapt_config(
            replace(config, variant=variant, support=frozenset(scene.support)), pool
        )
        source, _ = separate(spect, cfg)
        estimate = inverse_logfreq(source)
        sdr_est = sdr(scene.clean, estimate, mask)
        results.append(
            EvalResult(
                scene_id=scene.scene_id,
                content=scene.content,
                placement=scene.placement,
                variant=variant,
                sdr_mixture=sdr_mix,
                sdr_estimate=sdr_est,
                nsdr=sdr_est - sdr_mix,
            )
        )
    return results


def run_grid(scenes, variants, config: SeparationConfig) -> list[EvalResult]:
    """Evaluate every (scene, variant) cell; one result row per cell."""
    results = []
    for scene in scenes:
        results.extend(evaluate_scene(scene, variants, config))
    return results


def default_scene_grid(
    content: str,
    placement: str,
    n_scenes: int = 20,
    snr_db: float = 12.0,
    seed: int = 0,
) -> tuple[SyntheticScene, ...]:
    """Bundled desk-scale grid: melodies (or chords) x timbres x interferences.

    Scene i uses melody ``i % 5``, timbre ``(i // 5) % 4`` and interference
    kind ``i % 4``, so 20 scenes cover the full crossing. Every scene uses
    :data:`EVAL_PARAMS` and the patterns' default 0.6 s notes.
    """
    if content == "melody":
        make_events = synth.melody_events
    elif content == "chords":
        make_events = synth.chord_events
    else:
        raise EvalError(f"unknown content {content!r}")
    scenes = []
    for i in range(n_scenes):
        timbre = synth.TIMBRES[(i // 5) % len(synth.TIMBRES)]
        kind = synth.INTERFERENCE_KINDS[i % len(synth.INTERFERENCE_KINDS)]
        clip = synth.interference_clip(
            kind, EVAL_PARAMS.sample_rate, duration=0.35, seed=seed + i
        )
        scenes.append(
            build_scene(
                make_events(i % 5),
                clip,
                placement,
                snr_db,
                timbre=timbre,
                content=content,
                scene_id=f"{content}{i % 5}-{timbre.name}-{kind}-{placement}-{i:02d}",
                interference_kind=kind,
            )
        )
    return tuple(scenes)


CSV_COLUMNS = ("scene_id", "content", "placement", "variant", "sdr_mix", "sdr_est", "nsdr")


def write_csv(results, path) -> None:
    """Write one row per result with the standard column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow(
                [
                    r.scene_id,
                    r.content,
                    r.placement,
                    r.variant,
                    f"{r.sdr_mixture:.4f}",
                    f"{r.sdr_estimate:.4f}",
                    f"{r.nsdr:.4f}",
                ]
            )


def summary_table(results) -> str:
    """Mean NSDR per variant and condition, as a plain-text table; ``-`` marks an empty cell."""
    nsdrs = {}  # variant -> {(content, placement): [nsdr, ...]}, in order of first appearance
    for r in results:
        nsdrs.setdefault(r.variant, {}).setdefault((r.content, r.placement), []).append(r.nsdr)
    conditions = [
        (c, p)
        for c in ("melody", "chords")
        for p in ("repeated", "not_repeated")
        if any((c, p) in cells for cells in nsdrs.values())
    ]
    width = max([len(v) for v in nsdrs] + [12])
    header = " " * (width + 2) + "  ".join(f"{c[:6]}/{p[:7]:>7}" for c, p in conditions)
    lines = [header]
    for variant, cells in nsdrs.items():
        row = "".join(
            f"{np.mean(cells[cond]):14.2f}" if cond in cells else f"{'-':>14}"
            for cond in conditions
        )
        lines.append(f"{variant:<{width}}  {row}")
    return "\n".join(lines)
