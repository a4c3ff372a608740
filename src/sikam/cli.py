"""Command-line interface: the separate, eval and bench subcommands.

Exit codes: 0 on success, 2 for bad arguments, 3 for I/O failures, 4 for
configurations that are valid in form but infeasible for the given input
(for example a candidate pool smaller than k).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as benchmod
from . import evaluate
from .audio_io import AudioIOError, read_wav, write_wav
from .kam import (
    KernelError,
    SeparationConfig,
    plan_neighbors,
    separation_masks,
)
from .timefreq import (
    TransformError,
    TransformParams,
    forward_logfreq,
    frames_overlapping,
    inverse_logfreq,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4

VARIANT_BY_FLAG = {
    "baseline": "baseline",
    "shift": "shift_exhaustive",
    "specmurt": "specmurt",
    "specmurt-pruned": "specmurt_pruned",
}


class UsageError(ValueError):
    pass


@dataclasses.dataclass
class RunManifest:
    """Everything one `separate` run needs; file values, then flag overrides."""

    input: str = ""
    output_dir: str = "."
    variant: str = "baseline"
    k: int = 300
    delta: int = 48
    p: int = -1  # -1 means the default surplus (2 * k)
    support: str = ""
    seed: int = 0
    f_min: float = 27.5
    bins_per_octave: int = 24
    hop: int = 512
    window_length: int = 4096
    window_policy: str = "fixed"
    gamma: float = 20.0
    drop_head: int = 1
    clamp_shifts: bool = True

    @classmethod
    def from_file(cls, path) -> "RunManifest":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise AudioIOError(f"cannot read manifest {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in fields:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            ftype = fields[key].type
            try:
                if ftype == "bool" or ftype is bool:
                    values[key] = value.lower() in ("1", "true", "yes", "on")
                elif ftype == "int" or ftype is int:
                    values[key] = int(value)
                elif ftype == "float" or ftype is float:
                    values[key] = float(value)
                else:
                    values[key] = value
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        return cls(**values)


def parse_support_ranges(text: str) -> list[tuple[float, float]]:
    """Parse 'start:end[,start:end...]' in seconds."""
    if not text.strip():
        return []
    ranges = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise UsageError(f"bad support range {part!r}, expected start:end")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError as exc:
            raise UsageError(f"bad support range {part!r}: {exc}") from exc
        if hi <= lo or lo < 0:
            raise UsageError(f"bad support range {part!r}: need 0 <= start < end")
        ranges.append((lo, hi))
    return ranges


def _make_dir(path: Path) -> Path:
    """Create ``path`` and its parents if missing; failures are I/O errors."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise AudioIOError(f"cannot create {path}: {exc}") from exc
    return path


def _shift_histogram(plans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for nset in plans.values():
        for _, shift in nset.neighbors:
            key = str(shift)
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: int(kv[0])))


def cmd_separate(args) -> int:
    manifest = (
        RunManifest.from_file(args.config) if args.config else RunManifest()
    )
    for name in (
        "input",
        "output_dir",
        "variant",
        "k",
        "delta",
        "p",
        "support",
        "seed",
    ):
        value = getattr(args, name)
        if value is not None:
            setattr(manifest, name, value)
    if not manifest.input:
        raise UsageError("no input file given (flag --input or manifest key)")
    if manifest.variant not in VARIANT_BY_FLAG:
        raise UsageError(
            f"unknown variant {manifest.variant!r}; "
            f"choose from {', '.join(VARIANT_BY_FLAG)}"
        )
    ranges = parse_support_ranges(manifest.support)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    samples, rate, subtype = read_wav(manifest.input)
    timings["read"] = time.perf_counter() - t0

    params = TransformParams(
        sample_rate=rate,
        bins_per_octave=manifest.bins_per_octave,
        f_min=manifest.f_min,
        hop=manifest.hop,
        window_length=manifest.window_length,
        window_policy=manifest.window_policy,
        gamma=manifest.gamma,
    )
    channels = samples[:, None] if samples.ndim == 1 else samples
    duration = channels.shape[0] / rate
    for lo, hi in ranges:
        if lo >= duration:
            raise KernelError(
                f"support range {lo}:{hi} lies beyond the {duration:.2f}s input"
            )

    t0 = time.perf_counter()
    spects = [forward_logfreq(channels[:, ch], params) for ch in range(channels.shape[1])]
    timings["analysis"] = time.perf_counter() - t0

    n_frames = spects[0].n_frames
    support: set[int] = set()
    for lo, hi in ranges:
        support.update(int(t) for t in frames_overlapping(params, n_frames, lo, hi))
    config = SeparationConfig(
        k=manifest.k,
        delta=manifest.delta,
        surplus=None if manifest.p < 0 else manifest.p,
        variant=VARIANT_BY_FLAG[manifest.variant],
        support=frozenset(support),
        drop_head=manifest.drop_head,
        clamp_shifts=manifest.clamp_shifts,
    )

    # Shared neighbor sets from the channel-mean magnitude.
    t0 = time.perf_counter()
    mean_mag = np.mean([np.abs(s.data) for s in spects], axis=0)
    plans = plan_neighbors(mean_mag, config)
    timings["neighbor_search"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    source_ch = [
        s.with_data(s.data * separation_masks(np.abs(s.data), config, plans=plans))
        for s in spects
    ]
    timings["estimation_masking"] = time.perf_counter() - t0

    # Only the source is resynthesized: the interference is what it leaves of
    # the input, so the two outputs sum to the input by construction.
    t0 = time.perf_counter()
    source = np.stack([inverse_logfreq(s) for s in source_ch], axis=-1)
    interference = channels - source
    if samples.ndim == 1:
        source, interference = source[:, 0], interference[:, 0]
    timings["resynthesis"] = time.perf_counter() - t0

    out_dir = _make_dir(Path(manifest.output_dir))
    t0 = time.perf_counter()
    write_wav(out_dir / "source.wav", source, rate, subtype)
    write_wav(out_dir / "interference.wav", interference, rate, subtype)
    timings["write"] = time.perf_counter() - t0

    report = {
        "config": dataclasses.asdict(manifest),
        "sample_rate": rate,
        "channels": channels.shape[1],
        "n_frames": n_frames,
        "support_frames": sorted(support),
        "candidate_pool": n_frames - len(support),
        "timings_sec": {k: round(v, 6) for k, v in timings.items()},
        "neighbor_stats": {
            "targets": len(plans),
            "k": config.k,
            "shift_histogram": _shift_histogram(plans),
        },
        "outputs": ["source.wav", "interference.wav"],
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {out_dir / 'source.wav'} and {out_dir / 'interference.wav'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    contents = ("melody", "chords") if args.content == "both" else (args.content,)
    placements = (
        ("repeated", "not_repeated") if args.placement == "both" else (args.placement,)
    )
    variants = []
    for flag in args.variants.split(","):
        flag = flag.strip()
        if flag not in VARIANT_BY_FLAG:
            raise UsageError(f"unknown variant {flag!r}")
        variants.append(VARIANT_BY_FLAG[flag])
    config = SeparationConfig(
        k=args.k, delta=args.delta, surplus=None if args.p < 0 else args.p
    )
    results = []
    for content in contents:
        for placement in placements:
            scenes = evaluate.default_scene_grid(
                content,
                placement,
                n_scenes=args.scenes_per_condition,
                snr_db=args.snr,
                seed=args.seed,
            )
            results.extend(evaluate.run_grid(scenes, variants, config))
    out_dir = _make_dir(Path(args.output_dir))
    evaluate.write_csv(results, out_dir / "results.csv")
    table = evaluate.summary_table(results)
    (out_dir / "summary.txt").write_text(table + "\n")
    print(table)
    print(f"\nwrote {out_dir / 'results.csv'} ({len(results)} rows)")
    return EXIT_OK


def _parse_sizes(text: str) -> list[tuple[int, int, int]]:
    sizes = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise UsageError(f"bad size {part!r}, expected F:T:DELTA")
        try:
            sizes.append((int(bits[0]), int(bits[1]), int(bits[2])))
        except ValueError as exc:
            raise UsageError(f"bad size {part!r}: {exc}") from exc
    return sizes


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    points = benchmod.run_bench(sizes, k=args.k, reps=args.reps, seed=args.seed)
    print(benchmod.format_table(points))
    ratios = benchmod.doubling_ratios(points)
    if ratios:
        print("\nratios between consecutive sizes:")
        for r in ratios:
            print(
                f"  {r['from']} -> {r['to']}: baseline x{r['baseline_total']:.2f}, "
                f"shift-similarity x{r['shift_similarity']:.2f}, "
                f"specmurt-similarity x{r['specmurt_similarity']:.2f}"
            )
    t_points = {}
    for p in points:
        t_points.setdefault((p.n_bins, p.max_shift), []).append(p)
    for (f, d), group in t_points.items():
        if len(group) >= 2 and len({p.n_frames for p in group}) == len(group):
            slope = benchmod.loglog_slope(
                [p.n_frames for p in group], [p.baseline_total for p in group]
            )
            print(f"\nlog-log slope of baseline vs T (F={f}, delta={d}): {slope:.2f}")
    d_points = {}
    for p in points:
        d_points.setdefault((p.n_bins, p.n_frames), []).append(p)
    for (f, t), group in d_points.items():
        if len(group) >= 2 and len({p.max_shift for p in group}) == len(group):
            slope = benchmod.loglog_slope(
                [2 * p.max_shift + 1 for p in group],
                [p.shift_similarity for p in group],
            )
            print(f"log-log slope of shift similarity vs (2*delta+1) (F={f}, T={t}): {slope:.2f}")
    if args.output:
        payload = [dataclasses.asdict(p) for p in points]
        _make_dir(Path(args.output).parent)
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"\nwrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sikam",
        description="Interference reduction via shift-invariant kernel additive modelling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sep = sub.add_parser("separate", help="separate one WAV into source + interference")
    p_sep.add_argument("--input", help="input WAV (16-bit PCM or 32-bit float)")
    p_sep.add_argument("--output-dir", dest="output_dir", help="where to write outputs")
    p_sep.add_argument("--variant", choices=sorted(VARIANT_BY_FLAG), help="kernel variant")
    p_sep.add_argument("--k", type=int, help="neighbors per processed frame")
    p_sep.add_argument("--delta", type=int, help="maximum frequency shift in bins")
    p_sep.add_argument("--p", type=int, help="pruning surplus (default 2*k)")
    p_sep.add_argument(
        "--support",
        help="interference location, seconds: start:end[,start:end...]",
    )
    p_sep.add_argument("--seed", type=int, help="recorded in the report")
    p_sep.add_argument("--config", help="manifest file with key = value lines")
    p_sep.set_defaults(fn=cmd_separate)

    p_eval = sub.add_parser("eval", help="run the bundled synthetic evaluation grid")
    p_eval.add_argument("--output-dir", dest="output_dir", default="eval_out")
    p_eval.add_argument("--content", choices=("melody", "chords", "both"), default="both")
    p_eval.add_argument(
        "--placement", choices=("repeated", "not_repeated", "both"), default="both"
    )
    p_eval.add_argument("--scenes-per-condition", type=int, default=20)
    p_eval.add_argument(
        "--variants",
        default="baseline,shift,specmurt,specmurt-pruned",
        help="comma-separated variant flags",
    )
    p_eval.add_argument("--k", type=int, default=300)
    p_eval.add_argument("--delta", type=int, default=48)
    p_eval.add_argument("--p", type=int, default=-1)
    p_eval.add_argument("--snr", type=float, default=12.0)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(fn=cmd_eval)

    p_bench = sub.add_parser("bench", help="time the kernel stages on random input")
    p_bench.add_argument(
        "--sizes",
        default="128:160:16,128:160:32,48:384:0,48:768:0",
        help="comma-separated F:T:DELTA triples",
    )
    p_bench.add_argument("--k", type=int, default=16)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", help="optional JSON output path")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AudioIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except evaluate.EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
