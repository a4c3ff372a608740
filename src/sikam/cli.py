"""Command-line interface: the separate, eval and bench subcommands.

Every `separate` setting is a flag whose default comes from SeparationConfig
or TransformParams. A manifest (`--config run.cfg`) line `key = value` is read
as the flag `--key=value` (`_` in the key read as `-`), placed before the
command line's flags so that those win.

Exit codes: 0 on success, 2 for bad arguments (an unknown flag or manifest
key, a malformed value, or a setting out of range such as k < 1), 3 for I/O
failures (also an unreadable manifest), 4 for configurations that are valid
in form but infeasible for the given input (for example a candidate pool
smaller than k). Codes 2 and 4 are raised before anything is written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
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
    support_gains,
)
from .timefreq import (
    TransformError,
    TransformParams,
    _mask_backmap,
    _synthesis_window,
    _two_threads,
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

# The TransformParams fields a `separate` run takes as flags; the sample rate
# comes from the input file.
_TRANSFORM_FLAGS = ("f_min", "bins_per_octave", "hop", "window_length", "window_policy", "gamma")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` for a bad flag, so :func:`main` returns 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _manifest_flags(path) -> list[str]:
    """The `key = value` lines of a manifest as `--key=value` flags.

    `#` starts a comment. The `=` form keeps a value that starts with `-`,
    such as a negative number, a value.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeError) as exc:
        raise AudioIOError(f"cannot read manifest {path}: {exc}") from exc
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


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
        # false for a NaN bound too
        if not 0 <= lo < hi < float("inf"):
            raise UsageError(f"bad support range {part!r}: need 0 <= start < end < inf")
        ranges.append((lo, hi))
    return ranges


def _make_dir(path: Path) -> Path:
    """Create ``path`` and its parents if missing; failures are I/O errors."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise AudioIOError(f"cannot create {path}: {exc}") from exc
    return path


def _shift_histogram(plan) -> dict[str, int]:
    values, counts = np.unique(plan.shifts, return_counts=True)
    return {str(int(v)): int(c) for v, c in zip(values, counts)}


def _kernel_config(args, **settings) -> SeparationConfig:
    """The --k, --delta and --p flags as a config; a value out of range is a usage error."""
    try:
        return SeparationConfig(k=args.k, delta=args.delta, surplus=args.p, **settings)
    except KernelError as exc:
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _timed(name: str, wall: dict, cpu: dict):
    """Record the block's wall time and the process's CPU time in it under ``name``."""
    w, c = time.perf_counter(), time.process_time()
    yield
    wall[name] = time.perf_counter() - w
    cpu[name] = time.process_time() - c


def _by_parity(step, count: int) -> None:
    """``step(ch)`` for every channel: the caller takes channels 0, 2, ... and,
    from two channels on, a worker thread takes 1, 3, ..."""

    def run(first):
        for ch in range(first, count, 2):
            step(ch)

    if count == 1:
        run(0)
    else:
        _two_threads(lambda: run(0), lambda: run(1))


def cmd_separate(args) -> int:
    if not args.input:
        raise UsageError("no input file given (flag --input or manifest key)")
    config = _kernel_config(args, variant=VARIANT_BY_FLAG[args.variant])
    ranges = parse_support_ranges(args.support)

    timings: dict[str, float] = {}
    cpu: dict[str, float] = {}
    with _timed("read", timings, cpu):
        samples, rate, subtype = read_wav(args.input)

    params = TransformParams(
        sample_rate=rate, **{name: getattr(args, name) for name in _TRANSFORM_FLAGS}
    )
    # An (n, channels) view, mono included; reshape(n, -1) fails on an empty input.
    channels = np.atleast_2d(samples.T).T
    n_channels = channels.shape[1]
    duration = channels.shape[0] / rate
    for lo, hi in ranges:
        if lo >= duration:
            raise KernelError(
                f"support range {lo}:{hi} lies beyond the {duration:.2f}s input"
            )

    with _timed("analysis", timings, cpu):
        spects = [forward_logfreq(channels[:, ch], params) for ch in range(n_channels)]

    n_frames = spects[0].n_frames
    support: set[int] = set()
    for lo, hi in ranges:
        # An end past the input covers no more frames, and a huge one would
        # overflow the sample count.
        hi = min(hi, duration)
        support.update(int(t) for t in frames_overlapping(params, n_frames, lo, hi))
    config = dataclasses.replace(config, support=frozenset(support))

    # Shared neighbor sets from the channel-mean magnitude.
    with _timed("neighbor_search", timings, cpu):
        # A running sum, not a stack of every channel's magnitude; divided by
        # the count it is the same mean bit for bit.
        mean_mag = np.zeros(spects[0].data.shape)
        for ch in range(n_channels):
            mean_mag += np.abs(spects[ch].data)
        mean_mag /= n_channels
        plan = plan_neighbors(mean_mag, config)
        del mean_mag

    # The channels are split by parity over two threads, first to mask, then
    # to resynthesize. Each channel's gains are an (F, support) block, and
    # only its support columns are scaled; its spectrograms go as soon as its
    # source samples exist, so none is alive when writing. The shared outputs
    # and the caches the resynthesis reads are made in the caller, before the
    # threads that use them start.
    masked = [None] * n_channels
    _mask_backmap(params)
    _synthesis_window(params)

    def mask(ch):
        spect, spects[ch] = spects[ch], None
        gains = support_gains(np.abs(spect.data), plan)
        data = spect.data.copy(order="K")
        data[:, plan.targets] *= gains
        masked[ch] = spect.with_data(data)

    def resynthesize(ch):
        spect, masked[ch] = masked[ch], None
        inverse_logfreq(spect, out=source[:, ch])

    with _timed("estimation_masking", timings, cpu):
        _by_parity(mask, n_channels)
    with _timed("resynthesis", timings, cpu):
        # allocated after the masking, whose peak it would otherwise raise
        source = np.empty(channels.shape)
        _by_parity(resynthesize, n_channels)
        # Only the source is resynthesized: the interference is what it
        # leaves of the input, so the two outputs sum to the input by
        # construction.
        interference = np.subtract(channels, source, out=channels)

    out_dir = _make_dir(Path(args.output_dir))
    with _timed("write", timings, cpu):
        _two_threads(
            lambda: write_wav(out_dir / "source.wav", source, rate, subtype),
            lambda: write_wav(out_dir / "interference.wav", interference, rate, subtype),
        )

    report = {
        "config": {
            name: value for name, value in vars(args).items() if name not in ("command", "fn")
        },
        "sample_rate": rate,
        "channels": n_channels,
        "n_frames": n_frames,
        "support_frames": sorted(support),
        "candidate_pool": n_frames - len(support),
        # wall seconds of each layer; the CPU seconds of all its threads
        "timings_sec": {k: round(v, 6) for k, v in timings.items()},
        "cpu_sec": {k: round(v, 6) for k, v in cpu.items()},
        "neighbor_stats": {
            "targets": len(plan),
            "k": config.k,
            "surplus": config.surplus_used,
            # true where the search keeps or re-ranks every candidate frame
            "pool_is_every_candidate": config.k + config.surplus_used == n_frames - len(support),
            "shift_histogram": _shift_histogram(plan),
        },
        "outputs": ["source.wav", "interference.wav"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {out_dir / 'source.wav'} and {out_dir / 'interference.wav'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _kernel_config(args)
    if args.scenes_per_condition < 1:
        raise UsageError(f"--scenes-per-condition must be >= 1, got {args.scenes_per_condition}")
    if not np.isfinite(args.snr):
        raise UsageError(f"--snr must be a finite number of dB, got {args.snr}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
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
    try:
        points = benchmod.run_bench(sizes, k=args.k, reps=args.reps, seed=args.seed)
    except KernelError as exc:
        # bench has no input that a setting could be infeasible for
        raise UsageError(str(exc)) from exc
    print(benchmod.report(points))
    if args.output:
        payload = [dataclasses.asdict(p) for p in points]
        _make_dir(Path(args.output).parent)
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"\nwrote {args.output}")
    return EXIT_OK


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=SeparationConfig.k, help="neighbors per frame")
    parser.add_argument(
        "--delta", type=int, default=SeparationConfig.delta, help="maximum shift in bins"
    )
    parser.add_argument(
        "--p", type=int, default=SeparationConfig.surplus, help="pruning surplus (default 2k)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sikam",
        description="Interference reduction via shift-invariant kernel additive modelling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviated flags, so a manifest key is the whole flag name.
    p_sep = sub.add_parser(
        "separate", help="separate one WAV into source + interference", allow_abbrev=False
    )
    p_sep.add_argument("--input", help="input WAV (16-bit PCM or 32-bit float)")
    p_sep.add_argument("--output-dir", default=".", help="where to write outputs")
    # "baseline" names both the variant and its flag.
    p_sep.add_argument(
        "--variant",
        choices=sorted(VARIANT_BY_FLAG),
        default=SeparationConfig.variant,
        help="kernel variant",
    )
    _add_kernel_flags(p_sep)
    p_sep.add_argument(
        "--support",
        default="",
        help="interference location, seconds: start:end[,start:end...]",
    )
    for name in _TRANSFORM_FLAGS:
        default = getattr(TransformParams, name)
        p_sep.add_argument(
            "--" + name.replace("_", "-"),
            type=type(default),
            default=default,
            help="log-frequency transform setting (default %(default)s)",
        )
    p_sep.add_argument("--config", help="manifest file of `flag_name = value` lines")
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
    _add_kernel_flags(p_eval)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The manifest's flags go right after the command, so the command line wins.
            args = parser.parse_args(argv[:1] + _manifest_flags(args.config) + argv[1:])
        return args.fn(args)
    except (UsageError, TransformError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AudioIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KernelError, evaluate.EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
