#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sikam, run from the repository root.

    python3 perfbench/run.py --workload melody20-mono --seed 1 --seconds 40 --trace 0

The workload's inputs are made from ``--seed``. After set-up, whole rounds
(every variant once through ``cli.main(["separate", ...])`` or
``evaluate.run_grid``) run while another round still fits in ``--seconds``;
at least one always runs. Every separation's outputs are checked. With
``--trace 0`` the rounds run bare and the end-to-end metrics are reported;
with ``--trace 1`` each bare round is followed by the same round under the
tracer and the per-layer metrics are reported. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory, never from
anywhere else: without it the run exits non-zero before printing a result.
"""

import os
import sys

# Single-threaded BLAS and OpenMP (at most nproc), fixed before numpy loads,
# so that every result is taken under the same conditions.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# A failed separation counts at the floor of the SDR scale, so that a failure
# always shows as a quality loss and never as a missing value.
FAILED_NSDR_DB = -100.0
VARIANTS = ("baseline", "shift_exhaustive", "specmurt", "specmurt_pruned")

# name -> (unit, description); the order is the order of the report.
END_TO_END = {
    **{
        f"separate_s.{v}": ("s", f"median wall of one whole {v} separation")
        for v in VARIANTS
    },
    **{
        f"nsdr_gain.{v}": ("ratio", f"10^(mean NSDR/10) of {v} on the support segment")
        for v in VARIANTS
    },
    "grid_cells_per_s": ("1/s", "(scene, variant) cells separated per second of timed calls"),
    "peak_rss_mb": ("MB", "ru_maxrss of this process"),
    "setup_s": ("s", "process start to ready for the first timed call"),
    "success_rate": ("ratio", "separations passing every output check / attempted"),
}


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other sikam."""
    if not (SRC / "sikam" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'sikam'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import sikam

    if Path(sikam.__file__).resolve().parent != (SRC / "sikam").resolve():
        sys.exit(f"perfbench: imported sikam from {sikam.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def set_up(workload, seed, workdir):
    """Build the inputs and run the untimed warm-up; what a fresh process pays."""
    inputs = workload.build(seed, workdir)
    workload.warm_up(inputs)
    return inputs


def process_age() -> float:
    """Seconds since this process started, from the kernel's record of its start."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARIABLES},
        "machine": platform.machine(),
    }


def measure(workload, inputs, seconds: float, tracer=None):
    """Run whole rounds while the next one fits; returns (bare, traced).

    With a tracer, each bare round is followed by the same round under it.
    """
    bare, traced = [], []
    start, longest = time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        bare.append(workload.run_round(inputs))
        if tracer is not None:
            with tracer:
                traced.append(workload.run_round(inputs))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return bare, traced


def mean_nsdr_db(cells) -> dict[str, float]:
    """Per variant, the mean NSDR in dB, a failed cell counting as :data:`FAILED_NSDR_DB`."""
    return {
        v: statistics.fmean(FAILED_NSDR_DB if c.error else c.nsdr for c in cells if c.variant == v)
        for v in VARIANTS
    }


def end_to_end_metrics(rounds, setup_s: float) -> tuple[dict, dict]:
    """Metric values and the sample count behind each.

    Quality is reported as the energy-improvement ratio 10^(NSDR/10) of the
    mean NSDR, which is positive, so that a relative bound means the same
    for a variant at -11 dB as for one at +7 dB.
    """
    cells = [cell for rnd in rounds for cell in rnd.cells]
    nsdr_db = mean_nsdr_db(cells)
    values, counts = {}, {}
    for v in VARIANTS:
        mine = [c for c in cells if c.variant == v]
        values[f"separate_s.{v}"] = statistics.median(c.seconds for c in mine)
        values[f"nsdr_gain.{v}"] = 10.0 ** (nsdr_db[v] / 10.0)
        counts[f"separate_s.{v}"] = counts[f"nsdr_gain.{v}"] = len(mine)
    values["grid_cells_per_s"] = len(cells) / sum(rnd.seconds for rnd in rounds)
    counts["grid_cells_per_s"] = len(rounds)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts["peak_rss_mb"] = 1
    values["setup_s"] = setup_s
    counts["setup_s"] = 1
    values["success_rate"] = sum(not c.error for c in cells) / len(cells)
    counts["success_rate"] = len(cells)
    return {n: {"value": float(values[n]), "unit": END_TO_END[n][0]} for n in END_TO_END}, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        inputs = set_up(workload, args.seed, workdir)
        setup_s = process_age()
        if args.trace:
            from tracing import LAYER_METRICS, Tracer

            tracer = Tracer()
            bare, traced = measure(workload, inputs, args.seconds, tracer)
            with Tracer() as build_tracer:
                workload.build(args.seed, workdir)
            scene_s = build_tracer.totals()[1]["evaluate.build_scene"]
        else:
            bare, traced = measure(workload, inputs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cells = [cell for rnd in bare + traced for cell in rnd.cells]
    failed = [c for c in cells if c.error]
    env = environment()
    if args.trace:
        descriptions = LAYER_METRICS
        metrics = tracer.layer_metrics(
            rounds=len(traced),
            traced_s=sum(r.seconds for r in traced),
            untraced_s=sum(r.seconds for r in bare),
            scene_s=scene_s,
        )
        counts = {name: len(traced) for name in metrics}
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        descriptions = END_TO_END
        metrics, counts = end_to_end_metrics(bare, setup_s)

    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']:<6} n={counts[name]:<4} {descriptions[name][1]}")
    for cell in failed[:10]:
        print(f"FAILED {cell.variant}: {cell.error}")
    nsdr_db = mean_nsdr_db(cells)
    print("mean NSDR dB:", ", ".join(f"{v} {db:.4f}" for v, db in nsdr_db.items()))
    print(f"{args.workload}: error_rate {len(failed)}/{len(cells)}, rounds {len(bare)} bare, {len(traced)} traced")
    print(json.dumps({"env": env}))
    result = {"correct": not failed, "attempted": len(cells), "failed": len(failed), "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                **result,
                "env": env,
                "samples": counts,
                "nsdr_db": nsdr_db,
                "cells": [[c.variant, c.seconds, c.nsdr, c.error] for c in cells],
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
