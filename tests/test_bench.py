import numpy as np
import pytest

from sikam import bench, cli, specmurt
from sikam.shiftkam import KernelError


def test_run_bench_reports_positive_times():
    (p,) = bench.run_bench([(16, 24, 2)], k=4, reps=1)
    assert p.baseline_total > 0
    assert p.shift_similarity > 0
    assert p.specmurt_similarity > 0


@pytest.mark.parametrize("k", [0, 24, 30])
def test_neighbor_count_outside_the_frames_rejected(k):
    with pytest.raises(KernelError):
        bench.run_bench([(16, 24, 2)], k=k, reps=1)


@pytest.mark.parametrize("reps", [0, -1])
def test_fewer_than_one_rep_rejected_before_measuring(monkeypatch, reps):
    def no_interpreter(*args, **kwargs):
        raise AssertionError("a measuring interpreter was started")

    monkeypatch.setattr(bench.subprocess, "run", no_interpreter)
    with pytest.raises(KernelError, match="reps"):
        bench.run_bench([(16, 24, 2)], k=4, reps=reps)


def test_specmurt_stage_searches_every_frame_with_the_shift_range(monkeypatch):
    calls = []

    def recorder(data, targets, cands, k, surplus, max_shift):
        calls.append((np.array(targets), k, surplus, max_shift))

    monkeypatch.setattr(specmurt, "_pruned_search", recorder)
    mag = np.random.default_rng(0).random((16, 40))
    for step in bench._stages(mag, 5, 4)["specmurt_similarity"]:
        step()
    assert calls
    assert all((k, surplus, max_shift) == (4, 0, 5) for _, k, surplus, max_shift in calls)
    targets = np.concatenate([t for t, *_ in calls])
    assert np.array_equal(np.sort(targets), np.arange(40))


# The README ladder with times chosen so that every ratio and slope is easy
# to check by hand: the baseline grows as T^2 at F=48.
LADDER = [
    bench.BenchPoint(128, 160, 16, 0.5, 1.0, 0.25),
    bench.BenchPoint(128, 160, 32, 0.5, 2.0, 0.25),
    bench.BenchPoint(48, 384, 0, 0.1, 0.2, 0.3),
    bench.BenchPoint(48, 768, 0, 0.4, 0.4, 0.3),
]
TABLE = [
    "    F      T  delta |  baseline_total    shift_sim  specmurt_sim",
    "----------------------------------------------------------------",
    "  128    160     16 |        0.5000s     1.0000s      0.2500s",
    "  128    160     32 |        0.5000s     2.0000s      0.2500s",
    "   48    384      0 |        0.1000s     0.2000s      0.3000s",
    "   48    768      0 |        0.4000s     0.4000s      0.3000s",
]
LADDER_REPORT = TABLE + [
    "",
    "ratios between consecutive sizes:",
    "  (128, 160, 16) -> (128, 160, 32): baseline x1.00, shift-similarity x2.00, "
    "specmurt-similarity x1.00",
    "  (128, 160, 32) -> (48, 384, 0): baseline x0.20, shift-similarity x0.10, "
    "specmurt-similarity x1.20",
    "  (48, 384, 0) -> (48, 768, 0): baseline x4.00, shift-similarity x2.00, "
    "specmurt-similarity x1.00",
    "",
    "log-log slope of baseline vs T (F=48, delta=0): 2.00",
    "log-log slope of shift similarity vs (2*delta+1) (F=128, T=160): 1.02",
]


def test_report_of_the_readme_ladder(monkeypatch, capsys):
    assert bench.report(LADDER).split("\n") == LADDER_REPORT
    monkeypatch.setattr(bench, "run_bench", lambda sizes, **settings: LADDER)
    assert cli.main(["bench"]) == 0
    assert capsys.readouterr().out == bench.report(LADDER) + "\n"


def test_report_of_one_point_is_the_table():
    assert bench.report(LADDER[:1]).split("\n") == TABLE[:3]


def test_report_fits_exact_power_laws():
    # baseline ~ T^2 at (F=8, delta=1); shift ~ (2*delta+1)^1.5 at (F=8, T=16)
    sizes = [(8, 16, 1), (8, 32, 1), (8, 64, 1), (8, 128, 1), (8, 16, 4), (8, 16, 13)]
    points = [
        bench.BenchPoint(f, t, d, 1e-6 * t**2, 1e-3 * (2 * d + 1) ** 1.5, 0.1)
        for f, t, d in sizes
    ]
    slopes = [line for line in bench.report(points).split("\n") if "slope" in line]
    assert slopes == [
        "log-log slope of baseline vs T (F=8, delta=1): 2.00",
        "log-log slope of shift similarity vs (2*delta+1) (F=8, T=16): 1.50",
    ]


def test_report_fits_no_group_with_a_repeated_size():
    points = [LADDER[2], LADDER[2], LADDER[3]]
    lines = bench.report(points).split("\n")
    assert lines[-1].startswith("  (48, 384, 0) -> (48, 768, 0)")
    assert not any("slope" in line for line in lines)
