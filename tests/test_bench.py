import numpy as np
import pytest

from sikam import bench, specmurt
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


def test_doubling_ratios_structure():
    pts = bench.run_bench([(16, 24, 2), (16, 48, 2)], k=4, reps=1)
    ratios = bench.doubling_ratios(pts)
    assert len(ratios) == 1
    assert ratios[0]["from"] == (16, 24, 2)
    assert ratios[0]["baseline_total"] > 0


def test_loglog_slope_of_exact_power_law():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [x**2 for x in xs]
    assert abs(bench.loglog_slope(xs, ys) - 2.0) < 1e-12


def test_format_table_lists_all_points():
    pts = bench.run_bench([(16, 24, 2), (16, 48, 2)], k=4, reps=1)
    table = bench.format_table(pts)
    assert table.count("\n") >= 3
    assert "baseline_total" in table
