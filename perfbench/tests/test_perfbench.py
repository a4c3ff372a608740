"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sikam import audio_io, cli, evaluate, specmurt  # noqa: E402

TINY_FILE = workloads.SeparateWorkload(
    name="tiny-file",
    content="melody",
    seconds=8.0,
    tiles=2,
    channels=2,
    interference_s=0.1,
    placement="not_repeated",
    transpose_middle=True,
    sample_rate=8000.0,
    k=8,
    delta=6,
)
TINY_GRID = workloads.GridWorkload(
    name="tiny-grid", scenes_per_condition=1, contents=("melody",), placements=("not_repeated",)
)


@pytest.fixture(params=[TINY_FILE, TINY_GRID], ids=lambda w: w.name)
def workload(request):
    return request.param


def one_round(workload, seed, tmp_path):
    inputs = run.set_up(workload, seed, tmp_path)
    return inputs, workload.run_round(inputs)


def test_every_end_to_end_metric_with_its_unit(workload, tmp_path):
    _, rnd = one_round(workload, 1, tmp_path)
    assert [c.error for c in rnd.cells] == [""] * len(rnd.cells)
    metrics, counts = run.end_to_end_metrics([rnd], setup_s=0.5)
    assert list(metrics) == list(run.END_TO_END)
    for name, (unit, _) in run.END_TO_END.items():
        assert metrics[name]["unit"] == unit
        assert np.isfinite(metrics[name]["value"]) and metrics[name]["value"] != 0
        assert counts[name] >= 1
    assert metrics["setup_s"]["value"] == 0.5
    assert metrics["success_rate"]["value"] == 1.0
    assert run.VARIANTS == workloads.VARIANTS
    nsdr_db = run.mean_nsdr_db(rnd.cells)
    for variant in run.VARIANTS:
        assert metrics[f"nsdr_gain.{variant}"]["value"] == pytest.approx(10 ** (nsdr_db[variant] / 10))


def test_every_layer_metric_with_its_unit(workload, tmp_path):
    inputs = run.set_up(workload, 1, tmp_path)
    bare = workload.run_round(inputs)
    with tracing.Tracer() as tracer:
        traced = workload.run_round(inputs)
    metrics = tracer.layer_metrics(1, traced.seconds, bare.seconds, scene_s=0.1)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        assert metrics[name]["unit"] == unit and np.isfinite(metrics[name]["value"])
    value = {name: m["value"] for name, m in metrics.items()}
    # Every variant ran once on one scene: one call of each search per target.
    targets = value["kam.targets"] / len(workloads.VARIANTS)
    assert targets >= 1
    assert value["kam.knn_baseline_calls"] == value["shiftkam.calls"] == targets
    assert value["kam.knn_baseline_s"] > 0
    assert value["specmurt.similarity_calls"] == 2 * targets
    # Masks are per channel; neighbor sets are shared between channels.
    assert value["kam.median_calls"] == value["kam.targets"] * getattr(workload, "channels", 1)
    assert value["specmurt.deconv_calls"] > 0 and value["timefreq.inverse_calls"] > 0
    assert 0 <= value["specmurt.clamped_ratio"] <= 1
    assert 0 <= value["specmurt.surplus_hit_ratio"] <= 1
    assert 0.9 < value["trace_coverage_ratio"] <= 1.0
    if workload is TINY_FILE:
        assert value["audio_io.bytes"] > 0 and value["cli.self_s"] > 0


def test_tracer_patches_every_binding_and_restores_it():
    original = audio_io.read_wav
    with tracing.Tracer():
        assert cli.read_wav is audio_io.read_wav is not original
        assert specmurt.shift_frame.__wrapped__ is not None
        assert evaluate.separate.__wrapped__ is not None
    assert cli.read_wav is audio_io.read_wav is original
    assert not hasattr(evaluate.separate, "__wrapped__")


def test_zeroed_interference_counts_as_failure(workload, tmp_path, monkeypatch):
    if workload is TINY_FILE:
        real_write = cli.write_wav

        def write_zero_interference(path, samples, rate, subtype):
            if Path(path).name == "interference.wav":
                samples = np.zeros_like(samples)
            real_write(path, samples, rate, subtype)

        monkeypatch.setattr(cli, "write_wav", write_zero_interference)
    else:
        real_separate = evaluate.separate

        def separate_zero_interference(spect, config):
            source, interference = real_separate(spect, config)
            return source, interference.with_data(np.zeros_like(interference.data))

        monkeypatch.setattr(evaluate, "separate", separate_zero_interference)
    _, rnd = one_round(workload, 1, tmp_path)
    assert all("misses the input" in c.error for c in rnd.cells)
    metrics, _ = run.end_to_end_metrics([rnd], setup_s=1.0)
    assert metrics["success_rate"]["value"] == 0.0
    assert metrics["nsdr_gain.baseline"]["value"] == pytest.approx(10 ** (run.FAILED_NSDR_DB / 10))
    # Failed samples are kept, not dropped.
    assert np.isfinite(metrics["separate_s.baseline"]["value"])


def test_failed_exit_code_counts_as_failure(tmp_path):
    infeasible = replace(TINY_FILE, k=10_000)
    _, rnd = one_round(infeasible, 1, tmp_path)
    assert [c.error for c in rnd.cells] == ["exit code 4"] * len(rnd.cells)


def test_seed_changes_inputs_but_not_metric_names(workload, tmp_path):
    names = []
    inputs = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        data, rnd = one_round(workload, seed, workdir)
        inputs.append(data)
        names.append(list(run.end_to_end_metrics([rnd], 1.0)[0]))
    assert names[0] == names[1]
    if workload is TINY_FILE:
        a, b = inputs[0].written, inputs[1].written
    else:
        a, b = inputs[0].conditions[0][0].mixture, inputs[1].conditions[0][0].mixture
    assert a.shape == b.shape and not np.array_equal(a, b)
    again = run.set_up(workload, 1, tmp_path / "1")
    if workload is TINY_FILE:
        assert np.array_equal(again.written, inputs[0].written)
    else:
        assert np.array_equal(again.conditions[0][0].mixture, a)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "eval-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
