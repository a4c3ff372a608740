"""Acceptance suite: every release criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. The desk-scale scene grids are shared across criteria through
session fixtures, so the whole file stays well inside its time budgets.
"""

import time

import numpy as np
import pytest
from conftest import SMALL_PARAMS, make_transposition_suite, search_one

from sikam import evaluate, kam, shiftkam, specmurt
from sikam.kam import SeparationConfig
from sikam.timefreq import TransformParams, forward_logfreq, inverse_logfreq

MELODY_VARIANTS = ("baseline", "shift_exhaustive", "specmurt_pruned")


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


@pytest.fixture(scope="session")
def melody_grid():
    """20 repeated + 20 not-repeated melody scenes, three variants each."""
    config = SeparationConfig(k=300, delta=48)
    t0 = time.perf_counter()
    results = {}
    for placement in ("not_repeated", "repeated"):
        scenes = evaluate.default_scene_grid(
            "melody", placement, n_scenes=20, seed=0
        )
        results[placement] = evaluate.run_grid(scenes, MELODY_VARIANTS, config)
    elapsed = time.perf_counter() - t0
    return results, elapsed


def mean_nsdr(results, variant):
    vals = [r.nsdr for r in results if r.variant == variant]
    return float(np.mean(vals)), len(vals)


def brute_force_baseline(mag, target, k):
    entries = sorted(
        (float(np.sum((mag[:, c] - mag[:, target]) ** 2)), c)
        for c in range(mag.shape[1])
        if c != target
    )
    return [(c, 0) for _, c in entries[:k]]


def brute_force_shift(mag, target, k, delta):
    entries = []
    for c in range(mag.shape[1]):
        if c == target:
            continue
        for d in range(-delta, delta + 1):
            shifted = shiftkam.shift_frame(mag[:, c], d)
            entries.append((float(np.sum((shifted - mag[:, target]) ** 2)), c, d))
    entries.sort()
    out, seen = [], set()
    for _, c, d in entries:
        if c not in seen:
            seen.add(c)
            out.append((c, d))
        if len(out) == k:
            break
    return out


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for i in range(100):
        f = int(rng.integers(4, 65))
        t = int(rng.integers(6, 41))
        mag = rng.random((f, t))
        k = int(rng.integers(1, min(t - 1, 8)))
        delta = int(rng.integers(0, min(f, 11)))
        for target in rng.choice(t, size=2, replace=False):
            target = int(target)
            got_b = search_one(mag, target, "baseline", k)
            assert got_b == brute_force_baseline(mag, target, k)
            got_s = search_one(mag, target, "shift_exhaustive", k, delta)
            assert got_s == brute_force_shift(mag, target, k, delta)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "baseline and shift-invariant kernels match brute-force oracles",
        elapsed < 60,
        f"100 matrices, {checked} targets, {elapsed:.1f}s",
    )


def test_criterion_2_median_robustness():
    rng = np.random.default_rng(202)
    k, n_true, n_bins = 11, 6, 24
    failures = 0
    for _ in range(1000):
        truth = rng.random(n_bins) * 10
        columns = np.empty((n_bins, k))
        order = rng.permutation(k)
        for slot, idx in enumerate(order):
            if slot < n_true:
                columns[:, idx] = truth
            else:
                columns[:, idx] = rng.random(n_bins) * 1000
        neighbors = np.arange(k)[None]
        est = kam._medians(columns, neighbors, np.zeros_like(neighbors))[:, 0]
        if not np.array_equal(est, truth):
            failures += 1
    report(
        2,
        "median with 6/11 clean neighbors recovers the true column exactly",
        failures == 0,
        f"1000 trials, {failures} failures",
    )


def _harmonic_frame(f, base):
    bins = np.arange(f)
    col = np.zeros(f)
    for m in range(1, 7):
        p = base + 24 * np.log2(m)
        if p < f - 4:
            col += np.exp(-((bins - p) ** 2) / (2 * 1.5**2)) / m
    return col


def test_criterion_3_deconvolution_alignment():
    rng = np.random.default_rng(303)
    f = 240
    trials, hits = 500, 0
    t0 = time.perf_counter()
    for _ in range(trials):
        base = int(rng.integers(40, 130))
        d_true = int(rng.integers(-24, 25))
        y = _harmonic_frame(f, base)
        z = shiftkam.shift_frame(y, -d_true)
        noise = rng.standard_normal(f)
        noise *= np.sqrt(np.sum(z**2) / (100.0 * np.sum(noise**2)))  # 20 dB down
        z = np.abs(z + noise)
        est = specmurt.estimate_shift_deconv(y, z)
        dists = [
            float(np.sum((shiftkam.shift_frame(z, d) - y) ** 2))
            for d in range(-f // 2, f // 2)
        ]
        oracle = int(np.argmin(dists)) - f // 2
        if abs(est.delta - oracle) <= 1:
            hits += 1
    elapsed = time.perf_counter() - t0
    rate = hits / trials
    report(
        3,
        "fast deconvolution matches the exhaustive-shift oracle within 1 bin",
        rate >= 0.95 and elapsed < 60,
        f"{rate:.1%} of {trials} pairs, {elapsed:.1f}s",
    )


def test_criterion_4_delta_zero_reduction():
    rng = np.random.default_rng(404)
    mismatches = 0
    for i in range(10):
        x = rng.standard_normal(int(1.2 * SMALL_PARAMS.sample_rate))
        spect = forward_logfreq(x, SMALL_PARAMS)
        start = int(rng.integers(5, spect.n_frames - 12))
        support = frozenset(range(start, start + 6))
        base_cfg = SeparationConfig(k=10, delta=0, variant="baseline", support=support)
        shift_cfg = SeparationConfig(
            k=10, delta=0, variant="shift_exhaustive", support=support
        )
        src_b, int_b = kam.separate(spect, base_cfg)
        src_s, int_s = kam.separate(spect, shift_cfg)
        if not (
            np.array_equal(src_b.data, src_s.data)
            and np.array_equal(int_b.data, int_s.data)
        ):
            mismatches += 1
    report(
        4,
        "delta=0 shift-invariant separation is bitwise equal to the baseline",
        mismatches == 0,
        f"10 random scenes, {mismatches} mismatches",
    )


def test_criterion_5_direction_of_separation_gains(melody_grid):
    results, elapsed = melody_grid
    shift_nr, n1 = mean_nsdr(results["not_repeated"], "shift_exhaustive")
    base_nr, _ = mean_nsdr(results["not_repeated"], "baseline")
    base_rep, _ = mean_nsdr(results["repeated"], "baseline")
    gain = shift_nr - base_nr
    ok = gain >= 2.0 and base_nr < base_rep and n1 >= 20 and elapsed < 600
    report(
        5,
        "shift-invariant kernel beats the baseline where the source never repeats",
        ok,
        f"gain {gain:+.1f} dB on {n1} scenes; baseline rep {base_rep:+.1f} vs "
        f"not-rep {base_nr:+.1f} dB; grid took {elapsed:.0f}s",
    )


def test_criterion_6_acceleration_agreement(melody_grid):
    # (a) neighbor overlap on the transposition suite
    rng = np.random.default_rng(606)
    mag, center = make_transposition_suite()
    k = 10
    overlaps = []
    for target in (center - 8, center, center + 8):
        noisy_t = mag.copy()
        noisy_t[:, target] += rng.random(mag.shape[0]) * 0.1 * mag[:, target].max()
        exh = search_one(noisy_t, target, "shift_exhaustive", k, 48)
        pruned = search_one(noisy_t, target, "specmurt_pruned", k, 48, 2 * k)
        exh_map = dict(exh)
        matches = sum(
            1
            for frame, shift in pruned
            if frame in exh_map and abs(shift - exh_map[frame]) <= 1
        )
        overlaps.append(matches / k)
    overlap = float(np.mean(overlaps))

    # (b) NSDR agreement on the melody grid
    results, _ = melody_grid
    all_melody = results["not_repeated"] + results["repeated"]
    nsdr_exh, _ = mean_nsdr(all_melody, "shift_exhaustive")
    nsdr_pruned, _ = mean_nsdr(all_melody, "specmurt_pruned")
    gap = abs(nsdr_pruned - nsdr_exh)
    report(
        6,
        "pruned specmurt search agrees with the exhaustive kernel",
        overlap >= 0.70 and gap <= 1.5,
        f"neighbor overlap {overlap:.0%}, NSDR gap {gap:.2f} dB "
        f"(pruned {nsdr_pruned:+.2f} vs exhaustive {nsdr_exh:+.2f})",
    )


def test_criterion_7_complexity_scaling():
    from sikam import bench

    p_small, p_big = bench.run_bench([(128, 160, 16), (128, 160, 32)], k=12, reps=5, seed=1)
    shift_ratio = p_big.shift_similarity / p_small.shift_similarity
    spec_ratio = p_big.specmurt_similarity / p_small.specmurt_similarity

    q_small, q_big = bench.run_bench([(48, 768, 0), (48, 1536, 0)], k=32, reps=3, seed=1)
    base_ratio = q_big.baseline_total / q_small.baseline_total

    ok = 1.6 <= shift_ratio <= 2.4 and 0.8 <= spec_ratio <= 1.2 and 3.0 <= base_ratio <= 6.0
    report(
        7,
        "measured scaling matches the claimed asymptotics",
        ok,
        f"delta x2: shift x{shift_ratio:.2f} (want [1.6,2.4]), "
        f"specmurt x{spec_ratio:.2f} (want [0.8,1.2]); "
        f"T x2: baseline x{base_ratio:.2f} (want [3,6])",
    )


def test_criterion_8_transform_fidelity():
    params = TransformParams()
    rng = np.random.default_rng(808)
    x = rng.standard_normal(int(1.5 * params.sample_rate))
    spect = forward_logfreq(x, params)
    y = inverse_logfreq(spect)
    w = params.window_length
    err = np.sqrt(np.mean((y[w:-w] - x[w:-w]) ** 2)) / np.sqrt(np.mean(x[w:-w] ** 2))

    def harmonic(f0):
        t = np.arange(int(0.6 * params.sample_rate)) / params.sample_rate
        sig = np.zeros_like(t)
        for m in range(1, 9):
            if m * f0 < params.sample_rate / 2:
                sig += np.sin(2 * np.pi * m * f0 * t + 0.37 * m) / m
        s = forward_logfreq(sig, params)
        return np.abs(s.data[:, s.n_frames // 2])

    d = 12
    a = harmonic(220.0)
    b = harmonic(220.0 * 2 ** (d / 24))
    aligned = np.zeros_like(b)
    aligned[: len(b) - d] = b[d:]
    u, v = a[48:-48], aligned[48:-48]
    ncc = float(np.dot(u, v) / np.sqrt(np.dot(u, u) * np.dot(v, v)))

    report(
        8,
        "round trip under 1e-2 and pitch shifts act as translations",
        err < 1e-2 and ncc > 0.9,
        f"round-trip error {err:.1e}, translation NCC {ncc:.3f}",
    )


def test_criterion_9_masks_and_complementarity():
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    mask_ok = True
    scenes = evaluate.default_scene_grid("melody", "not_repeated", n_scenes=2, seed=9)
    for scene in scenes:
        spect = forward_logfreq(scene.mixture, scene.params)
        pool = spect.n_frames - len(scene.support)
        for variant in ("baseline", "shift_exhaustive", "specmurt", "specmurt_pruned"):
            cfg = evaluate.adapt_config(
                SeparationConfig(
                    k=300,
                    delta=48,
                    variant=variant,
                    support=frozenset(scene.support),
                ),
                pool,
            )
            mag = np.abs(spect.data)
            mask = kam.separation_masks(mag, kam.plan_neighbors(mag, cfg))
            if mask.min() < 0.0 or mask.max() > 1.0:
                mask_ok = False
            source, interference = kam.separate(spect, cfg)
            resid = np.abs(source.data + interference.data - spect.data).max()
            worst_rel = max(worst_rel, resid / np.abs(spect.data).max())
    # a couple of synthetic spectrograms as well
    for _ in range(3):
        x = rng.standard_normal(int(1.0 * SMALL_PARAMS.sample_rate))
        spect = forward_logfreq(x, SMALL_PARAMS)
        cfg = SeparationConfig(k=8, delta=6, variant="shift_exhaustive",
                               support=frozenset(range(10, 16)))
        mag = np.abs(spect.data)
        mask = kam.separation_masks(mag, kam.plan_neighbors(mag, cfg))
        mask_ok = mask_ok and mask.min() >= 0.0 and mask.max() <= 1.0
        source, interference = kam.separate(spect, cfg)
        resid = np.abs(source.data + interference.data - spect.data).max()
        worst_rel = max(worst_rel, resid / np.abs(spect.data).max())
    report(
        9,
        "masks stay in [0,1] and source+interference reconstructs the input",
        mask_ok and worst_rel <= 1e-12,
        f"worst complementarity residual {worst_rel:.1e} (tolerance 1e-12)",
    )
