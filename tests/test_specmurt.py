from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import neighbor_lists, search_one

from sikam import kam, shiftkam, specmurt
from sikam.shiftkam import shift_frame


def harmonic_column(f, positions, widths=1.5, amps=None, rng=None):
    """Synthetic log-frequency frame: Gaussian bumps at the given bins."""
    col = np.zeros(f)
    bins = np.arange(f)
    amps = amps or [1.0 / (i + 1) for i in range(len(positions))]
    for p, a in zip(positions, amps):
        col += a * np.exp(-((bins - p) ** 2) / (2 * widths**2))
    if rng is not None:
        col += rng.random(f) * 1e-3
    return col


def comb_column(f, base, n_partials=6):
    """Bumps at base + 24*log2(m): the pattern a harmonic tone leaves."""
    positions = [base + 24 * np.log2(m) for m in range(1, n_partials + 1)]
    positions = [p for p in positions if p < f - 4]
    return harmonic_column(f, positions)


def specmurt_pool(mag, target, count):
    """The ``count`` frames closest to the target in the specmurt domain.

    Closest first: the pool search of the specmurt variants, every other
    frame a candidate.
    """
    cands = np.setdiff1d(np.arange(mag.shape[1]), target)
    spec = specmurt.specmurt_matrix(mag)
    return shiftkam._exhaustive_search(spec, [target], cands, count, 0)[0][0]


def specmurt_column(col):
    """Specmurt coefficients of one column, through the matrix transform."""
    return specmurt.specmurt_matrix(np.asarray(col)[:, None])[:, 0]


class TestSpecmurtTransform:
    def test_constant_column_has_no_structure(self):
        coeffs = specmurt_column(np.full(64, 3.7))
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-9)

    def test_length_and_head(self, rng):
        col = rng.random(64)
        coeffs = specmurt_column(col)
        assert len(coeffs) == 64 // 2 + 1 - 1
        np.testing.assert_array_equal(coeffs, np.abs(np.fft.rfft(col))[1:])

    @given(
        arrays(np.float64, (48,), elements=st.floats(0, 10, allow_nan=False)),
        st.integers(-48, 48),
    )
    def test_circular_shift_invariance(self, col, d):
        a = specmurt_column(col)
        b = specmurt_column(np.roll(col, d))
        scale = max(a.max(), 1.0)
        assert np.abs(a - b).max() <= 1e-9 * scale

    def test_two_impulse_closed_form(self):
        f, d = 64, 7
        col = np.zeros(f)
        col[10] = 1.0
        col[10 + d] = 1.0
        coeffs = specmurt_column(col)
        k = np.arange(1, f // 2 + 1)
        expected = np.abs(2 * np.cos(np.pi * k * d / f))
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)
        # against a direct DFT oracle as well
        oracle = np.abs(np.fft.fft(col))[1 : f // 2 + 1]
        np.testing.assert_allclose(coeffs, oracle, atol=1e-12)

    def test_padded_shift_near_invariance(self):
        # spectral content well inside the band: zero-padding loses little
        f = 240
        col = comb_column(f, 60)
        d = 15
        shifted = shift_frame(col, d)
        edge = np.sum(col[:d] ** 2) + np.sum(col[-d:] ** 2)
        assert edge <= 0.05 * np.sum(col**2)
        a = specmurt_column(col)
        b = specmurt_column(shifted)
        rel = np.linalg.norm(a - b) / np.linalg.norm(a)
        assert rel < 0.1

    def test_fewer_than_two_bins_rejected(self):
        mag = np.ones((1, 12))
        config = kam.SeparationConfig(k=3, delta=1, surplus=3, support={5})
        for variant in ("specmurt", "specmurt_pruned"):
            with pytest.raises(kam.KernelError, match="at least 2 frequency bins"):
                kam.plan_neighbors(mag, replace(config, variant=variant))
        for variant in ("baseline", "shift_exhaustive"):
            plan = kam.plan_neighbors(mag, replace(config, variant=variant))
            assert plan.frames.shape == (1, 3)

    def test_negative_column_rejected(self):
        mag = np.ones((8, 12))
        mag[:, 2] = -1.0
        config = kam.SeparationConfig(k=3, delta=1, surplus=3, support={5})
        for variant in ("specmurt", "specmurt_pruned"):
            with pytest.raises(kam.KernelError, match="nonnegative"):
                kam.plan_neighbors(mag, replace(config, variant=variant))


class TestKnnSpecmurt:
    """The specmurt-domain pool of one target."""

    def test_matches_brute_force(self, rng):
        mag = rng.random((32, 20))
        spec = specmurt.specmurt_matrix(mag)
        target = 4
        got = specmurt_pool(mag, target, 6)
        dists = sorted(
            (float(np.sum((spec[:, c] - spec[:, target]) ** 2)), c)
            for c in range(20)
            if c != target
        )
        assert list(got) == [c for _, c in dists[:6]]

    def test_circular_transpositions_rank_first(self, rng):
        f = 96
        base = comb_column(f, 30)
        cols = [np.roll(base, d) for d in (-8, 0, 5, 11)]
        cols += [rng.random(f) for _ in range(4)]
        mag = np.stack(cols, axis=1)
        got = specmurt_pool(mag, 1, 3)
        assert set(got) == {0, 2, 3}

    def test_tone_beats_noise(self, rng):
        f = 128
        tone = comb_column(f, 40)
        transposed = np.roll(tone, 9)
        noise = rng.random(f) * tone.max()
        mag = np.stack([tone, transposed, noise], axis=1)
        got = specmurt_pool(mag, 0, 1)
        assert list(got) == [1]

    def test_pool_too_small(self, rng):
        mag = rng.random((16, 4))
        with pytest.raises(kam.KernelError):
            search_one(mag, 0, "specmurt", 4)

    @pytest.mark.parametrize(
        "target, count",
        [
            pytest.param(3, -1, id="negative-count"),
            pytest.param(-1, 4, id="target-before-first-frame"),
            pytest.param(20, 4, id="target-past-last-frame"),
        ],
    )
    def test_bad_input_rejected(self, rng, target, count):
        with pytest.raises(kam.KernelError):
            search_one(rng.random((16, 20)), target, "specmurt", count)


class TestEstimateShiftDeconv:
    def test_identical_columns_give_zero(self, rng):
        y = rng.random(64)
        est = specmurt.estimate_shift_deconv(y, y)
        assert est.delta == 0
        assert est.peak_value == pytest.approx(1.0)  # h is the unit impulse
        assert est.peak_ratio > 10

    def test_circular_shift_sign_convention(self, rng):
        y = rng.random(64) + 0.1
        z = np.roll(y, 5)
        est = specmurt.estimate_shift_deconv(y, z)
        assert est.delta == 5
        np.testing.assert_allclose(shift_frame(z, est.delta)[:-5], y[:-5])

    def test_negative_shift(self, rng):
        y = rng.random(64) + 0.1
        est = specmurt.estimate_shift_deconv(y, np.roll(y, -7))
        assert est.delta == -7

    def test_delta_range_bound(self, rng):
        for _ in range(20):
            y = rng.random(32)
            z = rng.random(32)
            est = specmurt.estimate_shift_deconv(y, z)
            assert -16 <= est.delta < 16

    def test_padded_transposition_matches_exhaustive_oracle(self, rng):
        f = 240
        hits = 0
        trials = 60
        for _ in range(trials):
            base = int(rng.integers(40, 120))
            d_true = int(rng.integers(-20, 21))
            y = comb_column(f, base)
            z = shift_frame(y, -d_true)  # transposed copy, zero padded
            noise = rng.standard_normal(f)
            z = np.abs(z + noise * np.sqrt(np.sum(z**2) / (100 * np.sum(noise**2))))
            est = specmurt.estimate_shift_deconv(y, z)
            dists = [
                float(np.sum((shift_frame(z, d) - y) ** 2))
                for d in range(-f // 2, f // 2)
            ]
            oracle = int(np.argmin(dists)) - f // 2
            if abs(est.delta - oracle) <= 1:
                hits += 1
        assert hits / trials >= 0.95

    def test_all_zero_candidate_rejected(self):
        with pytest.raises(kam.KernelError):
            specmurt.estimate_shift_deconv(np.ones(16), np.zeros(16))

    @pytest.mark.parametrize("n", [15, 16, 29, 232])
    def test_half_spectrum_matches_full_complex_fft(self, rng, n):
        # |h| from the real half-spectrum is the full complex formula's |h|
        # divided by n, for odd and even bin counts, and peaks at the same lag
        y, cols = rng.random(n), rng.random((n, 40))
        u, v = np.fft.ifft(y), np.fft.ifft(cols, axis=0)
        eps = 1e-8 * np.abs(v).max(axis=0)
        full = np.abs(np.fft.fft(u[:, None] * np.conj(v) / (np.abs(v) ** 2 + eps**2), axis=0)).T
        spectra, power = specmurt._inverse_spectra(np.column_stack([y, cols]))
        shifts, half = specmurt._deconvolve(spectra[0], spectra[1:], power[1:], n)
        assert half.shape == (40, n)
        assert np.all(np.abs(n * half - full) <= 1e-12 * full.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(shifts, (n // 2 - np.argmax(full, axis=1)) % n - n // 2)

    def test_all_zero_target_rejected(self):
        with pytest.raises(kam.KernelError):
            specmurt.estimate_shift_deconv(np.zeros(16), np.ones(16))


def pruned_oracle(mag, target, k, surplus, max_shift):
    """The pruned search one pool frame at a time, as a reference."""
    pool = specmurt_pool(mag, target, k + surplus)
    y = mag[:, target]
    entries = []
    for frame in pool:
        z = mag[:, frame]
        if not np.any(y) or not np.any(z):
            d = 0  # silent column: no shift information to recover
        else:
            d = specmurt.estimate_shift_deconv(y, z).delta
        d = int(np.clip(d, -max_shift, max_shift))
        diff = shift_frame(z, d) - y
        entries.append((float(np.dot(diff, diff)), int(frame), d))
    entries.sort()
    return [(frame, d) for _, frame, d in entries[:k]]


class TestKnnSpecmurtPruned:
    """The pruned specmurt search of one target, every other frame a candidate."""

    # An all-zero column must not reach the deconvolution (0/0 warnings).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_per_frame_oracle(self, rng):
        checked = 0
        for trial in range(30):
            f = int(rng.integers(8, 80))
            t = int(rng.integers(8, 40))
            mag = rng.random((f, t))
            mag[:, rng.integers(0, t)] = 0.0  # an all-zero column
            k = int(rng.integers(1, t // 2))
            surplus = int(rng.integers(0, t - k))
            max_shift = int(rng.integers(0, f))
            for target in range(t):
                got = search_one(mag, target, "specmurt_pruned", k, max_shift, surplus)
                assert got == pruned_oracle(mag, target, k, surplus, max_shift)
                checked += 1
        assert checked > 300

    def test_zero_surplus_keeps_specmurt_selection(self, rng):
        mag = rng.random((64, 24))
        pre = specmurt_pool(mag, 3, 5)
        got = search_one(mag, 3, "specmurt_pruned", 5, 20, 0)
        assert sorted(f for f, _ in got) == sorted(pre)

    def test_transposed_copies_beat_distractors(self, rng):
        f = 96
        base = comb_column(f, 32)
        cols = []
        true_shifts = {}
        for i, d in enumerate((-6, 4, 9)):
            col = np.abs(np.roll(base, d) + 0.01 * rng.standard_normal(f))
            cols.append(col)
            true_shifts[i] = d
        for _ in range(6):
            cols.append(rng.random(f) * base.max())
        mag = np.stack(cols + [base], axis=1)
        target = mag.shape[1] - 1
        got = search_one(mag, target, "specmurt_pruned", 3, 48, 6)
        assert sorted(f_ for f_, _ in got) == [0, 1, 2]
        for frame, shift in got:
            assert abs(shift - true_shifts[frame]) <= 1

    def test_kept_distances_dominate_discarded(self, rng):
        mag = rng.random((48, 30))
        target = 11
        k, surplus, max_shift = 4, 8, 24
        got = search_one(mag, target, "specmurt_pruned", k, max_shift, surplus)
        pool = specmurt_pool(mag, target, k + surplus)

        def step3_distance(frame):
            est = specmurt.estimate_shift_deconv(mag[:, target], mag[:, frame])
            d = int(np.clip(est.delta, -max_shift, max_shift))
            return float(np.sum((shift_frame(mag[:, frame], d) - mag[:, target]) ** 2))

        kept = {f_ for f_, _ in got}
        kept_max = max(step3_distance(f_) for f_ in kept)
        discarded = [int(f_) for f_ in pool if int(f_) not in kept]
        assert len(discarded) == surplus
        for frame in discarded:
            assert kept_max <= step3_distance(frame) + 1e-9

    def test_pool_too_small(self, rng):
        with pytest.raises(kam.KernelError):
            search_one(rng.random((16, 8)), 0, "specmurt_pruned", 4, 2, 4)

    @pytest.mark.parametrize("max_shift", [0, 1, 9, 24], ids=lambda d: f"max-shift-{d}")
    def test_padded_window_distances_match_shift_frame(self, rng, max_shift):
        # the re-rank reads aligned rows from one padded copy of the pooled
        # frames; its distances must be bitwise those of shift_frame columns
        f, t = 24, 30
        data = rng.random((f, t))
        used = np.sort(rng.choice(t, 20, replace=False))
        windows = shiftkam._shift_windows(data[:, used].T, max_shift)
        for target in used[:4]:
            frames = rng.choice(used, 12, replace=False)
            shifts = rng.integers(-max_shift, max_shift + 1, len(frames))
            shifts[:3] = [0, -max_shift, max_shift]
            cols = np.ascontiguousarray((shift_frame(data[:, frames], shifts) - data[:, [target]]).T)
            want = np.matmul(cols[:, None, :], cols[:, :, None])[:, 0, 0]
            rows = windows[np.searchsorted(used, frames), max_shift + shifts]
            rows -= data[:, target]
            got = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "target, k, surplus, max_shift",
        [
            pytest.param(3, -1, 3, 2, id="negative-k"),
            pytest.param(3, 4, -1, 2, id="negative-surplus"),
            pytest.param(3, 4, 2, -3, id="negative-max-shift"),
            pytest.param(3, 4, 2, 17, id="max-shift-above-bins"),
            pytest.param(-1, 4, 2, 2, id="target-before-first-frame"),
            pytest.param(20, 4, 2, 2, id="target-past-last-frame"),
        ],
    )
    def test_bad_input_rejected(self, rng, target, k, surplus, max_shift):
        mag = rng.random((16, 20))
        with pytest.raises(kam.KernelError):
            search_one(mag, target, "specmurt_pruned", k, max_shift, surplus)


def reference_specmurt_plans(mag, support, k, surplus, max_shift):
    """The specmurt searches one target at a time, with the per-target code
    the batched search replaced: the specmurt-domain distances of the pool,
    the deconvolution of each pool against its target and the re-rank.
    Returns the plans and the number of shifts the clamp cut."""
    spec = specmurt.specmurt_matrix(mag)
    n = mag.shape[0]
    cands = np.setdiff1d(np.arange(mag.shape[1]), support)
    plans, clamped = {}, 0
    for t in support:
        diff = spec - spec[:, t][:, None]
        dist = np.einsum("ij,ij->j", diff, diff)[cands]
        pool = cands[np.lexsort((cands, dist))[: k + surplus]]
        y, cols = mag[:, t], mag[:, pool]
        shifts = np.zeros(len(pool), dtype=int)
        if np.any(y):
            live = np.flatnonzero(np.any(cols, axis=0))
            u = np.fft.rfft(y)
            v = np.fft.rfft(cols[:, live], axis=0)
            eps = 1e-8 * np.abs(v).max(axis=0)
            h = np.abs(np.fft.irfft(u[:, None] * np.conj(v) / (np.abs(v) ** 2 + eps**2), n, axis=0))
            shifts[live] = (n // 2 - np.argmax(h, axis=0)) % n - n // 2
        clamped += int(np.sum(np.abs(shifts) > max_shift))
        shifts = np.clip(shifts, -max_shift, max_shift)
        rows = np.ascontiguousarray((shift_frame(cols, shifts) - y[:, None]).T)
        dists = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
        order = np.lexsort((shifts, pool, dists))[:k]
        plans[t] = [(int(pool[i]), int(shifts[i])) for i in order]
    return plans, clamped


class TestPlanMatchesPerTargetReference:
    """plan_neighbors searches all support frames at once; every neighbor set
    must be the one of the per-target reference, shifts included."""

    def check(self, mag, support, k, surplus, max_shift):
        variant = "specmurt_pruned" if surplus else "specmurt"
        config = kam.SeparationConfig(
            k=k, delta=max_shift, surplus=surplus, variant=variant, support=support
        )
        want, clamped = reference_specmurt_plans(mag, sorted(support), k, surplus, max_shift)
        assert neighbor_lists(kam.plan_neighbors(mag, config)) == want
        return clamped

    def random_case(self, rng, make_matrix):
        f = int(rng.integers(8, 80))
        t = int(rng.integers(12, 50))
        mag = make_matrix(rng, f, t)
        support = {int(s) for s in rng.choice(t, size=int(rng.integers(1, 5)), replace=False)}
        pool = t - len(support)
        k = int(rng.integers(1, pool // 2 + 1))
        return mag, support, k, pool

    # An all-zero column must not reach the deconvolution (0/0 warnings).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "make_matrix",
        [
            lambda rng, f, t: rng.random((f, t)),
            # few distinct integer columns, repeated: exact ties everywhere
            lambda rng, f, t: rng.integers(0, 3, (f, 4)).astype(float)[:, rng.integers(0, 4, t)],
            # rolled copies of one column of period f/4: |h| has four peaks of
            # nearly equal height, so the rounding of each step picks the shift
            lambda rng, f, t: np.stack(
                [np.roll(np.tile(rng.random(f // 4), 4), r) for r in rng.integers(0, f, t)], axis=1
            ),
        ],
        ids=["random", "tie-heavy", "periodic"],
    )
    def test_random_tie_heavy_and_periodic(self, rng, make_matrix):
        clamped = 0
        for _ in range(25):
            mag, support, k, pool = self.random_case(rng, make_matrix)
            mag[:, rng.integers(0, mag.shape[1])] = 0.0  # a silent column, maybe a target
            max_shift = int(rng.integers(0, mag.shape[0] + 1))
            clamped += self.check(mag, support, k, 0, max_shift)
            clamped += self.check(mag, support, k, int(rng.integers(1, pool - k + 1)), max_shift)
        assert clamped > 0  # some cases must exercise the clamp

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_silent_target_and_columns(self, rng):
        mag = rng.random((40, 30))
        mag[:, [3, 11, 12, 20]] = 0.0
        support = {3, 4, 5}  # frame 3 is a silent target
        for surplus in (0, 6):
            self.check(mag, support, 8, surplus, 40)
            self.check(mag, support, 8, surplus, 2)

    def test_clamp_cuts_shifts(self):
        f = 96
        base = comb_column(f, 30)
        mag = np.stack([np.roll(base, d) for d in (-20, -9, 0, 7, 15, 22)], axis=1)
        for surplus in (0, 2):
            assert self.check(mag, {2}, 3, surplus, 4) > 0
            assert self.check(mag, {2}, 3, surplus, 48) == 0
