from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import search_one

from sikam import kam
from sikam.shiftkam import shift_frame
from sikam.timefreq import forward_logfreq


def brute_force_knn(mag, target, candidates, k):
    entries = []
    for c in candidates:
        if c == target:
            continue
        d = float(np.sum((mag[:, c] - mag[:, target]) ** 2))
        entries.append((d, c))
    entries.sort()
    return [(c, 0) for _, c in entries[:k]]


def median(mag, neighbors):
    """The median estimate of one (frame, shift) neighbor list, shape (F,)."""
    frames, shifts = np.array(neighbors, dtype=int).T
    return kam._medians(np.asarray(mag), frames[None], shifts[None])[:, 0]


mag_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(4, 16)),
    elements=st.floats(0, 10, allow_nan=False),
)


class TestKnnBaseline:
    """The baseline kernel: the exhaustive search with no shift."""

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(30):
            mag = rng.random((8, 20))
            target = int(rng.integers(0, 20))
            got = search_one(mag, target, "baseline", 5)
            assert got == brute_force_knn(mag, target, range(20), 5)

    @given(mag_matrices, st.integers(0, 3))
    def test_matches_oracle_property(self, mag, target):
        n_frames = mag.shape[1]
        target = target % n_frames
        k = min(3, n_frames - 1)
        got = search_one(mag, target, "baseline", k)
        assert got == brute_force_knn(mag, target, range(n_frames), k)

    def test_tie_break_by_frame_index(self):
        mag = np.ones((4, 10))
        assert search_one(mag, 7, "baseline", 3) == [(0, 0), (1, 0), (2, 0)]

    def test_exact_match_wins(self):
        mag = np.zeros((4, 5))
        mag[:, 0] = [1, 2, 3, 4]
        mag[:, 3] = [1, 2, 3, 4]
        mag[:, 1] = [9, 9, 9, 9]
        mag[:, 2] = [7, 0, 7, 0]
        mag[:, 4] = [5, 5, 5, 5]
        assert search_one(mag, 0, "baseline", 1) == [(3, 0)]

    def test_target_excluded_from_pool(self):
        mag = np.random.default_rng(0).random((4, 6))
        assert 2 not in [f for f, _ in search_one(mag, 2, "baseline", 5)]

    def test_pool_too_small(self):
        mag = np.ones((4, 4))
        with pytest.raises(kam.KernelError):
            search_one(mag, 0, "baseline", 4)


class TestMedianEstimate:
    def test_identical_neighbors_return_the_column(self, rng):
        mag = rng.random((6, 8))
        col = mag[:, 3].copy()
        mag[:, [1, 4, 6]] = col[:, None]
        np.testing.assert_array_equal(median(mag, [(1, 0), (4, 0), (6, 0)]), col)

    def test_outlier_rejected(self):
        mag = np.array([[1.0, 2.0, 9.0]])
        assert median(mag, [(0, 0), (1, 0), (2, 0)])[0] == 2.0

    def test_matches_sort_oracle(self, rng):
        mag = rng.random((10, 12))
        frames = rng.integers(0, 12, size=5)
        expected = np.sort(mag[:, frames], axis=1)[:, (5 - 1) // 2]
        np.testing.assert_array_equal(median(mag, [(f, 0) for f in frames]), expected)

    def test_shifts_respected(self, rng):
        mag = rng.random((10, 4))
        neighbors = [(1, 2), (2, -3), (3, 0)]
        stack = np.stack([shift_frame(mag[:, f], s) for f, s in neighbors])
        expected = np.sort(stack, axis=0)[(3 - 1) // 2]
        np.testing.assert_array_equal(median(mag, neighbors), expected)

    def test_even_k_uses_lower_median(self):
        mag = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert median(mag, [(i, 0) for i in range(4)])[0] == 2.0

    @pytest.mark.parametrize("max_shift", [0, 3])
    def test_batched_medians_match_one_list_at_a_time(self, rng, max_shift):
        # the n lists of the batched form, each against its own sort oracle
        mag = rng.random((10, 15))
        frames = rng.integers(0, 15, size=(6, 5))
        shifts = rng.integers(-max_shift, max_shift + 1, size=(6, 5))
        got = kam._medians(mag, frames, shifts)
        assert got.shape == (10, 6)
        for i in range(6):
            stack = np.stack([shift_frame(mag[:, f], d) for f, d in zip(frames[i], shifts[i])])
            np.testing.assert_array_equal(got[:, i], np.sort(stack, axis=0)[2])

    @given(
        arrays(np.float64, (5, 9), elements=st.floats(0, 100, allow_nan=False)),
        st.floats(0, 50, allow_nan=False),
    )
    def test_scale_equivariance(self, mag, c):
        neighbors = [(1, 0), (3, 1), (5, -2), (7, 0)]
        np.testing.assert_array_equal(median(c * mag, neighbors), c * median(mag, neighbors))

    @given(st.data())
    def test_majority_value_wins(self, data):
        # More than half the neighbors carrying the true value pins the
        # median to it exactly, whatever the other values are.
        k = data.draw(st.integers(3, 11))
        majority = k // 2 + 1
        truth = data.draw(
            arrays(np.float64, (4,), elements=st.floats(0, 10, allow_nan=False))
        )
        outliers = data.draw(
            arrays(
                np.float64,
                (k - majority, 4),
                elements=st.floats(0, 1000, allow_nan=False),
            )
        )
        mag = np.concatenate([np.tile(truth, (majority, 1)), outliers]).T
        np.testing.assert_array_equal(median(mag, [(i, 0) for i in range(k)]), truth)


class TestSoftMask:
    def test_estimate_equals_observation_gives_ones(self, rng):
        x = rng.random((5, 6)) + 0.1
        mask = kam.build_soft_mask(x, x)
        np.testing.assert_array_equal(mask, np.ones_like(x))

    def test_zero_estimate_gives_zeros(self, rng):
        x = rng.random((5, 6))
        assert not np.any(kam.build_soft_mask(np.zeros_like(x), x))

    def test_formula_value(self):
        mask = kam.build_soft_mask(np.array([[3.0]]), np.array([[5.0]]))
        assert mask[0, 0] == pytest.approx(0.6)

    def test_zero_over_zero_is_zero(self):
        mask = kam.build_soft_mask(np.array([[0.0]]), np.array([[0.0]]))
        assert mask[0, 0] == 0.0

    def test_saturation_where_estimate_dominates(self, rng):
        s = rng.random((4, 4)) + 0.5
        x = s * 0.7
        np.testing.assert_array_equal(kam.build_soft_mask(s, x), np.ones_like(s))

    @given(
        arrays(np.float64, (4, 5), elements=st.floats(0, 100, allow_nan=False)),
        arrays(np.float64, (4, 5), elements=st.floats(0, 100, allow_nan=False)),
    )
    def test_mask_bounds(self, s, x):
        mask = kam.build_soft_mask(s, x)
        assert np.all(mask >= 0.0) and np.all(mask <= 1.0)
        saturated = (s >= x) & (s > 0)
        assert np.array_equal(mask == 1.0, saturated)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(kam.KernelError):
            kam.build_soft_mask(np.ones((2, 2)), np.ones((3, 3)))

    def test_negative_inputs_rejected(self):
        with pytest.raises(kam.KernelError):
            kam.build_soft_mask(-np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("operand", ["estimate", "observed"])
    @pytest.mark.parametrize(
        "bad", [-1.0, np.nan, np.inf, 1.0 + 1.0j], ids=["negative", "nan", "inf", "complex"]
    )
    def test_bad_magnitudes_rejected(self, operand, bad):
        good, worse = np.ones((1, 2)), np.array([[1.0, bad]])
        s, x = (worse, good) if operand == "estimate" else (good, worse)
        with pytest.raises(kam.KernelError, match="finite nonnegative"):
            kam.build_soft_mask(s, x)

    def test_integer_magnitudes_divide(self):
        mask = kam.build_soft_mask(np.array([[3, 0]]), np.array([[5, 0]]))
        np.testing.assert_array_equal(mask, [[0.6, 0.0]])


class TestSeparate:
    def _spect(self, rng, small_params, n=4000):
        return forward_logfreq(rng.standard_normal(n), small_params)

    def test_empty_support_is_identity(self, rng, small_params):
        spect = self._spect(rng, small_params)
        config = kam.SeparationConfig(k=3, support=frozenset())
        source, interference = kam.separate(spect, config)
        np.testing.assert_array_equal(source.data, spect.data)
        assert not np.any(interference.data)

    def test_complementarity(self, rng, small_params):
        spect = self._spect(rng, small_params)
        config = kam.SeparationConfig(k=5, support=frozenset({8, 9, 10}))
        source, interference = kam.separate(spect, config)
        total = source.data + interference.data
        err = np.abs(total - spect.data).max()
        assert err <= 1e-12 * np.abs(spect.data).max()

    def test_pool_smaller_than_k_rejected(self, rng, small_params):
        spect = self._spect(rng, small_params)
        config = kam.SeparationConfig(k=10**6, support=frozenset({0}))
        with pytest.raises(kam.KernelError):
            kam.separate(spect, config)

    def test_pruned_needs_k_plus_surplus(self, rng, small_params):
        spect = self._spect(rng, small_params)
        config = kam.SeparationConfig(
            k=spect.n_frames // 2,
            surplus=spect.n_frames,
            variant="specmurt_pruned",
            support=frozenset({1}),
        )
        with pytest.raises(kam.KernelError):
            kam.separate(spect, config)

    def test_support_out_of_range_rejected(self, rng, small_params):
        spect = self._spect(rng, small_params)
        # before the first frame, just past the last one, and far past it
        for frame in (-1, spect.n_frames, 10**6):
            config = kam.SeparationConfig(k=2, support=frozenset({frame}))
            with pytest.raises(kam.KernelError, match="support frame index out of range"):
                kam.separate(spect, config)

    @pytest.mark.parametrize(
        "variant", ["baseline", "shift_exhaustive", "specmurt", "specmurt_pruned"]
    )
    def test_neighbors_never_reference_support_frames(
        self, rng, small_params, variant
    ):
        spect = self._spect(rng, small_params)
        support = frozenset(range(12, 20))
        config = kam.SeparationConfig(
            k=6, delta=4, surplus=4, variant=variant, support=support
        )
        plan = kam.plan_neighbors(np.abs(spect.data), config)
        assert len(plan) == len(support)
        assert plan.targets.tolist() == sorted(support)
        assert plan.frames.shape == plan.shifts.shape == (len(support), 6)
        assert not set(plan.frames.ravel().tolist()) & support

    @pytest.mark.parametrize(
        "variant", ["baseline", "shift_exhaustive", "specmurt", "specmurt_pruned"]
    )
    def test_delta_beyond_bins_rejected(self, rng, variant):
        mag = rng.random((8, 30))
        config = kam.SeparationConfig(k=3, delta=9, surplus=3, variant=variant, support={2})
        with pytest.raises(kam.KernelError, match="delta=9 exceeds the 8 frequency bins"):
            kam.plan_neighbors(mag, config)
        assert kam.plan_neighbors(mag, replace(config, delta=8)).frames.shape == (1, 3)

    @pytest.mark.parametrize(
        "variant", ["baseline", "shift_exhaustive", "specmurt", "specmurt_pruned"]
    )
    @pytest.mark.parametrize(
        "entry, value",
        [
            ((3, 7), np.nan),
            ((5, 20), np.inf),
            ((9, 30), -1e-3),
            (None, None),
            (None, complex),
            (None, str),
            (None, object),
        ],
        ids=[
            "nan_candidate",
            "inf_support",
            "negative",
            "one_dim",
            "complex",
            "string",
            "object",
        ],
    )
    def test_bad_magnitudes_rejected_by_every_variant(self, rng, variant, entry, value):
        mag = rng.random((16, 40))
        config = kam.SeparationConfig(
            k=5, delta=2, surplus=5, variant=variant, support={20, 21}
        )
        plan = kam.plan_neighbors(mag, config)
        bad = mag.copy()
        if entry is None and value is None:
            bad = bad[:, 0]
        elif entry is None:
            # the same finite nonnegative values, held in a non-real dtype
            bad = bad.astype(value)
        else:
            bad[entry] = value
        gate = "magnitudes must be a finite nonnegative 2-D matrix"
        with pytest.raises(kam.KernelError, match=gate):
            kam.plan_neighbors(bad, config)
        with pytest.raises(kam.KernelError, match=gate):
            kam.separation_masks(bad, plan)


class TestSeparationConfig:
    def test_surplus_defaults_to_twice_k(self):
        assert kam.SeparationConfig(k=25).surplus == 50

    @pytest.mark.parametrize(
        "kwargs",
        [dict(k=0), dict(delta=-1), dict(surplus=-2), dict(variant="nope")],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(kam.KernelError):
            kam.SeparationConfig(**kwargs)
