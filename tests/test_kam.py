import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import near_tie_matrix, search_one

from sikam import kam, shiftkam, specmurt, timefreq
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


def soft_mask(s, x):
    """The mask ``separation_masks`` gives observed magnitudes ``x`` for estimate ``s``.

    The matrix is ``[s | x]``, and target column i of ``x`` has column i of
    ``s`` as its only neighbour, at shift 0: the median of one column is that
    column bit for bit.
    """
    n = np.shape(s)[1]
    plan = kam.Plan(np.arange(n, 2 * n), np.arange(n)[:, None], np.zeros((n, 1), dtype=int))
    return kam.separation_masks(np.concatenate([s, x], axis=1), plan)[:, n:]


class TestSoftMask:
    def test_estimate_equals_observation_gives_ones(self, rng):
        x = rng.random((5, 6)) + 0.1
        mask = soft_mask(x, x)
        np.testing.assert_array_equal(mask, np.ones_like(x))

    def test_zero_estimate_gives_zeros(self, rng):
        x = rng.random((5, 6))
        assert not np.any(soft_mask(np.zeros_like(x), x))

    def test_formula_value(self):
        mask = soft_mask(np.array([[3.0]]), np.array([[5.0]]))
        assert mask[0, 0] == pytest.approx(0.6)

    def test_zero_over_zero_is_zero(self):
        mask = soft_mask(np.array([[0.0]]), np.array([[0.0]]))
        assert mask[0, 0] == 0.0

    def test_saturation_where_estimate_dominates(self, rng):
        s = rng.random((4, 4)) + 0.5
        x = s * 0.7
        np.testing.assert_array_equal(soft_mask(s, x), np.ones_like(s))

    @given(
        arrays(np.float64, (4, 5), elements=st.floats(0, 100, allow_nan=False)),
        arrays(np.float64, (4, 5), elements=st.floats(0, 100, allow_nan=False)),
    )
    def test_mask_bounds(self, s, x):
        mask = soft_mask(s, x)
        assert np.all(mask >= 0.0) and np.all(mask <= 1.0)
        saturated = (s >= x) & (s > 0)
        assert np.array_equal(mask == 1.0, saturated)

    def test_negative_inputs_rejected(self):
        with pytest.raises(kam.KernelError):
            soft_mask(-np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("operand", ["estimate", "observed"])
    @pytest.mark.parametrize(
        "bad", [-1.0, np.nan, np.inf, 1.0 + 1.0j], ids=["negative", "nan", "inf", "complex"]
    )
    def test_bad_magnitudes_rejected(self, operand, bad):
        # a bad neighbour column or a bad target column, caught before any median
        good, worse = np.ones((1, 2)), np.array([[1.0, bad]])
        s, x = (worse, good) if operand == "estimate" else (good, worse)
        with pytest.raises(kam.KernelError, match="finite nonnegative"):
            soft_mask(s, x)

    def test_integer_magnitudes_divide(self):
        mask = soft_mask(np.array([[3, 0]]), np.array([[5, 0]]))
        np.testing.assert_array_equal(mask, [[0.6, 0.0]])

    @pytest.mark.parametrize("variant", kam.VARIANTS)
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_, np.float32])
    def test_any_real_dtype_plans_and_masks_like_float64(self, rng, variant, dtype):
        # uint8 values up to 200 wrap in an unsigned difference, booleans
        # cannot be subtracted, and an integer mask truncates 0.75 to 0.
        config = kam.SeparationConfig(
            k=5, delta=3, surplus=5, variant=variant, support={3, 17, 18, 31}
        )
        for _ in range(5):
            mag = rng.random((24, 40)) * 200
            mag = (mag > 100 if dtype is np.bool_ else mag).astype(dtype)
            plan = kam.plan_neighbors(mag, config)
            expected = kam.plan_neighbors(mag.astype(np.float64), config)
            for name in ("targets", "frames", "shifts"):
                np.testing.assert_array_equal(getattr(plan, name), getattr(expected, name))
            mask = kam.separation_masks(mag, plan)
            assert mask.dtype == np.float64
            np.testing.assert_array_equal(
                mask, kam.separation_masks(mag.astype(np.float64), expected)
            )


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

    @pytest.mark.parametrize("variant", kam.VARIANTS)
    def test_interference_is_input_minus_source(self, rng, small_params, variant):
        spect = self._spect(rng, small_params)
        config = kam.SeparationConfig(
            k=4, delta=3, surplus=4, variant=variant, support=frozenset({8, 9, 10})
        )
        source, interference = kam.separate(spect, config)
        mag = np.abs(spect.data)
        mask = kam.separation_masks(mag, kam.plan_neighbors(mag, config))
        assert np.array_equal(source.data, spect.data * mask)
        assert np.array_equal(interference.data, spect.data - source.data)

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


class TestPlanMemory:
    @pytest.mark.parametrize("variant", kam.VARIANTS)
    def test_peak_memory_grows_with_the_targets_times_the_frames(self, rng, variant):
        # Doubling the frames may add a few float64 per (target, added frame)
        # and the added magnitude columns (the input checks and the specmurt
        # matrix), never a T x T matrix of frame distances.
        n_bins, targets, lengths = 232, 40, (2000, 4000)
        support = range(1000, 1000 + targets)
        config = kam.SeparationConfig(k=50, delta=12, variant=variant, support=support)
        peaks = []
        for n_frames in lengths:
            mag = rng.random((n_bins, n_frames))
            kam.plan_neighbors(mag, config)  # untraced, so caches fill outside the trace
            tracemalloc.start()
            try:
                kam.plan_neighbors(mag, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        more_frames = lengths[1] - lengths[0]
        allowed = 9 * 8 * targets * more_frames + n_bins * more_frames * 8 + 2**20  # 1 MiB slack
        assert peaks[1] - peaks[0] <= allowed
        assert (lengths[1] ** 2 - lengths[0] ** 2) * 8 > 5 * allowed

    def test_peak_memory_of_the_shift_search_stays_at_one_chunk(self, rng):
        # Past one chunk of targets, doubling the support adds only the
        # output rows: the neighbor frames and shifts of each added target.
        # Twelve recorded runs added 1.7-2.7 KB beyond the output rows.
        n_bins, n_frames, k = 232, 2000, 50
        mag = rng.random((n_bins, n_frames))
        supports = (256, 512)
        assert supports[0] > shiftkam.CHUNK_ROWS
        peaks = []
        for n_targets in supports:
            support = range(700, 700 + n_targets)
            config = kam.SeparationConfig(
                k=k, delta=12, variant="shift_exhaustive", support=support
            )
            kam.plan_neighbors(mag, config)  # untraced, so caches fill outside the trace
            tracemalloc.start()
            try:
                kam.plan_neighbors(mag, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added_rows = 2 * 8 * k * (supports[1] - supports[0])
        slack = 2**18
        assert peaks[1] - peaks[0] <= added_rows + slack
        # one (added targets x T) array of float64 would break the bound
        assert (supports[1] - supports[0]) * n_frames * 8 > 1.5 * (added_rows + slack)

    def test_peak_memory_of_the_pruned_re_rank_grows_with_its_pools(self, rng):
        # Past one chunk of targets, doubling a specmurt_pruned support may
        # add the pool search's (2, targets, k + P) block and the plan's
        # output rows, but no (targets x pool) array of the re-rank: each
        # target's distances and shifts live only while it is re-ranked.
        # Four recorded runs added 1,202 KiB, 4.8 KB per added target;
        # with the re-rank's (targets x pool) distances and shifts and an
        # assembly pass after it, 3,626-3,678 KiB.
        n_bins, n_frames, k, surplus = 232, 3000, 100, 200
        mag = rng.random((n_bins, n_frames))
        supports = (256, 512)
        peaks = []
        for n_targets in supports:
            config = kam.SeparationConfig(
                k=k, delta=12, surplus=surplus, variant="specmurt_pruned",
                support=range(700, 700 + n_targets),
            )
            kam.plan_neighbors(mag, config)  # untraced, so caches fill outside the trace
            tracemalloc.start()
            try:
                kam.plan_neighbors(mag, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added = supports[1] - supports[0]
        allowed = 2 * 8 * (2 * k + surplus) * added + 2**18
        assert peaks[1] - peaks[0] <= allowed


def plans_both_ways(monkeypatch, mag, config):
    """The plan of ``config`` with the two-thread gate closed and with it
    open, and how many calls the second one split between two threads. With
    the gate open the plan is made twice, each thread folding in one shift
    at a time and then stacking its shifts; the two must agree word for word."""
    monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", np.inf)
    serial = kam.plan_neighbors(mag, config)
    splits = []

    def counted(first, second):
        splits.append(1)
        return timefreq._two_threads(first, second)

    for module in (shiftkam, specmurt):
        monkeypatch.setattr(module, "_two_threads", counted)
    monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", 0)
    plans = []
    for stack_entries in (0, np.inf):
        monkeypatch.setattr(shiftkam, "STACK_ENTRIES", stack_entries)
        splits.clear()
        plans.append(kam.plan_neighbors(mag, config))
    folded, stacked = plans
    assert folded.frames.tobytes() == stacked.frames.tobytes()
    assert folded.shifts.tobytes() == stacked.shifts.tobytes()
    return serial, stacked, len(splits)


def scanned_arrays(monkeypatch, *search_args):
    """The neighbors ``shiftkam._exhaustive_search(*search_args)`` returns,
    and copies of the best, runner-up and best-shift arrays of each chunk,
    by the chunk's first target."""
    chunks, settle = {}, shiftkam._settle

    def recorded(data, targets, outside, margin, best, runner, best_shift, plan, delta):
        chunks[targets[0]] = best.copy(), runner.copy(), best_shift.copy()
        settle(data, targets, outside, margin, best, runner, best_shift, plan, delta)

    monkeypatch.setattr(shiftkam, "_settle", recorded)
    found = shiftkam._exhaustive_search(*search_args)
    monkeypatch.setattr(shiftkam, "_settle", settle)
    return found, chunks


class TestTwoThreadSearch:
    """Above the one gate the exhaustive search with shifts splits its
    shifts, and the specmurt re-rank its targets, between two threads; each
    plan must be the one thread's, word for word."""

    @pytest.mark.parametrize("n_targets", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "make_matrix",
        [
            lambda rng, f, t: rng.random((f, t)),
            # values in {0, 1, 2}: distances tie exactly across frames and shifts
            lambda rng, f, t: rng.integers(0, 3, (f, t)).astype(float),
            # few distinct integer columns, repeated: exact ties everywhere
            lambda rng, f, t: rng.integers(0, 3, (f, 4)).astype(float)[:, rng.integers(0, 4, t)],
            near_tie_matrix,
        ],
        ids=["random", "small-integer", "tie-heavy", "near-tie"],
    )
    def test_plans_equal_the_one_thread_plans(self, monkeypatch, rng, make_matrix, n_targets):
        for _ in range(6):
            f, t = int(rng.integers(4, 48)), int(rng.integers(n_targets + 8, 40))
            mag = make_matrix(rng, f, t)
            support = frozenset(rng.choice(t, n_targets, replace=False).tolist())
            pool = t - n_targets
            k = int(rng.integers(1, pool // 2 + 1))
            for variant in kam.VARIANTS:
                # an odd pool of k + surplus frames, then an even one
                for surplus in {0, 1 - k % 2, 2 - k % 2}:
                    config = kam.SeparationConfig(
                        k=k, delta=int(rng.integers(1, f + 1)), surplus=surplus,
                        variant=variant, support=support,
                    )
                    serial, split, splits = plans_both_ways(monkeypatch, mag, config)
                    # the specmurt pool search has no shifts, so never splits
                    expected = variant == "shift_exhaustive" or (
                        variant.startswith("specmurt") and n_targets > 1
                    )
                    assert splits == expected, (variant, n_targets)
                    for name in ("targets", "frames", "shifts"):
                        a, b = getattr(serial, name), getattr(split, name)
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes(), (variant, name)

    @pytest.mark.parametrize("stack_entries", [0, np.inf])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
    def test_chunks_keep_the_plans(self, monkeypatch, rng, chunk_rows, stack_entries):
        # Each chunk of targets is scanned and settled on its own; split,
        # each thread scans every other shift of it, folding in one shift
        # at a time or reducing a stack of them. A
        # product of fewer rows may round otherwise, so across chunk sizes
        # only the neighbors must agree; at one chunk size, the split scan's
        # arrays are the one-thread arrays to the bit.
        mag = rng.integers(0, 3, (20, 4)).astype(float)[:, rng.integers(0, 4, 36)]
        mag[:, :18] = rng.random((20, 18))
        args = (mag, np.array([1, 4, 7, 20, 22, 30, 35]), np.arange(36), 5, 4)
        monkeypatch.setattr(shiftkam, "STACK_ENTRIES", stack_entries)
        monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", np.inf)
        whole = shiftkam._exhaustive_search(*args)
        monkeypatch.setattr(shiftkam, "CHUNK_ROWS", chunk_rows)
        found, serial = scanned_arrays(monkeypatch, *args)
        monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", 0)
        split_found, split = scanned_arrays(monkeypatch, *args)
        assert len(serial) == -(-7 // chunk_rows) and serial.keys() == split.keys()
        for neighbors in (found, split_found):
            assert [a.tobytes() for a in neighbors] == [a.tobytes() for a in whole]
        for first, arrays in serial.items():
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in split[first]]

    @pytest.mark.parametrize("stack_entries", [0, np.inf])
    @pytest.mark.parametrize(
        "aligning, first",
        [((1, -1), -1), ((1, -2), 1), ((2, -2), -2), ((1, 2), 1), ((-2, -1), -1)],
    )
    def test_a_best_reached_twice_keeps_the_first_shift(
        self, monkeypatch, aligning, first, stack_entries
    ):
        # Frame 1 holds two copies of the target's impulse, each lined up
        # by one of the aligning shifts, so it reaches its best at both:
        # a negative shift is the worker's, a positive one the caller's. The
        # shift first in |d| order (0, -1, 1, -2, 2, ...) is kept, as on one
        # thread, whether each thread folds its shifts or stacks them.
        monkeypatch.setattr(shiftkam, "STACK_ENTRIES", stack_entries)
        mag = np.full((24, 6), 0.25)
        mag[:, 0] = 0.0
        mag[12, 0] = 1.0
        mag[:, 1] = 0.0
        for d in aligning:
            mag[12 + d, 1] = 1.0
        args = (mag, np.array([0]), np.arange(1, 6), 2, 3)
        for gate in (np.inf, 0):
            monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", gate)
            (frames, shifts), chunks = scanned_arrays(monkeypatch, *args)
            best, runner, best_shift = chunks[0]
            assert best[0, 1] == runner[0, 1]
            assert best_shift[0, 1] == first
            # the tie sends frame 1 to the exact re-score, whose order of
            # (distance, frame, shift) keeps the smaller shift
            assert frames[0, 0] == 1 and shifts[0, 0] == min(aligning)
            if gate:
                serial = best, runner, best_shift
        for want, got in zip(serial, (best, runner, best_shift)):
            assert want.tobytes() == got.tobytes()

    def test_a_pool_of_one_frame(self, monkeypatch, rng):
        # the caller re-ranks one target and the worker the other
        config = kam.SeparationConfig(k=1, delta=3, surplus=0, variant="specmurt", support={0, 4})
        serial, split, splits = plans_both_ways(monkeypatch, rng.random((16, 12)), config)
        assert splits == 1
        assert serial.frames.tobytes() == split.frames.tobytes()
        assert serial.shifts.tobytes() == split.shifts.tobytes()

    def test_overflowing_energies_keep_every_shift_in_range(self, monkeypatch, rng):
        # Planned as they are, magnitudes near 1e200 square to inf, every
        # approximate distance turns NaN and the plans list support frames,
        # each target among its own neighbors. Up to the largest doubles,
        # every variant plans within the candidates with no floating-point
        # error, on one thread and on two, as it plans the same matrix
        # scaled by a power of two to a largest entry in [0.5, 1).
        n_bins, support = 16, {2, 5}
        # up to sqrt(M / 8) / F**2 (M the largest double) no sum of an
        # unscaled search can overflow
        overflow_bound = np.sqrt(np.finfo(float).max / 8) / n_bins**2
        unit = 1 - rng.random((n_bins, 12)) / 2  # in (0.5, 1]
        unit[:, 3] = 1.0
        for value in (1e200, np.nextafter(overflow_bound, np.inf), np.finfo(float).max / 2):
            mag = value * unit
            unscaled = np.ldexp(mag, -np.frexp(value)[1])
            for variant in kam.VARIANTS:
                config = kam.SeparationConfig(k=3, delta=3, variant=variant, support=support)
                with np.errstate(over="raise", invalid="raise"):
                    kam.separation_masks(mag, kam.plan_neighbors(mag, config))
                serial, split, splits = plans_both_ways(monkeypatch, mag, config)
                assert splits == (variant != "baseline")
                assert not np.isin(serial.frames, list(support)).any(), variant
                assert np.abs(serial.shifts).max() <= config.delta
                expected = kam.plan_neighbors(unscaled, config)
                for plan in (split, expected):
                    assert serial.frames.tobytes() == plan.frames.tobytes()
                    assert serial.shifts.tobytes() == plan.shifts.tobytes()

    @pytest.mark.filterwarnings("error")
    @given(st.integers(-1000, 1020))
    @example(-1000)
    @example(-530)
    @example(-65)
    @example(-64)
    @example(64)
    @example(65)
    @example(600)
    @example(1020)
    def test_a_power_of_two_scale_changes_no_plan_or_mask(self, exponent):
        # Exact scales on both sides of kam.UNSCALED_EXPONENTS. Planned as
        # they are, a random matrix's specmurt plans change from about
        # 2**-530 down, where eps**2 underflows, and every variant's from
        # about 2**500 up, where the searches' sums overflow.
        rng = np.random.default_rng(1234)
        for mag in (rng.random((16, 40)), near_tie_matrix(rng, 16, 40)):
            scaled = np.ldexp(mag, exponent)
            assert np.array_equal(np.ldexp(scaled, -exponent), mag)  # no bit lost
            for variant in kam.VARIANTS:
                config = kam.SeparationConfig(k=3, delta=3, variant=variant, support={2, 5, 9})
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    plans = [kam.plan_neighbors(m, config) for m in (mag, scaled)]
                    masks = [kam.separation_masks(m, p) for m, p in zip((mag, scaled), plans)]
                for name in ("frames", "shifts"):
                    assert getattr(plans[0], name).tobytes() == getattr(plans[1], name).tobytes()
                assert masks[0].tobytes() == masks[1].tobytes(), variant

    @pytest.mark.parametrize(
        "variant, module, name",
        [
            ("shift_exhaustive", shiftkam, "_scan"),
            ("specmurt", specmurt, "_deconvolve"),
            ("specmurt_pruned", specmurt, "_deconvolve"),
        ],
    )
    def test_failure_in_the_worker_raises_in_the_caller(
        self, monkeypatch, rng, variant, module, name
    ):
        # Only the worker's half fails; its shifts or rows would otherwise
        # be missed or returned unwritten.
        monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", 0)
        search = getattr(module, name)

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("the worker's half")
            return search(*args)

        monkeypatch.setattr(module, name, failing)
        config = kam.SeparationConfig(k=4, delta=3, surplus=3, variant=variant, support={2, 5, 9})
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="the worker's half"):
            kam.plan_neighbors(rng.random((16, 30)), config)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_call(self, monkeypatch, rng):
        monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", 0)
        before = threading.active_count()
        for variant in kam.VARIANTS:
            config = kam.SeparationConfig(k=4, delta=3, variant=variant, support={2, 5, 9})
            kam.plan_neighbors(rng.random((16, 30)), config)
            assert threading.active_count() == before

    def test_concurrent_plans_under_rapid_switching(self, monkeypatch, rng):
        # Four callers, each splitting its search in two, on two cores: every
        # plan must still be the one-thread plan, so no half writes another's
        # rows and no call leans on state another call changes.
        mag = rng.random((24, 60))
        configs = [
            kam.SeparationConfig(k=6, delta=5, surplus=5, variant=v, support={3, 17, 18, 40, 59})
            for v in kam.VARIANTS
        ]
        monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", np.inf)
        expected = [kam.plan_neighbors(mag, c) for c in configs]
        monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", 0)
        got = [[] for _ in configs]

        def plan_many(i):
            for _ in range(25):
                got[i].append(kam.plan_neighbors(mag, configs[i]))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=plan_many, args=(i,)) for i in range(len(configs))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(caller.is_alive() for caller in callers)
        for want, plans in zip(expected, got):
            assert len(plans) == 25
            for plan in plans:
                assert plan.frames.tobytes() == want.frames.tobytes()
                assert plan.shifts.tobytes() == want.shifts.tobytes()

    def test_a_failure_in_the_caller_still_joins_the_worker(self):
        started, release = threading.Event(), threading.Event()

        def worker():
            started.set()
            release.wait(5)

        def caller():
            started.wait(5)
            release.set()
            raise KeyError("the caller's half")

        before = threading.active_count()
        with pytest.raises(KeyError):
            timefreq._two_threads(caller, worker)
        assert threading.active_count() == before


def per_target_pool_plan(mag, config):
    """Frames and shifts of a specmurt ``config`` whose k + P is every
    candidate, found through a pool per target.

    One more candidate, an impulse far louder than any frame, leaves k + P
    one short of the candidates, so the pools come from the specmurt search;
    its specmurt row is the farthest from every target's, so each pool is
    every other frame, the shared pool of the plan without it.
    """
    far = np.zeros((len(mag), 1))
    far[0] = 1e3 * len(mag) * (1 + mag.max())
    data = np.hstack([mag, far])
    support = np.array(sorted(config.support))
    cands = np.setdiff1d(np.arange(data.shape[1]), support)
    surplus = config.surplus_used
    assert config.k + surplus == len(cands) - 1
    return specmurt._pruned_search(data, support, cands, config.k, surplus, config.delta)


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list its calls append to."""
    calls, function = [], getattr(module, name)

    def counted(*args):
        calls.append(1)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSharedPool:
    """Where k + P is every candidate, the specmurt variants skip the pool
    search and every target re-ranks one shared pool; the plans must be
    those of a pool per target, word for word."""

    @pytest.mark.parametrize("gate", [0, np.inf], ids=["split", "serial"])
    @pytest.mark.parametrize("n_targets", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "make_matrix",
        [
            lambda rng, f, t: rng.random((f, t)),
            # values in {0, 1, 2}: distances tie exactly across frames and shifts
            lambda rng, f, t: rng.integers(0, 3, (f, t)).astype(float),
            # few distinct integer columns, repeated: exact ties everywhere
            lambda rng, f, t: rng.integers(0, 3, (f, 4)).astype(float)[:, rng.integers(0, 4, t)],
            near_tie_matrix,
        ],
        ids=["random", "small-integer", "tie-heavy", "near-tie"],
    )
    def test_plans_equal_the_per_target_pool_plans(
        self, monkeypatch, rng, make_matrix, n_targets, gate
    ):
        monkeypatch.setattr(shiftkam, "SPLIT_ENTRIES", gate)
        pool_searches = counting(monkeypatch, specmurt, "_exhaustive_search")
        for _ in range(4):
            f, t = int(rng.integers(4, 48)), int(rng.integers(n_targets + 2, 40))
            mag = make_matrix(rng, f, t)
            mag[:, rng.integers(t)] = 0.0  # a silent target or candidate
            support = frozenset(rng.choice(t, n_targets, replace=False).tolist())
            pool = t - n_targets
            k_pruned = int(rng.integers(1, pool + 1))
            for variant, k in (("specmurt", pool), ("specmurt_pruned", k_pruned)):
                config = kam.SeparationConfig(
                    k=k, delta=int(rng.integers(1, f + 1)), surplus=pool - k,
                    variant=variant, support=support,
                )
                shared = kam.plan_neighbors(mag, config)
                searched = len(pool_searches)
                frames, shifts = per_target_pool_plan(mag, config)
                assert len(pool_searches) == searched + 1
                assert shared.frames.tobytes() == frames.tobytes(), variant
                assert shared.shifts.tobytes() == shifts.tobytes(), variant
        assert len(pool_searches) == 8

    @pytest.mark.parametrize("variant", ["specmurt", "specmurt_pruned"])
    def test_a_shared_pool_runs_no_specmurt_search(self, monkeypatch, rng, variant):
        matrices = counting(monkeypatch, specmurt, "specmurt_matrix")
        pool_searches = counting(monkeypatch, specmurt, "_exhaustive_search")
        mag, support = rng.random((16, 30)), {2, 5, 9}
        for k, surplus in ((27, 0), (26, 1), (4, 3), (20, 6)):
            config = kam.SeparationConfig(
                k=k, delta=3, surplus=surplus, variant=variant, support=support
            )
            pool = config.k + config.surplus_used
            kam.plan_neighbors(mag, config)
            assert len(matrices) == len(pool_searches) == int(pool < 27), (k, surplus)
            matrices.clear()
            pool_searches.clear()


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

    @pytest.mark.parametrize(
        "kwargs",
        [dict(k=2.5), dict(delta=1.5), dict(surplus=1.5), dict(support={2.7}), dict(k="3")],
    )
    def test_non_integer_settings_rejected(self, kwargs):
        # Unchecked, a float fails inside an engine's slice, or a support
        # frame is truncated to another frame.
        with pytest.raises(kam.KernelError, match="must be an integer"):
            kam.SeparationConfig(**kwargs)

    def test_numpy_integers_accepted_as_ints(self):
        config = kam.SeparationConfig(k=np.int64(4), delta=np.int32(2), support={np.int64(7)})
        assert (config.k, config.delta, config.surplus, config.support) == (4, 2, 8, {7})
        values = (config.k, config.delta, config.surplus, *config.support)
        assert all(type(v) is int for v in values)
