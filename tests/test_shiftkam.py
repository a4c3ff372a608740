import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import near_tie_matrix, neighbor_lists, search_one
from test_kam import brute_force_knn, median

from sikam import kam, shiftkam


def brute_force_shift_knn(mag, target, candidates, k, delta):
    """Enumerate every (frame, shift), keep the best shift per frame, sort."""
    entries = []
    for c in candidates:
        if c == target:
            continue
        for d in range(-delta, delta + 1):
            shifted = shiftkam.shift_frame(mag[:, c], d)
            dist = float(np.sum((shifted - mag[:, target]) ** 2))
            entries.append((dist, c, d))
    entries.sort()
    out, seen = [], set()
    for _, c, d in entries:
        if c in seen:
            continue
        seen.add(c)
        out.append((c, d))
        if len(out) == k:
            break
    return out


def per_shift_oracle(mag, target, candidates, k, delta):
    """The search as a loop over shifts, each scoring the whole matrix exactly.

    Covered-band sum of squares of the difference plus the target's energy in
    the uncovered band; the first shift with the smallest distance wins.
    """
    cands = np.unique(np.asarray(list(candidates), dtype=int))
    cands = cands[cands != target]
    target_col = mag[:, target]
    best = np.full(len(cands), np.inf)
    best_shift = np.zeros(len(cands), dtype=int)
    for d in range(-delta, delta + 1):
        lo, hi = max(d, 0), mag.shape[0] + min(d, 0)
        core = mag[lo:hi] - target_col[lo - d : hi - d, None]
        head, tail = target_col[: lo - d], target_col[hi - d :]
        edge = float(np.dot(head, head) + np.dot(tail, tail))
        dist = (np.einsum("ij,ij->j", core, core) + edge)[cands]
        better = dist < best
        best[better] = dist[better]
        best_shift[better] = d
    order = np.lexsort((best_shift, cands, best))[:k]
    return [(int(cands[i]), int(best_shift[i])) for i in order]


def assert_search_matches_oracle(mag, k, delta, targets=None):
    """Every target's neighbors, one at a time and all at once, equal the oracle."""
    n_frames = mag.shape[1]
    targets = range(n_frames) if targets is None else targets
    expected = [per_shift_oracle(mag, t, range(n_frames), k, delta) for t in targets]
    for t, want in zip(targets, expected):
        assert search_one(mag, t, "shift_exhaustive", k, delta) == want, (t, k, delta)
    # the batched search with every target inside the candidate set
    frames, shifts = shiftkam._exhaustive_search(
        mag, list(targets), np.arange(n_frames), k, delta
    )
    assert [list(zip(f, s)) for f, s in zip(frames.tolist(), shifts.tolist())] == expected


class TestShiftFrame:
    def test_zero_shift_is_identity(self, rng):
        col = rng.random(20)
        np.testing.assert_array_equal(shiftkam.shift_frame(col, 0), col)

    def test_impulse_moves_down_for_positive_shift(self):
        col = np.zeros(16)
        col[10] = 1.0
        shifted = shiftkam.shift_frame(col, 3)
        assert shifted[7] == 1.0 and np.sum(shifted) == 1.0

    def test_inverse_shift_restores_interior(self, rng):
        col = rng.random(32)
        d = 5
        back = shiftkam.shift_frame(shiftkam.shift_frame(col, d), -d)
        np.testing.assert_array_equal(back[d:], col[d:])

    @given(
        arrays(np.float64, (24,), elements=st.floats(0, 10, allow_nan=False)),
        st.integers(-24, 24),
    )
    def test_padding_and_energy(self, col, d):
        shifted = shiftkam.shift_frame(col, d)
        assert shifted.shape == col.shape
        # shifted content is a subset of the original values
        assert np.sum(shifted**2) <= np.sum(col**2) + 1e-9

    def test_shift_beyond_length_rejected(self):
        with pytest.raises(kam.KernelError):
            shiftkam.shift_frame(np.zeros(8), 9)

    def test_matrix_form_shifts_each_column(self, rng):
        mat = rng.random((16, 5))
        shifts = np.array([0, 3, -4, 16, -16])
        out = shiftkam.shift_frame(mat, shifts)
        expected = np.stack(
            [shiftkam.shift_frame(mat[:, i], d) for i, d in enumerate(shifts)], axis=1
        )
        np.testing.assert_array_equal(out, expected)
        with pytest.raises(kam.KernelError):
            shiftkam.shift_frame(mat, np.array([0, 0, 17, 0, 0]))

    def test_shift_windows_are_read_only(self, rng):
        # Every shift of a row shares one padded copy, so a write through
        # one window would change the others.
        windows = shiftkam._shift_windows(rng.random((3, 8)), 2)
        with pytest.raises(ValueError, match="read-only"):
            windows[0, 0, 0] = 1.0


class TestKnnShiftExhaustive:
    """The exhaustive search of one target, every other frame a candidate."""

    def test_matches_brute_force_oracle(self, rng):
        mag = rng.random((48, 30))
        got = search_one(mag, 5, "shift_exhaustive", 8, 10)
        assert got == brute_force_shift_knn(mag, 5, range(30), 8, 10)

    def test_oracle_over_random_instances(self, rng):
        for _ in range(10):
            f = int(rng.integers(8, 32))
            t = int(rng.integers(6, 18))
            delta = int(rng.integers(0, 6))
            k = int(rng.integers(1, t - 1))
            target = int(rng.integers(0, t))
            mag = rng.random((f, t))
            got = search_one(mag, target, "shift_exhaustive", k, delta)
            assert got == brute_force_shift_knn(mag, target, range(t), k, delta)

    def test_identical_copies_selected_with_zero_shift(self, rng):
        col = rng.random(32)
        mag = np.tile(col[:, None], (1, 6))
        got = search_one(mag, 0, "shift_exhaustive", 5, 12)
        assert all(s == 0 for _, s in got)
        assert sorted(f for f, _ in got) == [1, 2, 3, 4, 5]

    def test_translated_copy_found_with_aligning_shift(self, rng):
        f = 64
        base = np.zeros(f)
        base[[20, 32, 40]] = [1.0, 0.6, 0.4]
        mag = rng.random((f, 5)) * 0.05
        mag[:, 2] = base
        # candidate 4 holds the same pattern 5 bins higher
        mag[:, 4] = np.roll(base, 5)
        ((frame, shift),) = search_one(mag, 2, "shift_exhaustive", 1, 12)
        assert frame == 4 and shift == 5

    def test_delta_zero_reduces_to_baseline(self, rng):
        for _ in range(10):
            mag = rng.random((12, 15))
            target = int(rng.integers(0, 15))
            got = search_one(mag, target, "shift_exhaustive", 6, 0)
            assert got == brute_force_knn(mag, target, range(15), 6)

    @given(arrays(np.float64, (10, 12), elements=st.floats(0, 5, allow_nan=False)))
    def test_delta_zero_reduction_property(self, mag):
        got = search_one(mag, 3, "shift_exhaustive", 4, 0)
        assert got == brute_force_knn(mag, 3, range(12), 4)

    def test_kth_distance_monotone_in_delta(self, rng):
        mag = rng.random((40, 20))
        target = 7

        def kth_distance(delta):
            neighbors = search_one(mag, target, "shift_exhaustive", 5, delta)
            dists = [
                float(
                    np.sum(
                        (shiftkam.shift_frame(mag[:, f], s) - mag[:, target]) ** 2
                    )
                )
                for f, s in neighbors
            ]
            return max(dists)

        prev = np.inf
        for delta in (0, 2, 5, 10, 20):
            cur = kth_distance(delta)
            assert cur <= prev + 1e-12
            prev = cur

    def test_pool_too_small_rejected(self, rng):
        mag = rng.random((8, 4))
        with pytest.raises(kam.KernelError):
            search_one(mag, 0, "shift_exhaustive", 4, 2)

    @pytest.mark.parametrize(
        "target, k, delta",
        [
            pytest.param(3, -1, 2, id="negative-k"),
            pytest.param(3, 4, -1, id="negative-delta"),
            pytest.param(-1, 4, 2, id="target-before-first-frame"),
            pytest.param(20, 4, 2, id="target-past-last-frame"),
        ],
    )
    def test_bad_input_rejected(self, rng, target, k, delta):
        with pytest.raises(kam.KernelError):
            search_one(rng.random((16, 20)), target, "shift_exhaustive", k, delta)


class TestExhaustiveEngine:
    """The matrix-product search against the per-shift oracle."""

    def test_random_matrices(self, rng):
        for _ in range(40):
            f = int(rng.integers(2, 40))
            t = int(rng.integers(3, 25))
            delta = int(rng.choice([0, 1, f, int(rng.integers(0, f + 1))]))
            k = int(rng.integers(1, t))
            assert_search_matches_oracle(rng.random((f, t)), k, delta)

    def test_small_integer_matrices(self, rng):
        # values in {0, 1, 2}: distances tie exactly across frames and shifts
        for _ in range(40):
            f = int(rng.integers(2, 30))
            t = int(rng.integers(3, 20))
            delta = int(rng.choice([0, 1, f, int(rng.integers(0, f + 1))]))
            k = int(rng.integers(1, t))
            assert_search_matches_oracle(rng.integers(0, 3, (f, t)).astype(float), k, delta)

    @given(
        arrays(np.float64, (9, 8), elements=st.sampled_from([0.0, 1.0, 2.0, 0.1, 0.7])),
        st.sampled_from([0, 1, 3, 9]),
        st.integers(1, 7),
    )
    def test_tie_heavy_property(self, mag, delta, k):
        assert_search_matches_oracle(mag, k, delta)

    def test_duplicate_and_silent_frames(self, rng):
        for _ in range(20):
            f = int(rng.integers(4, 40))
            t = int(rng.integers(6, 20))
            mag = rng.random((f, t))
            mag[:, rng.choice(t, 2, replace=False)] = 0.0
            src, dst = rng.choice(t, 2, replace=False)
            mag[:, dst] = mag[:, src]
            mag[: int(rng.integers(0, f)), int(rng.integers(0, t))] = 0.0
            delta = int(rng.choice([0, 1, f, int(rng.integers(0, f + 1))]))
            assert_search_matches_oracle(mag, t - 1, delta)
            assert_search_matches_oracle(mag, int(rng.integers(1, t)), delta)

    def test_near_ties_settled_by_exact_distances(self, rng):
        for _ in range(10):
            f = int(rng.integers(24, 64))
            mag = near_tie_matrix(rng, f, 24)
            for delta in (0, 1, f // 8, f):
                for k in (3, 12, 23):
                    assert_search_matches_oracle(mag, k, delta, targets=[0])

    def test_target_inside_and_outside_the_candidates(self, rng):
        mag = rng.random((20, 12))
        for target in (0, 5, 11):
            inside = shiftkam._exhaustive_search(mag, [target], np.arange(12), 4, 6)
            outside = shiftkam._exhaustive_search(
                mag, [target], np.setdiff1d(np.arange(12), target), 4, 6
            )
            np.testing.assert_array_equal(inside, outside)
            assert target not in inside[0]
        # a target outside a smaller candidate set
        frames, shifts = shiftkam._exhaustive_search(mag, [0, 11], np.arange(1, 11), 10, 6)
        for target, f, s in zip([0, 11], frames.tolist(), shifts.tolist()):
            assert list(zip(f, s)) == per_shift_oracle(mag, target, range(1, 11), 10, 6)

    def test_k_equal_to_pool_returns_every_frame(self, rng):
        mag = rng.random((16, 9))
        got = search_one(mag, 4, "shift_exhaustive", 8, 5)
        assert sorted(f for f, _ in got) == [0, 1, 2, 3, 5, 6, 7, 8]
        assert got == per_shift_oracle(mag, 4, range(9), 8, 5)

    def test_delta_beyond_bins_rejected(self, rng):
        mag = rng.random((8, 6))
        got = search_one(mag, 0, "shift_exhaustive", 3, 8)
        assert got == per_shift_oracle(mag, 0, range(6), 3, 8)
        with pytest.raises(kam.KernelError, match="exceeds the 8 frequency bins"):
            search_one(mag, 0, "shift_exhaustive", 3, 9)
        config = kam.SeparationConfig(k=3, delta=9, variant="shift_exhaustive", support={2})
        with pytest.raises(kam.KernelError):
            kam.plan_neighbors(mag, config)

    def test_plan_neighbors_matches_per_target_calls(self, rng):
        mag = rng.random((40, 60))
        support = {7, 8, 9, 30, 31, 59}
        candidates = [c for c in range(60) if c not in support]
        for variant, delta in (("baseline", 0), ("shift_exhaustive", 12)):
            config = kam.SeparationConfig(k=15, delta=12, variant=variant, support=support)
            plans = neighbor_lists(kam.plan_neighbors(mag, config))
            assert sorted(plans) == sorted(support)
            for t, got in plans.items():
                frames, shifts = shiftkam._exhaustive_search(mag, [t], candidates, 15, delta)
                assert got == list(zip(frames[0].tolist(), shifts[0].tolist()))
                assert got == per_shift_oracle(mag, t, candidates, 15, delta)


class TestMedianEstimateShifted:
    def test_aligned_copies_reconstruct_clean_column(self, rng):
        f = 48
        clean = np.zeros(f)
        clean[[10, 22, 30]] = [1.0, 0.7, 0.5]
        shifts = [-4, -2, 3, 6, 0]
        mag = np.zeros((f, 6))
        mag[:, 0] = clean + rng.random(f) * 0.5  # corrupted target
        for i, d in enumerate(shifts, start=1):
            # neighbor transposed up by d reads back with shift +d
            mag[:, i] = np.roll(clean, d)
        est = median(mag, list(enumerate(shifts, start=1)))
        np.testing.assert_allclose(est[8:36], clean[8:36], atol=1e-12)

    def test_single_neighbor_is_shifted_column(self, rng):
        mag = rng.random((16, 3))
        np.testing.assert_array_equal(median(mag, [(2, 2)]), shiftkam.shift_frame(mag[:, 2], 2))


class TestTranspositionDiscovery:
    def test_kernel_finds_aligning_shifts(self, rng):
        from conftest import make_transposition_suite

        mag, center = make_transposition_suite()
        target = center  # the d=0 frame
        noisy = mag.copy()
        noisy[:, target] += rng.random(mag.shape[0]) * 0.1 * mag[:, target].max()
        k = 10
        good = 0
        for frame, shift in search_one(noisy, target, "shift_exhaustive", k, 48):
            d = frame - center  # neighbor transposed up by d bins
            if abs(shift - d) <= 1:
                good += 1
        assert good / k >= 0.9
