import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sikam import kam, specmurt
from sikam.timefreq import TransformParams, forward_logfreq

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Small, fast transform for tests that do not depend on the default setup.
SMALL_PARAMS = TransformParams(
    sample_rate=8000.0,
    bins_per_octave=12,
    f_min=40.0,
    hop=128,
    window_length=1024,
)


def make_transposition_suite(n_offsets=24, sr=22050.0, f0=220.0):
    """Magnitude frames of one harmonic tone at every bin offset in [-n, n].

    Column ``n_offsets + d`` holds the tone transposed up by d bins; the
    middle column is the untransposed reference.
    """
    params = TransformParams(sample_rate=sr)
    cols = []
    for d in range(-n_offsets, n_offsets + 1):
        t = np.arange(int(0.3 * sr)) / sr
        freq = f0 * 2 ** (d / 24)
        x = np.zeros_like(t)
        for m in range(1, 9):
            if m * freq < sr / 2:
                x += np.sin(2 * np.pi * m * freq * t + 0.37 * m) / m
        spect = forward_logfreq(x, params)
        cols.append(np.abs(spect.data[:, spect.n_frames // 2]))
    return np.stack(cols, axis=1), n_offsets


def near_tie_matrix(rng, n_bins, n_frames):
    """Frames whose distances to a flat target tie in exact arithmetic.

    Frame 0 is flat; every other frame holds a random pattern (odd frames) or
    the previous frame's pattern reversed (even frames) near the middle of
    the bins. Every shift that keeps the pattern inside the bins, and both
    orientations, give the same distance to frame 0; only rounding tells them
    apart, and the matrix-product form rounds differently.
    """
    mag = np.zeros((n_bins, n_frames))
    mag[:, 0] = 0.5
    quarter = n_bins // 4
    pattern = None
    for j in range(1, n_frames):
        pattern = rng.random(n_bins - 2 * quarter) if j % 2 else pattern[::-1]
        start = quarter + int(rng.integers(-quarter // 2, quarter // 2 + 1))
        mag[start : start + len(pattern), j] = pattern
    return mag


def neighbor_lists(plan):
    """Each target of a :class:`kam.Plan` with its (frame, shift) neighbors, closest first."""
    return {
        t: list(zip(f, s))
        for t, f, s in zip(plan.targets.tolist(), plan.frames.tolist(), plan.shifts.tolist())
    }


def search_one(mag, target, variant, k, delta=0, surplus=0):
    """One target's (frame, shift) neighbors from ``kam.plan_neighbors``.

    The target is the whole support, so every other frame is a candidate.
    """
    config = kam.SeparationConfig(
        k=k, delta=delta, surplus=surplus, variant=variant, support={target}
    )
    return neighbor_lists(kam.plan_neighbors(mag, config))[target]


def deconvolve(y, z):
    """The pruned search's deconvolution of one column pair: shift and ``|h|`` row.

    The shift lines ``z`` up with ``y`` through ``shift_frame(z, shift)`` and
    lies in ``[-n/2, n/2)``; the row is ``|h|`` for ``y = h * z`` (circular),
    whose peak gives the shift.
    """
    v, power = specmurt._inverse_spectra(np.stack([y, z], axis=1))
    shifts, mags = specmurt._deconvolve(v[0], v[1:], power[1:], len(y), v[1:])
    return int(shifts[0]), mags[0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_params():
    return SMALL_PARAMS
