import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sikam import kam
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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_params():
    return SMALL_PARAMS
