import re
import sys
from pathlib import Path

import pytest

import sikam

PUBLIC_NAMES = {
    "ComplexSpectrogram",
    "EvalResult",
    "SeparationConfig",
    "SyntheticScene",
    "TransformParams",
    "build_scene",
    "build_soft_mask",
    "forward_logfreq",
    "interference_clip",
    "inverse_logfreq",
    "nsdr",
    "plan_neighbors",
    "run_grid",
    "sdr",
    "separate",
    "shift_frame",
    "synthesize_note",
}


def test_public_surface_is_pinned_and_resolves():
    assert len(sikam.__all__) == len(PUBLIC_NAMES) == 17
    assert set(sikam.__all__) == PUBLIC_NAMES
    for name in sikam.__all__:
        assert getattr(sikam, name) is not None, name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_runtime_dependencies_are_numpy_only():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert names == {"numpy"}
