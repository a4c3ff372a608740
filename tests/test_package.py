import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sikam

PUBLIC_NAMES = {
    "ComplexSpectrogram",
    "SeparationConfig",
    "TransformParams",
    "forward_logfreq",
    "inverse_logfreq",
    "plan_neighbors",
    "separate",
    "shift_frame",
}


def test_public_surface_is_pinned_and_resolves():
    assert len(sikam.__all__) == len(PUBLIC_NAMES) == 8
    assert set(sikam.__all__) == PUBLIC_NAMES
    for name in sikam.__all__:
        assert getattr(sikam, name) is not None, name


def test_import_leaves_the_evaluation_harness_out():
    # The scene builder, the metrics and the synthesizer have one import
    # path, sikam.evaluate and sikam.synth, and `import sikam` loads neither.
    src = str(Path(sikam.__file__).resolve().parents[1])
    code = (
        f"import sys\nsys.path.insert(0, {src!r})\nimport sikam\n"
        "print(sorted(m for m in ('sikam.evaluate', 'sikam.synth') if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "set"])
def test_import_defaults_blas_threads_to_one(preset):
    # Imported before numpy, the package sets each BLAS and OpenMP thread
    # count the environment leaves unset to one, and keeps a set one.
    src = str(Path(sikam.__file__).resolve().parents[1])
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in names}
    if preset is not None:
        env.update(dict.fromkeys(names, preset))
    code = (
        f"import os, sys\nsys.path.insert(0, {src!r})\nimport sikam\n"
        f"print([os.environ[name] for name in {names!r}])"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == str([preset or "1"] * len(names))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_runtime_dependencies_are_numpy_only():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert names == {"numpy"}
