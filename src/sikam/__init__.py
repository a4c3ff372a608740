"""Interference reduction via shift-invariant kernel additive modelling.

The package estimates the magnitude of a dominant musical source in every
interfered frame as a robust median over similar frames, where similarity is
measured either plainly (baseline), across all frequency shifts (exhaustive
shift-invariant kernel), or through the shift-invariant specmurt domain with
fast-deconvolution alignment and optional pruning. Soft masks derived from
the estimate split the recording into source and interference signals.
"""

import os

# The thread counts of the BLAS and OpenMP builds numpy may use, read once
# when numpy loads; each is set to one wherever the environment leaves it
# unset and this package is imported before numpy. The forward transform
# already runs on two threads, BLAS threads on top of those oversubscribe the
# cores, and small products stall with more than one.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in _THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

from .kam import SeparationConfig, plan_neighbors, separate  # noqa: E402
from .shiftkam import shift_frame  # noqa: E402
from .timefreq import (  # noqa: E402
    ComplexSpectrogram,
    TransformParams,
    forward_logfreq,
    inverse_logfreq,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexSpectrogram",
    "SeparationConfig",
    "TransformParams",
    "forward_logfreq",
    "inverse_logfreq",
    "plan_neighbors",
    "separate",
    "shift_frame",
]
