"""Interference reduction via shift-invariant kernel additive modelling.

The package estimates the magnitude of a dominant musical source in every
interfered frame as a robust median over similar frames, where similarity is
measured either plainly (baseline), across all frequency shifts (exhaustive
shift-invariant kernel), or through the shift-invariant specmurt domain with
fast-deconvolution alignment and optional pruning. Soft masks derived from
the estimate split the recording into source and interference signals.
"""

from .kam import SeparationConfig, plan_neighbors, separate
from .shiftkam import shift_frame
from .timefreq import (
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
