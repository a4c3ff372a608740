"""Interference reduction via shift-invariant kernel additive modelling.

The package estimates the magnitude of a dominant musical source in every
interfered frame as a robust median over similar frames, where similarity is
measured either plainly (baseline), across all frequency shifts (exhaustive
shift-invariant kernel), or through the shift-invariant specmurt domain with
fast-deconvolution alignment and optional pruning. Soft masks derived from
the estimate split the recording into source and interference signals.
"""

from .evaluate import (
    EvalResult,
    SyntheticScene,
    build_scene,
    nsdr,
    run_grid,
    sdr,
)
from .kam import (
    NeighborSet,
    SeparationConfig,
    build_soft_mask,
    median_estimate,
    separate,
)
from .shiftkam import knn_shift_exhaustive, shift_frame
from .specmurt import (
    ShiftEstimate,
    estimate_shift_deconv,
    knn_specmurt,
    knn_specmurt_pruned,
)
from .synth import interference_clip, synthesize_note
from .timefreq import (
    ComplexSpectrogram,
    TransformParams,
    forward_logfreq,
    inverse_logfreq,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexSpectrogram",
    "EvalResult",
    "NeighborSet",
    "SeparationConfig",
    "ShiftEstimate",
    "SyntheticScene",
    "TransformParams",
    "build_scene",
    "build_soft_mask",
    "estimate_shift_deconv",
    "forward_logfreq",
    "interference_clip",
    "inverse_logfreq",
    "knn_shift_exhaustive",
    "knn_specmurt",
    "knn_specmurt_pruned",
    "median_estimate",
    "nsdr",
    "run_grid",
    "sdr",
    "separate",
    "shift_frame",
    "synthesize_note",
    "__version__",
]
