import sikam

PUBLIC_NAMES = {
    "ComplexSpectrogram",
    "EvalResult",
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
    "nsdr",
    "plan_neighbors",
    "run_grid",
    "sdr",
    "separate",
    "shift_frame",
    "synthesize_note",
}


def test_public_surface_is_pinned_and_resolves():
    assert len(sikam.__all__) == len(PUBLIC_NAMES) == 19
    assert set(sikam.__all__) == PUBLIC_NAMES
    for name in sikam.__all__:
        assert getattr(sikam, name) is not None, name
