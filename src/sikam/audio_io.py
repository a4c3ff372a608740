"""WAV input and output, limited to 16-bit PCM and 32-bit float."""

from __future__ import annotations

import numpy as np
import scipy.io.wavfile


class AudioIOError(IOError):
    """Unreadable, unwritable or unsupported audio files."""


# The WAV encodings scipy reads as these sample types, none of them handled.
_UNSUPPORTED_FORMATS = {
    np.dtype(np.uint8): "8-bit PCM",
    np.dtype(np.int32): "24- or 32-bit integer PCM",
    np.dtype(np.float64): "64-bit float",
}


def read_wav(path) -> tuple[np.ndarray, float, str]:
    """Read a WAV file into float64 samples in [-1, 1).

    Returns (samples, sample_rate, subtype) where samples has shape (n,) for
    mono or (n, channels) otherwise and subtype is "pcm16" or "float32".
    """
    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError as exc:
        raise AudioIOError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise AudioIOError(f"cannot parse {path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
        subtype = "pcm16"
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
        subtype = "float32"
    else:
        name = _UNSUPPORTED_FORMATS.get(data.dtype, f"sample format {data.dtype}")
        raise AudioIOError(
            f"unsupported WAV {name} in {path}: only 16-bit PCM and 32-bit "
            "float are handled"
        )
    return samples, float(rate), subtype


def write_wav(path, samples, sample_rate: float, subtype: str = "pcm16") -> None:
    """Write float samples as 16-bit PCM (clipped) or 32-bit float."""
    samples = np.asarray(samples)
    if subtype == "pcm16":
        data = np.clip(np.round(samples * 32768.0), -32768, 32767).astype(np.int16)
    elif subtype == "float32":
        data = samples.astype(np.float32)
    else:
        raise AudioIOError(f"unsupported write subtype {subtype!r}")
    try:
        scipy.io.wavfile.write(path, int(sample_rate), data)
    except OSError as exc:
        raise AudioIOError(f"cannot write {path}: {exc}") from exc
