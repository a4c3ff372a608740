"""WAV input and output, limited to 16-bit PCM and 32-bit float.

Files are little-endian RIFF WAVE files: a ``fmt `` chunk, plain or
``WAVE_FORMAT_EXTENSIBLE``, before a ``data`` chunk, with any other chunk
skipped. Writes lay out the header as ``scipy.io.wavfile.write`` does.
"""

from __future__ import annotations

import struct

import numpy as np


class AudioIOError(IOError):
    """Unreadable, unwritable or unsupported audio files."""


_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# The GUID of an extensible format, after its first two bytes (the format tag).
_EXTENSIBLE_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

# (format tag, bits per sample) -> (subtype, sample type) of the handled encodings.
_SUBTYPES = {(_PCM, 16): ("pcm16", "<i2"), (_FLOAT, 32): ("float32", "<f4")}
_SAMPLE_TYPES = {subtype: dtype for subtype, dtype in _SUBTYPES.values()}

# Sample frames encoded and written at a time, so that a write holds a block's
# temporaries, not copies of the whole signal.
WRITE_BLOCK = 2**16


def _format_name(tag: int, bits: int) -> str:
    """What an unhandled encoding is called in the error message."""
    if tag == _PCM:
        if bits <= 8:
            return "8-bit PCM"
        return "24- or 32-bit integer PCM" if 16 < bits <= 32 else f"{bits}-bit integer PCM"
    return f"{bits}-bit float" if tag == _FLOAT else f"format 0x{tag:04x}"


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body


def _chunks(raw: bytes, path):
    """(id, start, size) of every chunk after the RIFF header, in file order."""
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioIOError(
            f"cannot parse {path}: not a little-endian RIFF WAVE file (it starts {raw[:4]!r})"
        )
    pos = 12
    while pos + 8 <= len(raw):
        size = struct.unpack_from("<I", raw, pos + 4)[0]
        yield raw[pos : pos + 4], pos + 8, size
        pos += 8 + size + size % 2  # chunks of odd size carry a pad byte


def read_wav(path) -> tuple[np.ndarray, float, str]:
    """Read a WAV file into float64 samples in [-1, 1).

    Returns (samples, sample_rate, subtype) where samples has shape (n,) for
    mono or (n, channels) otherwise and subtype is "pcm16" or "float32".
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise AudioIOError(f"cannot read {path}: {exc}") from exc
    fmt = None
    for chunk, start, size in _chunks(raw, path):
        if chunk == b"fmt ":
            if size < 16 or start + size > len(raw):
                raise AudioIOError(f"cannot parse {path}: fmt chunk of {size} bytes")
            tag, channels, rate, _, align, bits = struct.unpack_from("<HHIIHH", raw, start)
            guid = raw[start + 24 : start + 40]
            if tag == _EXTENSIBLE and size >= 40 and guid[2:] == _EXTENSIBLE_GUID_TAIL:
                tag = struct.unpack_from("<H", guid)[0]
            fmt = tag, channels, rate, align, bits
        elif chunk == b"data":
            break
    else:
        raise AudioIOError(f"cannot parse {path}: no data chunk")
    if fmt is None:
        raise AudioIOError(f"cannot parse {path}: no fmt chunk before the data chunk")
    tag, channels, rate, align, bits = fmt
    if (tag, bits) not in _SUBTYPES:
        raise AudioIOError(
            f"unsupported WAV {_format_name(tag, bits)} in {path}: only 16-bit PCM and "
            "32-bit float are handled"
        )
    subtype, dtype = _SUBTYPES[tag, bits]
    width = np.dtype(dtype).itemsize
    if channels < 1 or align != channels * width:
        raise AudioIOError(
            f"cannot parse {path}: {channels} channels of {bits}-bit samples in "
            f"{align}-byte frames"
        )
    if rate == 0:
        raise AudioIOError(f"cannot parse {path}: sample rate of 0 Hz")
    if start + size > len(raw):
        raise AudioIOError(
            f"cannot parse {path}: truncated data chunk, {len(raw) - start} of {size} bytes"
        )
    if size % align:
        raise AudioIOError(
            f"cannot parse {path}: data chunk of {size} bytes is not a whole number "
            f"of {align}-byte frames"
        )
    data = np.frombuffer(raw, dtype=dtype, count=size // width, offset=start)
    samples = data / 32768.0 if subtype == "pcm16" else data.astype(np.float64)
    return (samples if channels == 1 else samples.reshape(-1, channels)), float(rate), subtype


def write_wav(path, samples, sample_rate: float, subtype: str = "pcm16") -> None:
    """Write float samples as 16-bit PCM (clipped) or 32-bit float.

    ``samples`` has shape (n,) for mono or (n, channels) with at least one
    channel, and ``sample_rate`` is a whole number of Hz, at least 1. Other
    shapes and rates, and non-finite samples, are rejected before the file
    is opened.
    """
    samples = np.asarray(samples)
    if subtype not in _SAMPLE_TYPES:
        raise AudioIOError(f"unsupported write subtype {subtype!r}")
    if samples.ndim not in (1, 2) or samples.ndim == 2 and samples.shape[1] == 0:
        raise AudioIOError(f"cannot write {path}: samples of shape {samples.shape}")
    rate = float(sample_rate)
    if not (rate >= 1 and rate.is_integer()):
        raise AudioIOError(
            f"cannot write {path}: sample rate {sample_rate!r} is not a whole number of Hz >= 1"
        )
    bad = np.count_nonzero(~np.isfinite(samples))
    if bad:
        raise AudioIOError(
            f"cannot write {path}: {bad} non-finite samples (NaN or infinity)"
        )
    dtype = np.dtype(_SAMPLE_TYPES[subtype])
    tag = _PCM if subtype == "pcm16" else _FLOAT
    channels, rate = 1 if samples.ndim == 1 else samples.shape[1], int(rate)
    align = channels * dtype.itemsize
    nbytes = len(samples) * align
    try:
        fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, 8 * dtype.itemsize)
        if tag == _PCM:
            header = _chunk(b"fmt ", fmt)
        else:
            # A non-PCM fmt chunk ends in an empty extension, and a fact
            # chunk with the frame count follows it.
            fact = struct.pack("<I", len(samples))
            header = _chunk(b"fmt ", fmt + b"\x00\x00") + _chunk(b"fact", fact)
        header = b"WAVE" + header + b"data" + struct.pack("<I", nbytes)
        riff = b"RIFF" + struct.pack("<I", len(header) + nbytes)
    except struct.error as exc:
        raise AudioIOError(
            f"cannot write {path}: {nbytes} bytes at {rate} Hz do not fit a WAV header"
        ) from exc
    try:
        with open(path, "wb") as fh:
            fh.write(riff + header)
            for start in range(0, len(samples), WRITE_BLOCK):
                block = samples[start : start + WRITE_BLOCK]
                if subtype == "pcm16":
                    block = np.clip(np.round(block * 32768.0), -32768, 32767)
                fh.write(block.astype(dtype))
    except OSError as exc:
        raise AudioIOError(f"cannot write {path}: {exc}") from exc
