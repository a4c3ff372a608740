"""Additive synthesis of test material and bundled interference clips.

Provides deterministic stand-ins for real recordings: harmonic notes and
chords rendered with a handful of timbres, plus four short synthetic
interference sounds (a filtered noise burst, a low-frequency thump, a
broadband scrape and a bouncing impulse train). The clips' Butterworth
filters are designed and applied here, in numpy and plain Python, with the
arithmetic of scipy's ``butter`` and ``lfilter``; building a scene imports
nothing from scipy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class SynthError(ValueError):
    """Invalid synthesis request, for example partials above Nyquist."""


A3_HZ = 220.0
RAMP_S = 0.015  # a note's linear attack and release, long enough not to click
LEAD_S = 0.15  # silence before and after a rendered event sequence
EVENT_AMPLITUDE = 0.8  # of an event's fundamental, split among a chord's tones


def pitch_hz(semitones: float) -> float:
    """Frequency of a pitch given in semitones relative to A3."""
    return A3_HZ * 2.0 ** (semitones / 12.0)


@dataclass(frozen=True)
class Timbre:
    """Partial recipe of the additive synthesizer."""

    name: str
    n_partials: int
    partial_decay: float = 1.0
    even_weight: float = 1.0


TIMBRES = (
    Timbre("bright", n_partials=10, partial_decay=1.0),
    Timbre("mellow", n_partials=6, partial_decay=2.0),
    Timbre("reedy", n_partials=9, partial_decay=1.3, even_weight=0.4),
    Timbre("thin", n_partials=4, partial_decay=0.7),
)


def synthesize_note(
    f0: float,
    duration: float,
    sample_rate: float,
    n_partials: int = 8,
    partial_decay: float = 1.0,
    amplitude: float = 1.0,
    even_weight: float = 1.0,
) -> np.ndarray:
    """One harmonic note: partials at k*f0 with amplitudes 1/k**partial_decay.

    Attack and release are linear ramps of :data:`RAMP_S` seconds.
    Raises :class:`SynthError` when ``f0`` or ``duration`` is not positive and
    finite, or when the highest partial would alias.
    """
    # false for NaN too
    if not (0.0 < f0 < np.inf and 0.0 < duration < np.inf):
        raise SynthError(f"f0 ({f0} Hz) and duration ({duration} s) must be positive and finite")
    if n_partials < 1:
        raise SynthError("need at least one partial")
    if f0 * n_partials >= sample_rate / 2.0:
        raise SynthError(
            f"partial {n_partials} of f0={f0:.1f} Hz reaches "
            f"{f0 * n_partials:.1f} Hz, at or above Nyquist"
        )
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for k in range(1, n_partials + 1):
        w = amplitude / k**partial_decay
        if k % 2 == 0:
            w *= even_weight
        x += w * np.sin(2.0 * np.pi * k * f0 * t + 0.37 * k)
    r = min(int(round(RAMP_S * sample_rate)), n // 2)
    if r > 0:
        env = np.ones(n)
        env[:r] = np.arange(1, r + 1) / r
        env[-r:] = env[:r][::-1]
        x *= env
    return x


def render_events(
    events,
    sample_rate: float,
    timbre: Timbre = TIMBRES[0],
):
    """Render a sequence of (frequencies, duration) events back to back.

    Each event may hold one frequency (a note) or several (a chord), and
    :data:`LEAD_S` seconds of silence go before and after them. Returns the
    samples together with the (start, end) sample span of every event.
    Each distinct tone is synthesized once and reused wherever it repeats.
    """
    head = int(round(LEAD_S * sample_rate))
    chunks = [np.zeros(head)]
    spans = []
    cursor = head
    # Nothing below writes into a tone: the sum makes a new array and the
    # concatenation copies, so a reused tone stays as synthesized.
    tones = {}
    for freqs, duration in events:
        freqs = tuple(float(f) for f in np.atleast_1d(freqs))
        if not freqs:
            raise SynthError("event has no frequency")
        amp = EVENT_AMPLITUDE / len(freqs)
        note = None
        for f0 in freqs:
            if not 0.0 < f0 < np.inf:
                raise SynthError(f"fundamental {f0} Hz is not positive and finite")
            n_part = min(timbre.n_partials, int((sample_rate / 2.0 - 1.0) // f0))
            if n_part < 1:
                raise SynthError(f"fundamental {f0:.1f} Hz is above Nyquist")
            key = (f0, duration, n_part, amp)
            tone = tones.get(key)
            if tone is None:
                tone = tones[key] = synthesize_note(
                    f0,
                    duration,
                    sample_rate,
                    n_partials=n_part,
                    partial_decay=timbre.partial_decay,
                    amplitude=amp,
                    even_weight=timbre.even_weight,
                )
            note = tone if note is None else note + tone
        chunks.append(note)
        spans.append((cursor, cursor + len(note)))
        cursor += len(note)
    chunks.append(np.zeros(head))
    return np.concatenate(chunks), spans


INTERFERENCE_KINDS = ("cough", "door_slam", "chair_drag", "drop")


def _butter(order: int, edges_hz, sample_rate: float):
    """Digital Butterworth low-pass (one edge) or band-pass (two edges) as (b, a).

    The steps and their order of operations are those of scipy's ``butter``:
    the analog prototype's poles, the prewarp ``4 tan(pi Wn / 2)`` of the
    edges ``Wn`` in units of Nyquist, the low-pass or band-pass transform of
    the zeros, poles and gain, the bilinear transform with fs = 2, and the
    expansion into polynomials; ``a[0]`` is 1. Raises :class:`SynthError`
    for an edge at or above the Nyquist frequency, or a lower band edge not
    below the upper one.
    """
    nyq = sample_rate / 2.0
    edges = np.atleast_1d(np.asarray(edges_hz, dtype=np.float64))
    if edges.max() >= nyq:
        raise SynthError(
            f"filter edge {edges.max():g} Hz is at or above the Nyquist "
            f"frequency {nyq:g} Hz"
        )
    if len(edges) == 2 and edges[0] >= edges[1]:
        raise SynthError(
            f"lower band edge {edges[0]:g} Hz is not below the upper edge "
            f"{edges[1]:g} Hz (Nyquist frequency {nyq:g} Hz)"
        )
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    z = np.zeros(0)
    p = -np.exp(1j * np.pi * m / (2 * order))
    k = 1.0
    warped = 2 * 2.0 * np.tan(np.pi * (edges / nyq) / 2.0)
    if len(edges) == 1:
        wo = float(warped[0])
        p = wo * p
        k = k * wo**order
    else:
        bw = float(warped[1] - warped[0])
        wo = float(np.sqrt(warped[0] * warped[1]))
        p_lp = (p * bw / 2).astype(np.complex128)
        p = np.concatenate(
            (p_lp + np.sqrt(p_lp**2 - wo**2), p_lp - np.sqrt(p_lp**2 - wo**2))
        )
        z = np.zeros(order, dtype=np.complex128)
        k = k * bw**order
    z_z = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(order)))
    p_z = (4.0 + p) / (4.0 - p)
    k_z = k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    return k_z * np.poly(z_z).real, np.poly(p_z).real


def _lfilter(b, a, x) -> np.ndarray:
    """Filter ``x`` by b / a in direct form II transposed, from a zero state.

    The loop does scipy's ``lfilter`` arithmetic in its order for
    ``a[0] == 1``, which :func:`_butter` always gives, and ``len(a) ==
    len(b)``.
    """
    b0, b_rest, a_rest = float(b[0]), b[1:].tolist(), a[1:].tolist()
    last = len(b_rest) - 1
    state = [0.0] * len(b_rest)
    out = []
    for xn in x.tolist():
        yn = state[0] + b0 * xn
        for i in range(last):
            state[i] = state[i + 1] + xn * b_rest[i] - yn * a_rest[i]
        state[last] = xn * b_rest[last] - yn * a_rest[last]
        out.append(yn)
    return np.array(out)


def interference_clip(
    kind: str, sample_rate: float, duration: float = 0.4, seed: int = 0
) -> np.ndarray:
    """One synthetic interference sound, normalized to unit RMS.

    Kinds: "cough" (band-passed noise burst), "door_slam" (low-frequency
    thump), "chair_drag" (modulated broadband scrape), "drop" (decaying
    impulse train). A process builds each (kind, sample_rate, duration,
    seed) once; every call returns its own copy.
    """
    return _interference_clip(kind, sample_rate, duration, seed).copy()


# Every condition of the bundled grid reuses the clips of the others: the 80
# scenes of a default `sikam eval` ask for 20 distinct clips. Building each of
# the 80 anew ran `_lfilter` 60 times, in 0.27-0.31 s of 1.00-1.11 s of scene
# building; building each distinct clip once runs it 15 times.
@functools.lru_cache(maxsize=32)
def _interference_clip(kind: str, sample_rate: float, duration: float, seed: int) -> np.ndarray:
    """The clip :func:`interference_clip` copies, read-only and shared."""
    if kind not in INTERFERENCE_KINDS:
        raise SynthError(f"unknown interference kind {kind!r}")
    rng = np.random.default_rng(seed + 1000 * INTERFERENCE_KINDS.index(kind))
    n = int(round(duration * sample_rate))
    if n < 1:
        raise SynthError(f"{kind} clip of {duration} s at {sample_rate} Hz has no samples")
    t = np.arange(n) / sample_rate
    nyq = sample_rate / 2.0
    if kind == "cough":
        noise = rng.standard_normal(n)
        x = _lfilter(*_butter(4, [300.0, 1800.0], sample_rate), noise)
        env = (t / 0.03) * np.exp(1.0 - t / 0.03) + 0.4 * np.exp(
            -((t - 0.55 * duration) ** 2) / (2 * 0.04**2)
        )
        x *= env
    elif kind == "door_slam":
        thump = np.cos(2 * np.pi * 62.0 * t) * np.exp(-t / 0.08)
        rumble = _lfilter(*_butter(4, 350.0, sample_rate), rng.standard_normal(n))
        rumble *= np.exp(-t / 0.05)
        x = thump + 0.5 * rumble
    elif kind == "chair_drag":
        noise = rng.standard_normal(n)
        x = _lfilter(*_butter(2, [120.0, min(6000, nyq * 0.9)], sample_rate), noise)
        x *= 0.7 + 0.3 * np.sin(2 * np.pi * 9.0 * t)
        fade = min(int(0.05 * sample_rate), n // 4)
        if fade < 1:
            raise SynthError(f"chair_drag clip of {n} samples is shorter than its fade")
        env = np.ones(n)
        env[:fade] = np.linspace(1.0 / fade, 1.0, fade)
        env[-fade:] = env[:fade][::-1]
        x *= env
    elif kind == "drop":
        x = np.zeros(n)
        pos, gap, amp = 0, 0.11, 1.0
        while pos < n and gap > 0.015:
            hit = rng.standard_normal(max(int(0.012 * sample_rate), 8))
            hit *= np.exp(-np.arange(len(hit)) / (0.003 * sample_rate))
            end = min(pos + len(hit), n)
            x[pos:end] += amp * hit[: end - pos]
            pos += int(gap * sample_rate)
            gap *= 0.62
            amp *= 0.7
    rms = float(np.sqrt(np.mean(x**2)))
    if rms == 0:
        raise SynthError("degenerate interference clip")
    clip = x / rms
    clip.flags.writeable = False
    return clip


# Pitches as semitone offsets from A3. Every event list holds at least one
# pitch occurring three times (a safely repeated target) and one interior
# pitch occurring once (a non-repeated target).
MELODIES = (
    ((0,), (3,), (0,), (7,), (0,), (3,), (5,)),
    ((2,), (2,), (10,), (5,), (2,), (5,), (9,)),
    ((-5,), (0,), (4,), (0,), (-5,), (0,), (2,)),
    ((7,), (12,), (7,), (3,), (7,), (12,), (0,)),
    ((5,), (8,), (5,), (12,), (1,), (5,), (8,)),
)

CHORD_PROGRESSIONS = (
    ((0, 4, 7), (5, 9, 12), (0, 4, 7), (7, 11, 14), (0, 4, 7), (5, 9, 12), (2, 5, 9)),
    ((-3, 0, 4), (2, 5, 9), (-3, 0, 4), (4, 7, 11), (-3, 0, 4), (2, 5, 9), (0, 3, 7)),
    ((0, 3, 7), (5, 8, 12), (0, 3, 7), (-2, 2, 5), (0, 3, 7), (5, 8, 12), (3, 7, 10)),
    ((4, 7, 11), (0, 4, 7), (4, 7, 11), (9, 12, 16), (4, 7, 11), (0, 4, 7), (5, 9, 12)),
    ((2, 6, 9), (7, 10, 14), (2, 6, 9), (-1, 2, 6), (2, 6, 9), (7, 10, 14), (4, 8, 11)),
)


def melody_events(index: int, note_duration: float = 0.6):
    """Event list (frequencies, duration) for one of the bundled melodies."""
    pattern = MELODIES[index % len(MELODIES)]
    return tuple((tuple(pitch_hz(s) for s in ev), note_duration) for ev in pattern)


def chord_events(index: int, note_duration: float = 0.6):
    """Event list for one of the bundled chord progressions."""
    pattern = CHORD_PROGRESSIONS[index % len(CHORD_PROGRESSIONS)]
    return tuple((tuple(pitch_hz(s) for s in ev), note_duration) for ev in pattern)
