"""Synthesized audio: labeled fixture catalogs and in-memory test signals.

This is the package's one synthesis module. ``write_fixture_set`` writes
labeled WAV catalogs for tests and pipeline dry runs; ``synth_click_track``
returns a whole click-track ``AudioClip`` in memory for tests and demos.

Four default acoustic families, chosen so that each differs from the
others in several feature blocks at once (register, timbre, and rhythm):

* ``kick_house``  -- low decaying-sine thumps on the beat (128 BPM)
* ``click_dnb``   -- broadband clicks at drum-and-bass tempo (174 BPM)
* ``pad_ambient`` -- beatless detuned sine chords (catalog 70 BPM)
* ``noise_industrial`` -- white noise gated on/off at the beat (140 BPM)

Per-track variation comes from a seeded generator, so the same seed always
produces byte-identical WAV files and manifest.

A track goes from its generator to ``audio.write_wav`` one
``audio.DECODE_CHUNK`` (65,536 samples) at a time, so no whole-track array
exists: writing one 6-minute 44.1 kHz track holds a few chunk-sized
temporaries, not the 127 MB a float64 copy of it would take. A track's
scalar draws (frequencies, phases, amplitude) come first; the noise of a
``noise_pulse`` track is then drawn chunk by chunk, and its amplitude, the
draw that follows all the noise, is read from a copy of the generator
advanced past the noise. Each sample is computed by the same arithmetic,
in the same order, as a whole-track synthesis would use, so the chunking
changes no byte of any WAV file.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .audio import CANONICAL_RATE, DECODE_CHUNK, AudioClip, write_wav
from .table import MANIFEST_COLUMNS, write_csv

CLICK_LEN_S = 0.005
BPM_MIN = 30.0
BPM_MAX = 480.0

FixtureKind = str  # "kick" | "click" | "pad" | "noise_pulse"


@dataclass
class FixtureFamily:
    genre: str
    kind: FixtureKind
    bpm: float
    n_tracks: int = 10


DEFAULT_FAMILIES = (
    FixtureFamily("kick_house", "kick", 128.0),
    FixtureFamily("click_dnb", "click", 174.0),
    FixtureFamily("pad_ambient", "pad", 70.0),
    FixtureFamily("noise_industrial", "noise_pulse", 140.0),
)


def _beat_starts(bpm: float, duration: float, rate: int) -> np.ndarray:
    period = 60.0 / bpm
    times = np.arange(0.0, duration, period)
    return np.round(times * rate).astype(int)


def _at_beats(starts: np.ndarray, length: int, c0: int, c1: int) -> Iterator[tuple[slice, slice]]:
    """Where each ``length``-sample event at ``starts`` meets samples ``c0:c1``, in beat order.

    Yields ``(into the chunk, into the event)`` slice pairs.
    """
    first = np.searchsorted(starts, c0 - length, side="right")
    last = np.searchsorted(starts, c1, side="left")
    for start in starts[first:last].tolist():
        lo, hi = max(start, c0), min(start + length, c1)
        yield slice(lo - c0, hi - c0), slice(lo - start, hi - start)


def _renderer(
    kind: FixtureKind, bpm: float, duration: float, rng: np.random.Generator, rate: int, n: int
) -> Callable[[int, int], np.ndarray]:
    """Draw a track's scalars and return ``render(c0, c1)``, its samples ``c0:c1`` before clipping.

    ``render`` must be called for consecutive chunks from sample 0 on,
    because a ``noise_pulse`` track draws its noise as it renders.
    """
    if kind == "kick":
        burst_len = int(0.12 * rate)
        bt = np.arange(burst_len) / rate
        freq = 80.0 * (1.0 + rng.uniform(-0.05, 0.05))
        burst = np.sin(2 * np.pi * freq * bt) * np.exp(-bt / 0.03)
        amp = rng.uniform(0.7, 0.95)
        starts = _beat_starts(bpm, duration, rate)

        def render(c0: int, c1: int) -> np.ndarray:
            out = np.zeros(c1 - c0)
            for into, part in _at_beats(starts, burst_len, c0, c1):
                out[into] += amp * burst[part]
            return out

    elif kind == "click":
        click_len = int(0.005 * rate)
        amp = rng.uniform(0.7, 1.0)
        starts = _beat_starts(bpm, duration, rate)

        def render(c0: int, c1: int) -> np.ndarray:
            out = np.zeros(c1 - c0)
            for into, _ in _at_beats(starts, click_len, c0, c1):
                out[into] = amp
            return out

    elif kind == "pad":
        # frequency, then phase, per tone
        tones = [
            (base * (1.0 + rng.uniform(-0.01, 0.01)), rng.uniform(0, 2 * np.pi))
            for base in (220.0, 261.63, 329.63)
        ]

        def render(c0: int, c1: int) -> np.ndarray:
            # out += sin(2 * pi * freq * t + phase) per tone, then
            # out *= 0.25 * (1 + 0.2 * sin(2 * pi * 0.1 * t)), in one work buffer
            t = np.arange(c0, c1) / rate
            out = np.zeros(c1 - c0)
            work = np.empty(c1 - c0)
            for freq, phase in tones:
                np.multiply(2 * np.pi * freq, t, out=work)
                work += phase
                out += np.sin(work, out=work)
            np.multiply(2 * np.pi * 0.1, t, out=work)
            np.sin(work, out=work)
            work *= 0.2
            work += 1.0
            work *= 0.25
            out *= work
            return out

    elif kind == "noise_pulse":
        ahead = copy.deepcopy(rng)
        for c0 in range(0, n, DECODE_CHUNK):
            ahead.uniform(-1.0, 1.0, min(DECODE_CHUNK, n - c0))
        amp = ahead.uniform(0.4, 0.6)

        def render(c0: int, c1: int) -> np.ndarray:
            t = np.arange(c0, c1) / rate
            noise = rng.uniform(-1.0, 1.0, c1 - c0)
            # floor(t * bpm / 60 * 2) % 2 == 0, as a parity test: float % is several times slower
            gate = ((np.floor(t * bpm / 60.0 * 2.0).astype(np.int64) & 1) == 0).astype(np.float64)
            return amp * noise * gate

    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return render


def _track_chunks(render: Callable[[int, int], np.ndarray], n: int) -> Iterator[np.ndarray]:
    """A track's ``n`` samples, clipped to [-1, 1], in consecutive DECODE_CHUNK chunks.

    Raises ValueError after the last chunk if every sample was 0.
    """
    heard = False
    for c0 in range(0, n, DECODE_CHUNK):
        out = render(c0, min(c0 + DECODE_CHUNK, n))
        np.clip(out, -1.0, 1.0, out=out)
        heard = heard or bool(np.any(out))
        yield out
    if not heard:
        raise ValueError("fixture synthesis produced silence")


def write_fixture_set(
    out_dir: str | Path,
    families=DEFAULT_FAMILIES,
    duration: float = 12.0,
    seed: int = 0,
    rate: int = CANONICAL_RATE,
) -> Path:
    """Synthesize WAVs plus a manifest.csv; returns the manifest path.

    Each track is streamed into its WAV file, so a track that fails (a
    silent one, or one too long for a WAV file) leaves no file behind.
    """
    out_dir = Path(out_dir)
    rows = [MANIFEST_COLUMNS]
    ss = np.random.SeedSequence(seed)
    n = int(round(duration * rate))
    for family in families:
        for i in range(family.n_tracks):
            rng = np.random.default_rng(ss.spawn(1)[0])
            render = _renderer(family.kind, family.bpm, duration, rng, rate, n)
            track_id = f"{family.genre}_{i:02d}"
            wav_name = f"{track_id}.wav"
            write_wav(out_dir / wav_name, rate, n, _track_chunks(render, n))
            rows.append([track_id, wav_name, family.genre, f"{family.bpm:g}", "", f"{duration:g}"])
    manifest = out_dir / "manifest.csv"
    write_csv(manifest, rows)
    return manifest


def synth_click_track(
    bpm: float, duration: float, rate: int = CANONICAL_RATE, amplitude: float = 1.0
) -> AudioClip:
    """Unit-amplitude 5 ms clicks at the exact beat period 60/bpm seconds."""
    if not (BPM_MIN <= bpm <= BPM_MAX):
        raise ValueError(f"bpm {bpm} outside [{BPM_MIN}, {BPM_MAX}]")
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration * rate))
    click_len = max(1, int(round(CLICK_LEN_S * rate)))
    samples = np.zeros(n)
    period = 60.0 / bpm
    k = 0
    while k * period < duration:
        start = int(round(k * period * rate))
        samples[start : start + click_len] = amplitude
        k += 1
    return AudioClip(samples, rate, source_id=f"click_{bpm:g}bpm")

