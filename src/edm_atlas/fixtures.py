"""Synthesized labeled audio fixtures for tests and pipeline dry runs.

Four default acoustic families, chosen so that each differs from the
others in several feature blocks at once (register, timbre, and rhythm):

* ``kick_house``  -- low decaying-sine thumps on the beat (128 BPM)
* ``click_dnb``   -- broadband clicks at drum-and-bass tempo (174 BPM)
* ``pad_ambient`` -- beatless detuned sine chords (catalog 70 BPM)
* ``noise_industrial`` -- white noise gated on/off at the beat (140 BPM)

Per-track variation comes from a seeded generator, so the same seed always
produces byte-identical WAV files and manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE, AudioClip, save_wav
from .table import MANIFEST_COLUMNS, write_csv

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


def synth_fixture_track(
    kind: FixtureKind,
    bpm: float,
    duration: float,
    rng: np.random.Generator,
    rate: int = CANONICAL_RATE,
) -> AudioClip:
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    out = np.zeros(n)

    if kind == "kick":
        burst_len = int(0.12 * rate)
        bt = np.arange(burst_len) / rate
        freq = 80.0 * (1.0 + rng.uniform(-0.05, 0.05))
        burst = np.sin(2 * np.pi * freq * bt) * np.exp(-bt / 0.03)
        amp = rng.uniform(0.7, 0.95)
        for start in _beat_starts(bpm, duration, rate):
            seg = burst[: n - start]
            out[start : start + seg.size] += amp * seg
    elif kind == "click":
        click_len = int(0.005 * rate)
        amp = rng.uniform(0.7, 1.0)
        for start in _beat_starts(bpm, duration, rate):
            out[start : start + click_len] = amp
    elif kind == "pad":
        for base in (220.0, 261.63, 329.63):
            freq = base * (1.0 + rng.uniform(-0.01, 0.01))
            out += np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        out *= 0.25 * (1.0 + 0.2 * np.sin(2 * np.pi * 0.1 * t))
    elif kind == "noise_pulse":
        noise = rng.uniform(-1.0, 1.0, n)
        gate = (np.floor(t * bpm / 60.0 * 2.0) % 2 == 0).astype(np.float64)
        out = rng.uniform(0.4, 0.6) * noise * gate
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")

    out = np.clip(out, -1.0, 1.0)
    if not np.any(out):
        raise ValueError("fixture synthesis produced silence")
    return AudioClip(out, rate, source_id=f"{kind}_{bpm:g}")


def write_fixture_set(
    out_dir: str | Path,
    families=DEFAULT_FAMILIES,
    duration: float = 12.0,
    seed: int = 0,
    rate: int = CANONICAL_RATE,
) -> Path:
    """Synthesize WAVs plus a manifest.csv; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [MANIFEST_COLUMNS]
    ss = np.random.SeedSequence(seed)
    for family in families:
        for i in range(family.n_tracks):
            rng = np.random.default_rng(ss.spawn(1)[0])
            clip = synth_fixture_track(family.kind, family.bpm, duration, rng, rate)
            track_id = f"{family.genre}_{i:02d}"
            wav_name = f"{track_id}.wav"
            save_wav(clip, out_dir / wav_name)
            rows.append([track_id, wav_name, family.genre, f"{family.bpm:g}", "", f"{duration:g}"])
    manifest = out_dir / "manifest.csv"
    write_csv(manifest, rows)
    return manifest
