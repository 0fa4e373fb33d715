"""Streamed fixture synthesis against the whole-track composition it replaced.

``reference_track`` and ``reference_wav`` are the whole-array synthesis
and WAV writer that ``fixtures`` and ``audio`` used before fixture audio
was streamed: every sample of a track at once, then every byte of the file
at once. The streamed writer must give the same bytes.
"""

import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edm_atlas.audio import DECODE_CHUNK
from edm_atlas.fixtures import DEFAULT_FAMILIES, FixtureFamily, write_fixture_set
from edm_atlas.table import MANIFEST_COLUMNS, write_csv

RATES = (22050, 32000, 44100, 48000)
KINDS = tuple(f.kind for f in DEFAULT_FAMILIES)


def reference_beat_starts(bpm, duration, rate):
    period = 60.0 / bpm
    times = np.arange(0.0, duration, period)
    return np.round(times * rate).astype(int)


def reference_track(kind, bpm, duration, rng, rate):
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    out = np.zeros(n)
    if kind == "kick":
        burst_len = int(0.12 * rate)
        bt = np.arange(burst_len) / rate
        freq = 80.0 * (1.0 + rng.uniform(-0.05, 0.05))
        burst = np.sin(2 * np.pi * freq * bt) * np.exp(-bt / 0.03)
        amp = rng.uniform(0.7, 0.95)
        for start in reference_beat_starts(bpm, duration, rate):
            seg = burst[: n - start]
            out[start : start + seg.size] += amp * seg
    elif kind == "click":
        click_len = int(0.005 * rate)
        amp = rng.uniform(0.7, 1.0)
        for start in reference_beat_starts(bpm, duration, rate):
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
    out = np.clip(out, -1.0, 1.0)
    assert np.any(out)
    return out


def reference_wav(samples, rate):
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE", b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16, b"data", len(body),
    )
    return header + body


def reference_fixture_set(out_dir, families, duration, seed, rate):
    out_dir.mkdir(parents=True)
    rows = [MANIFEST_COLUMNS]
    ss = np.random.SeedSequence(seed)
    for family in families:
        for i in range(family.n_tracks):
            rng = np.random.default_rng(ss.spawn(1)[0])
            samples = reference_track(family.kind, family.bpm, duration, rng, rate)
            track_id = f"{family.genre}_{i:02d}"
            (out_dir / f"{track_id}.wav").write_bytes(reference_wav(samples, rate))
            rows.append([track_id, f"{track_id}.wav", family.genre, f"{family.bpm:g}", "", f"{duration:g}"])
    write_csv(out_dir / "manifest.csv", rows)


def one_track(kind, bpm):
    genre = next(f.genre for f in DEFAULT_FAMILIES if f.kind == kind)
    return (FixtureFamily(genre, kind, bpm, 1),)


def assert_same_files(a: Path, b: Path):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def check_one_track(kind, bpm, n, rate, seed):
    duration = n / rate
    assert int(round(duration * rate)) == n
    with tempfile.TemporaryDirectory() as tmp:
        streamed, whole = Path(tmp) / "streamed", Path(tmp) / "whole"
        write_fixture_set(streamed, families=one_track(kind, bpm), duration=duration, seed=seed, rate=rate)
        reference_fixture_set(whole, one_track(kind, bpm), duration, seed, rate)
        assert_same_files(streamed, whole)


class TestStreamedFixtureBytes:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        rate=st.sampled_from(RATES),
        seed=st.integers(0, 2**32 - 1),
        chunks=st.integers(1, 3),
        offset=st.sampled_from((-1, 0, 1)),
        bpm=st.floats(20.0, 200.0),
    )
    @example(kind="noise_pulse", rate=44100, seed=0, chunks=2, offset=1, bpm=140.0)
    @example(kind="pad", rate=48000, seed=7, chunks=1, offset=-1, bpm=70.0)
    def test_same_bytes_at_chunk_edges(self, kind, rate, seed, chunks, offset, bpm):
        check_one_track(kind, bpm, chunks * DECODE_CHUNK + offset, rate, seed)

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("kind, event_s", [("kick", 0.12), ("click", 0.005)])
    def test_beat_event_across_a_chunk_edge(self, kind, event_s, rate):
        # the second beat starts half an event before the first chunk edge
        event = int(event_s * rate)
        start = DECODE_CHUNK - event // 2
        bpm = 60.0 * rate / start
        n = 2 * DECODE_CHUNK + 1
        starts = reference_beat_starts(bpm, n / rate, rate)
        assert np.any((starts < DECODE_CHUNK) & (starts + event > DECODE_CHUNK))
        check_one_track(kind, bpm, n, rate, seed=3)

    def test_default_set_equals_reference(self, tmp_path):
        write_fixture_set(tmp_path / "streamed", duration=12.0, seed=0)
        reference_fixture_set(tmp_path / "whole", DEFAULT_FAMILIES, 12.0, 0, 22050)
        assert len(list((tmp_path / "streamed").glob("*.wav"))) == 40
        assert_same_files(tmp_path / "streamed", tmp_path / "whole")

    def test_unknown_kind_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fixture kind 'hum'"):
            write_fixture_set(tmp_path, families=(FixtureFamily("drone", "hum", 60.0, 1),), duration=10.0)
        assert list(tmp_path.iterdir()) == []

    def test_silent_track_leaves_no_file(self, tmp_path):
        # at 100 Hz a click is int(0.005 * 100) = 0 samples long
        with pytest.raises(ValueError, match="fixture synthesis produced silence"):
            write_fixture_set(tmp_path, families=one_track("click", 120.0), duration=10.0, rate=100)
        assert list(tmp_path.iterdir()) == []


class TestFixtureMemory:
    @pytest.mark.parametrize("kind", KINDS)
    def test_traced_peak_below_8_mb(self, tmp_path, kind):
        # One whole-track float64 array of 60 s at 44.1 kHz is 21 MB; the
        # streamed track holds a few 65,536-sample (512 kB) chunks.
        family = next(f for f in DEFAULT_FAMILIES if f.kind == kind)
        families = (FixtureFamily(family.genre, kind, family.bpm, 1),)
        write_fixture_set(tmp_path / "warm", families=families, duration=10.0, seed=0, rate=44100)
        tracemalloc.start()
        try:
            write_fixture_set(tmp_path / "traced", families=families, duration=60.0, seed=0, rate=44100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
