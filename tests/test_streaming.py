"""The streamed extraction path against the whole-array one it replaced.

``extract_track`` decodes, resamples and STFTs a file in one forward pass
and never holds the track's samples whole. The references below are the
whole-array composition: ``load_wav`` collects the 22050 Hz clip, and
``reference_stft`` takes its frames as strided views of that array. Every
series and feature must be the same bit for bit.
"""

import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edm_atlas import audio, tempogram
from edm_atlas.audio import (
    CANONICAL_RATE,
    DECODE_CHUNK,
    FRAME_BLOCK,
    STFT_HOP,
    STFT_WINDOW,
    AudioClip,
    FrameSeries,
    MalformedWavError,
    SampleStream,
    load_wav,
    read_wav_header,
    stft,
    stream_wav,
)
from edm_atlas.features import band_beat_emphasis, fundamental_feature_vector
from edm_atlas.pipeline import extract_track
from edm_atlas.table import TrackRecord
from edm_atlas.tempogram import (
    TrackAnalysis,
    autocorr_tempogram,
    fourier_tempogram,
    novelty_curve,
    tempogram_feature_vector,
)
from edm_atlas.types import FeatureVector, row_blocks

SERIES_FIELDS = [f.name for f in fields(FrameSeries) if f.name != "frame_rate"]


def reference_stft(clip: AudioClip, window_len: int = STFT_WINDOW, hop: int = STFT_HOP) -> FrameSeries:
    """The whole-array STFT: every frame a strided view of the clip's samples."""
    n_frames = 1 + (clip.samples.size - window_len) // hop
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, window_len)[::hop]
    window = np.hanning(window_len)

    def magnitudes(start, stop):
        mags = np.empty((stop - start, window_len // 2 + 1))
        for row in range(start, stop, audio._FFT_ROWS):
            end = min(row + audio._FFT_ROWS, stop)
            np.abs(np.fft.rfft(frames[row:end] * window, axis=1), out=mags[row - start : end - start])
        return mags

    freqs = np.fft.rfftfreq(window_len, 1.0 / clip.sample_rate)
    return audio._measure(magnitudes, n_frames, clip.sample_rate / hop, freqs)


def reference_extract(path: Path) -> tuple[FrameSeries, FeatureVector]:
    """The track's series and feature vector from its whole 22050 Hz clip."""
    clip = load_wav(path, CANONICAL_RATE)
    series = reference_stft(clip)
    nov = novelty_curve(series)
    analysis = TrackAnalysis(clip.source_id, series, nov, fourier_tempogram(nov), autocorr_tempogram(nov))
    vec = FeatureVector.concat(
        [fundamental_feature_vector(analysis), tempogram_feature_vector(analysis), band_beat_emphasis(series)]
    )
    return series, vec


def assert_same_series(got: FrameSeries, want: FrameSeries):
    assert got.frame_rate == want.frame_rate
    for name in SERIES_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def write_wav(path: Path, data: np.ndarray, channels: int, rate: int) -> None:
    """``data`` (int16 -> PCM16, float32 -> IEEE float) as a plain WAV file."""
    tag, bits = (1, 16) if data.dtype == np.dtype("<i2") else (3, 32)
    body = data.tobytes()
    path.write_bytes(
        struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(body), b"WAVE", b"fmt ", 16, tag, channels, rate,
            rate * channels * bits // 8, channels * bits // 8, bits, b"data", len(body),
        )
        + body
    )


def track_samples(n_frames: int, channels: int, encoding: str, seed: int) -> np.ndarray:
    """Noise under 24 evenly spaced clicks, interleaved, as PCM16 or float32 (some past full scale)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames)
    clicks = ((t % (n_frames // 24 + 1)) < 64).astype(float)
    mix = 0.3 * rng.uniform(-1.0, 1.0, (n_frames, channels)) + 0.9 * clicks[:, None]
    if encoding == "pcm16":
        return np.round(np.clip(mix, -1.0, 1.0) * 32767).astype("<i2").ravel()
    return (1.2 * mix).astype("<f4").ravel()


def chunked(samples: np.ndarray, sizes: list[int]):
    """Consecutive chunks of ``samples``, their sizes taken from ``sizes`` in turn."""
    pos, i = 0, 0
    while pos < samples.size:
        yield samples[pos : pos + sizes[i % len(sizes)]]
        pos += sizes[i % len(sizes)]
        i += 1


# a block's row count; either side of the first two points where row_blocks(n, FRAME_BLOCK) adds a block
STFT_FRAME_COUNTS = [1, 2, FRAME_BLOCK // 2 - 1, FRAME_BLOCK // 2]
STFT_FRAME_COUNTS += [k * FRAME_BLOCK // 2 + d for k in (3, 5) for d in (-1, 0, 1)]


class TestStreamedStft:
    @settings(max_examples=40, deadline=None)
    @given(
        frames=st.sampled_from(STFT_FRAME_COUNTS),
        tail=st.integers(0, STFT_HOP - 1),
        sizes=st.lists(st.integers(1, 70_000), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_chunking_equals_whole_array(self, frames, tail, sizes, seed):
        # frame counts on both sides of the STFT's block edges, any chunk sizes
        n = STFT_WINDOW + (frames - 1) * STFT_HOP + tail
        clip = AudioClip(np.random.default_rng(seed).uniform(-1.0, 1.0, n), CANONICAL_RATE)
        want = reference_stft(clip)
        assert want.n_frames == frames
        assert_same_series(stft(clip), want)
        stream = SampleStream(chunked(clip.samples, sizes), n, CANONICAL_RATE)
        assert_same_series(stft(stream), want)

    def test_concurrent_calls_under_fast_switching(self):
        # four callers, each with its own helper, on two or more cores; a block
        # handed over before it was filled, or refilled while read, changes bytes
        clips = [
            AudioClip(np.random.default_rng(seed).uniform(-1.0, 1.0, STFT_WINDOW + 40 * FRAME_BLOCK * STFT_HOP), 22050)
            for seed in range(4)
        ]
        wants = [reference_stft(clip) for clip in clips]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                gots = list(pool.map(lambda clip: stft(SampleStream(chunked(clip.samples, [3000]), clip.samples.size, 22050)), clips))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(gots, wants):
            assert_same_series(got, want)

    def test_stream_read_to_its_end(self):
        # the samples after the last frame are read too
        samples = np.zeros(STFT_WINDOW + 10 * STFT_HOP + 100)
        chunks = chunked(samples, [STFT_WINDOW + 10 * STFT_HOP])
        stft(SampleStream(chunks, samples.size, CANONICAL_RATE))
        assert next(chunks, None) is None

    def test_short_stream_named(self):
        stream = SampleStream(iter([np.zeros(5000)]), 6000, CANONICAL_RATE)
        with pytest.raises(ValueError, match="sample stream ended at sample 5000, before sample 5632"):
            stft(stream)


def edge_frames(kind: str, rate: int, step: int, edge: int) -> int:
    """A track length at ``rate`` of 10 s or more that straddles a chunk or a block edge.

    ``decode``: ``edge`` frames off a multiple of DECODE_CHUNK. ``block``:
    a 22050 Hz length whose frame count is ``edge`` off a point where
    ``row_blocks(n, FRAME_BLOCK)`` adds a block.
    """
    if kind == "decode":
        return (-(-10 * rate // DECODE_CHUNK) + step) * DECODE_CHUNK + edge
    # the fewest whole blocks whose next edge, one frame short, still lasts 10 s
    shortest = -(-(10 * CANONICAL_RATE - STFT_WINDOW - STFT_HOP // 2) // STFT_HOP) + 1
    first = -(-(shortest + 1 - FRAME_BLOCK // 2) // FRAME_BLOCK)
    frames = FRAME_BLOCK * (first + step) + FRAME_BLOCK // 2 + edge
    n_out = STFT_WINDOW + (frames - 1) * STFT_HOP + STFT_HOP // 2
    return -(-n_out * rate // CANONICAL_RATE)


class TestStreamedExtraction:
    @settings(max_examples=12, deadline=None)
    @given(
        rate=st.sampled_from([22050, 32000, 44100, 48000]),
        layout=st.sampled_from([(1, "pcm16"), (2, "float32")]),
        kind=st.sampled_from(["decode", "block"]),
        step=st.integers(0, 1),
        edge=st.integers(-1, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_whole_array_reference(self, tmp_path_factory, rate, layout, kind, step, edge, seed):
        channels, encoding = layout
        base = tmp_path_factory.mktemp("stream")
        n_frames = edge_frames(kind, rate, step, edge)
        write_wav(base / "t.wav", track_samples(n_frames, channels, encoding, seed), channels, rate)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tempogram, "stft", lambda source: seen.append(stft(source)) or seen[-1])
            vec = extract_track(TrackRecord("t", "t.wav", "house"), base)
        want_series, want = reference_extract(base / "t.wav")
        assert_same_series(seen[0], want_series)
        assert vec.names == want.names
        assert vec.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("rate", [22050, 44100])
    @pytest.mark.parametrize("where", ["middle", "last"])
    def test_nan_fails_extraction(self, tmp_path, rate, where):
        # the last sample lies after the last frame: it is checked all the same
        data = track_samples(rate * 11 + 300, 2, "float32", seed=rate)
        data[data.size // 2 if where == "middle" else -1] = np.nan
        write_wav(tmp_path / "nan.wav", data, 2, rate)
        with pytest.raises(ValueError, match="^AudioClip samples must be finite$"):
            extract_track(TrackRecord("nan", "nan.wav", "house"), tmp_path)
        with pytest.raises(ValueError, match="^AudioClip samples must be finite$"):
            load_wav(tmp_path / "nan.wav", CANONICAL_RATE)


def span_end(n_samples: int, have: int) -> int:
    """The end of the first frame block's samples past sample ``have``, for a stream of ``n_samples``."""
    n_frames = 1 + (n_samples - STFT_WINDOW) // STFT_HOP
    ends = ((stop - 1) * STFT_HOP + STFT_WINDOW for _, stop in row_blocks(n_frames, FRAME_BLOCK))
    return next(end for end in ends if end > have)


class TestReadAheadFailures:
    """A failure on either side of the STFT's helper thread reaches the caller as it was raised.

    The thread reads the stream ahead of ``_measure``; whichever side fails,
    the caller sees the same exception type and message as a one-thread pass
    gives, and no thread is left when ``stft`` returns.
    """

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.mark.parametrize("rate", [22050, 44100])
    def test_nan_in_third_chunk(self, tmp_path, rate):
        data = track_samples(11 * rate, 1, "float32", seed=rate)
        data[2 * DECODE_CHUNK + 100] = np.nan
        write_wav(tmp_path / "nan.wav", data, 1, rate)
        with pytest.raises(ValueError, match="^AudioClip samples must be finite$"):
            stft(stream_wav(read_wav_header(tmp_path / "nan.wav"), CANONICAL_RATE))
        with pytest.raises(ValueError, match="^AudioClip samples must be finite$"):
            extract_track(TrackRecord("nan", "nan.wav", "house"), tmp_path)

    def test_nan_after_the_last_frame(self, tmp_path):
        # the last frame ends on a decode chunk edge: only the drain after the
        # last block reads the chunk that holds the NaN
        n = 5 * DECODE_CHUNK + 100
        assert (1 + (n - STFT_WINDOW) // STFT_HOP - 1) * STFT_HOP + STFT_WINDOW == 5 * DECODE_CHUNK
        data = track_samples(n, 1, "float32", seed=4)
        data[-1] = np.nan
        write_wav(tmp_path / "nan.wav", data, 1, CANONICAL_RATE)
        with pytest.raises(ValueError, match="^AudioClip samples must be finite$"):
            stft(stream_wav(read_wav_header(tmp_path / "nan.wav")))
        with pytest.raises(ValueError, match="^AudioClip samples must be finite$"):
            extract_track(TrackRecord("nan", "nan.wav", "house"), tmp_path)

    @pytest.mark.parametrize("have", [10_000, 150_000])
    def test_stream_ends_before_its_length(self, have):
        samples = np.random.default_rng(1).uniform(-1.0, 1.0, 300_000)
        stream = SampleStream(chunked(samples[:have], [10_000]), samples.size, CANONICAL_RATE)
        end = span_end(samples.size, have)
        with pytest.raises(ValueError, match=f"^sample stream ended at sample {have}, before sample {end}$"):
            stft(stream)

    @pytest.mark.parametrize("odd", [0, 1])
    def test_wav_truncated_mid_data(self, tmp_path, odd):
        rate = CANONICAL_RATE
        write_wav(tmp_path / "t.wav", track_samples(12 * rate, 1, "pcm16", seed=2), 1, rate)
        whole = (tmp_path / "t.wav").read_bytes()
        cut = whole[: 44 + 2 * 7 * rate + odd]  # 7 s of samples, and one byte more with odd
        (tmp_path / "cut.wav").write_bytes(cut)
        declared = f"declares {len(whole) - 44} bytes but only {len(cut) - 44} remain"
        with pytest.raises(MalformedWavError, match=f"^cut.wav: chunk b'data' {declared}$"):
            extract_track(TrackRecord("cut", "cut.wav", "house"), tmp_path)
        # cut after its header was read: the helper thread's reads come up short
        header = read_wav_header(tmp_path / "t.wav")
        (tmp_path / "t.wav").write_bytes(cut)
        if odd:
            message = "^buffer size must be a multiple of element size$"
        else:
            message = f"^sample stream ended at sample {7 * rate}, before sample {span_end(12 * rate, 7 * rate)}$"
        with pytest.raises(ValueError, match=message):
            stft(stream_wav(header))

    def test_measure_failure_stops_the_helper(self, monkeypatch):
        samples = np.random.default_rng(3).uniform(-1.0, 1.0, STFT_WINDOW + (10 * FRAME_BLOCK - 1) * STFT_HOP)
        n_frames = 1 + (samples.size - STFT_WINDOW) // STFT_HOP
        blocks = row_blocks(n_frames, FRAME_BLOCK)
        pulled, failed = [], threading.Event()
        before = threading.active_count()

        def chunks():
            for start in range(0, samples.size, 4096):
                if failed.is_set() and len(pulled) % 8 == 0:
                    time.sleep(0.05)  # a helper still at work when stft raises would be seen
                pulled.append(start)
                yield samples[start : start + 4096]

        def failing(magnitudes, n, frame_rate, bin_freqs):
            magnitudes(*blocks[0])
            magnitudes(*blocks[1])
            failed.set()
            raise RuntimeError("reduction failed")

        monkeypatch.setattr(audio, "_measure", failing)
        with pytest.raises(RuntimeError, match="^reduction failed$"):
            stft(SampleStream(chunks(), samples.size, CANONICAL_RATE))
        assert threading.active_count() == before
        # the helper filled at most the buffer the second block freed, then stopped
        assert pulled[-1] < (blocks[2][1] - 1) * STFT_HOP + STFT_WINDOW

    def test_measure_and_fill_both_fail(self, monkeypatch):
        # _measure raises after block 1 while the helper's fill of block 2
        # raises on a chunk only that block reads: the caller sees _measure's
        # exception, and the helper's goes no further than its future
        samples = np.random.default_rng(5).uniform(-1.0, 1.0, STFT_WINDOW + (10 * FRAME_BLOCK - 1) * STFT_HOP)
        n_frames = 1 + (samples.size - STFT_WINDOW) // STFT_HOP
        blocks = row_blocks(n_frames, FRAME_BLOCK)
        block_1_end = (blocks[1][1] - 1) * STFT_HOP + STFT_WINDOW
        fill_failed = threading.Event()

        def chunks():
            for start in range(0, samples.size, 4096):
                if start >= block_1_end:
                    fill_failed.set()
                    raise OSError("read failed")
                yield samples[start : start + 4096]

        def failing(magnitudes, n, frame_rate, bin_freqs):
            magnitudes(*blocks[0])
            magnitudes(*blocks[1])
            assert fill_failed.wait(10)
            raise RuntimeError("reduction failed")

        monkeypatch.setattr(audio, "_measure", failing)
        with pytest.raises(RuntimeError, match="^reduction failed$"):
            stft(SampleStream(chunks(), samples.size, CANONICAL_RATE))
