"""WAV decoding, resampling, spectrograms, and synthetic test signals.

The canonical analysis format is 22050 Hz mono float64 in [-1, 1]; every
downstream module assumes it. Only uncompressed RIFF/WAVE files (16-bit
integer or 32-bit float PCM, mono or stereo) are decoded -- convert lossy
formats externally. The decoder is written against the raw chunk layout so
that decode failures carry a precise diagnostic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

CANONICAL_RATE = 22050
STFT_WINDOW = 2048
STFT_HOP = 512

FRAME_BLOCK = 256

CLICK_LEN_S = 0.005
BPM_MIN = 30.0
BPM_MAX = 480.0


class MalformedWavError(ValueError):
    """The file is not a structurally valid RIFF/WAVE stream."""


class UnsupportedWavError(ValueError):
    """The file is valid WAV but uses an encoding this decoder rejects."""


@dataclass
class AudioClip:
    """Mono PCM buffer: amplitude samples in [-1, 1] at a fixed rate."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("AudioClip requires a nonempty 1-D sample buffer")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("AudioClip samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class Spectrogram:
    """Magnitude STFT: frames x bins, with the physical axes attached."""

    magnitudes: np.ndarray  # (n_frames, n_bins), nonnegative
    frame_rate: float  # frames per second = sample_rate / hop
    bin_freqs: np.ndarray = field(repr=False)  # Hz per bin, ascending

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        self.bin_freqs = np.asarray(self.bin_freqs, dtype=np.float64)
        if self.magnitudes.ndim != 2:
            raise ValueError("magnitudes must be a frames x bins matrix")
        if self.magnitudes.shape[1] != self.bin_freqs.size:
            raise ValueError("bin_freqs length must match bin count")
        if not np.all(np.isfinite(self.magnitudes)) or np.any(self.magnitudes < 0):
            raise ValueError("magnitudes must be finite and nonnegative")
        if np.any(np.diff(self.bin_freqs) <= 0):
            raise ValueError("bin_freqs must be strictly increasing")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]


def _find_chunks(raw: bytes):
    """Yield (chunk_id, payload) for every top-level RIFF sub-chunk.

    Payloads are memoryview slices of ``raw``: no chunk body is copied.
    """
    view = memoryview(raw)
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedWavError(
                f"chunk {cid!r} declares {size} bytes but only {len(body)} remain"
            )
        yield cid, body
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def load_wav(path: str | Path) -> AudioClip:
    """Decode a PCM WAV file to a mono AudioClip scaled to [-1, 1].

    Accepts 16-bit integer and 32-bit IEEE float encodings with 1 or 2
    channels; stereo is averaged to mono. Raises FileNotFoundError for a
    missing file, MalformedWavError for a broken container, and
    UnsupportedWavError for valid-but-unhandled encodings.
    """
    path = Path(path)
    raw = path.read_bytes()

    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path.name}: not a RIFF/WAVE file")

    fmt = None
    data = None
    for cid, body in _find_chunks(raw):
        if cid == b"fmt " and fmt is None:
            if len(body) < 16:
                raise MalformedWavError(f"{path.name}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data" and data is None:
            data = body
    if fmt is None:
        raise MalformedWavError(f"{path.name}: missing fmt chunk")
    if data is None:
        raise MalformedWavError(f"{path.name}: missing data chunk")

    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path.name}: {channels} channels (need 1 or 2)")
    if (audio_format, bits) == (1, 16):
        samples = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2")
        samples = samples.astype(np.float64)
        samples /= 32768.0
    elif (audio_format, bits) == (3, 32):
        samples = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4")
        samples = samples.astype(np.float64)
        np.clip(samples, -1.0, 1.0, out=samples)
    else:
        raise UnsupportedWavError(
            f"{path.name}: format tag {audio_format} at {bits} bits is not PCM16/float32"
        )

    if channels == 2:
        samples = samples[: samples.size - samples.size % 2]
        samples = samples.reshape(-1, 2).mean(axis=1)
    if samples.size == 0:
        raise MalformedWavError(f"{path.name}: data chunk holds no samples")
    return AudioClip(samples, rate, source_id=path.stem)


def save_wav(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as 16-bit mono PCM WAV (deterministic bytes)."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(body),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        clip.sample_rate,
        clip.sample_rate * 2,
        2,
        16,
        b"data",
        len(body),
    )
    Path(path).write_bytes(header + body)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited polyphase resample; duration kept within one period."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples.copy(), clip.sample_rate, clip.source_id)
    ratio = Fraction(target_rate, clip.sample_rate).limit_denominator(1000)
    out = resample_poly(clip.samples, ratio.numerator, ratio.denominator)
    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(out, target_rate, clip.source_id)


def frame_blocks(n: int) -> list[tuple[int, int]]:
    """Split ``n`` rows into near-equal ``(start, stop)`` blocks of about ``FRAME_BLOCK`` rows.

    Blocks cover ``range(n)`` in order and differ in length by at most one
    row; none is shorter than ``FRAME_BLOCK // 2`` (128) unless ``n``
    itself is. The per-frame layers (STFT, novelty, spectral statistics,
    MFCC band energies, chroma, row energy) run one block at a time so that
    no whole-spectrogram temporary is held, and the result must equal the
    whole-array code bit for bit. That holds only for operations whose
    per-row result does not depend on how many rows are computed together:

    * element-wise ufuncs, per-row FFTs and cumulative sums along a row are
      safe at any block height;
    * a reduction along a row depends on the memory layout: numpy sums a
      C-ordered row pairwise but an F-ordered one (what ``x[:, mask]``
      returns) sequentially, and a 1-row block is both, so it takes the
      pairwise path. Balanced blocks never leave such a 1-row tail, which
      fixed-size blocks would (513 frames at 256 rows);
    * a matrix product depends on the row count through the BLAS kernel:
      OpenBLAS takes a separate small-matrix kernel, with its own rounding,
      for small products (with the MFCC filter bank, blocks of 24 rows or
      fewer on scipy-openblas 0.3.31). When ``n`` needs more than one
      block, every block has 192 to 320 rows, far above that; the tests
      check every height from 128 to 383.
    """
    if n <= 0:
        return []
    n_blocks = max(1, (n + FRAME_BLOCK // 2) // FRAME_BLOCK)
    edges = [n * i // n_blocks for i in range(n_blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def stft(clip: AudioClip, window_len: int = STFT_WINDOW, hop: int = STFT_HOP) -> Spectrogram:
    """Hann-windowed magnitude STFT with frames = 1 + (n - window) // hop.

    The spectrogram is float64, n_frames x (window_len // 2 + 1): about
    121 MB for a 6-minute track at 22050 Hz with the default window and
    hop. It is filled in frame blocks, so the windowed frames and their
    complex spectra exist only one block at a time.
    """
    n = clip.samples.size
    if not (0 < hop <= window_len <= n):
        raise ValueError(
            f"need 0 < hop ({hop}) <= window_len ({window_len}) <= n_samples ({n})"
        )
    n_frames = 1 + (n - window_len) // hop
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, window_len)[::hop]
    window = np.hanning(window_len)
    mags = np.empty((n_frames, window_len // 2 + 1))
    for start, stop in frame_blocks(n_frames):
        np.abs(np.fft.rfft(frames[start:stop] * window, axis=1), out=mags[start:stop])
    freqs = np.fft.rfftfreq(window_len, 1.0 / clip.sample_rate)
    return Spectrogram(mags, clip.sample_rate / hop, freqs)


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


def synth_sine(
    freq: float, duration: float, rate: int = CANONICAL_RATE, amplitude: float = 0.5
) -> AudioClip:
    t = np.arange(int(round(duration * rate))) / rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq * t), rate, f"sine_{freq:g}hz")


def synth_noise(
    duration: float,
    rate: int = CANONICAL_RATE,
    amplitude: float = 0.5,
    seed: int = 0,
) -> AudioClip:
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    return AudioClip(amplitude * rng.uniform(-1.0, 1.0, n), rate, f"noise_{seed}")
