"""WAV decoding and writing, resampling, and the STFT pass.

The canonical analysis format is 22050 Hz mono float64 in [-1, 1]; every
downstream module assumes it. Only uncompressed RIFF/WAVE files (16- or
24-bit integer or 32-bit float PCM, plain or WAVE_FORMAT_EXTENSIBLE, mono
or stereo) are decoded -- convert lossy formats externally. The decoder
reads the raw chunk headers, so that decode failures carry a precise
diagnostic, and then decodes each span of the data chunk as it is asked for.
``write_wav`` is the one writer: 16-bit mono PCM, appended chunk by chunk to
``<name>.part`` through ``table.output`` and renamed into place after the last.

A signal reaches the STFT as a ``SampleStream``: its length and rate, and
``read(lo, hi)``, which gives any span of its samples. ``stream_wav``
decodes and resamples a file only for the span asked, and the STFT asks
for the samples of one frame block at a time. So on the extraction path no
whole-track sample array exists, neither at the file's rate nor at 22050
Hz. ``load_wav`` and ``resample`` read one span, the whole signal, into an
AudioClip, and ``stft`` of an AudioClip reads views of its array through
the same pass.

The STFT keeps per-frame series (``FrameSeries``), never a whole
magnitude array; every per-frame feature layer reads those series.
Synthetic signals (click tracks, sines, noise) are made in ``fixtures``.

Resampling keeps ``scipy.signal.upfirdn``. A numpy polyphase kernel that
matched it bit for bit (at ratios 1/2, 147/160, 147/80, 3/2 and 2/1) took
0.41 s per 6-minute 44.1 kHz track where ``upfirdn`` took 0.21 s (one
x86-64 core). That time is now spent off the calling thread: the STFT's
read-ahead worker decodes and resamples while the calling thread reduces
the block before, so on two CPUs it overlaps the reduction (see ``stft``).
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .table import output
from .types import row_blocks

CANONICAL_RATE = 22050
STFT_WINDOW = 2048
STFT_HOP = 512

FRAME_BLOCK = 96
_FFT_ROWS = FRAME_BLOCK // 4  # frames per FFT call inside a block
DECODE_CHUNK = 65536  # input frames resampled at a time

# the most 16-bit mono frames whose RIFF chunk size (36 + 2n bytes) fits 32 bits
MAX_WAV_FRAMES = (0xFFFFFFFF - 36) // 2

N_MEL_BANDS = 40
ROLLOFF_FRACTION = 0.85
CHROMA_MIN_FREQ = 55.0
BAND_EDGES_HZ = (60.0, 120.0, 240.0, 480.0, 960.0, 1920.0)
LOG_COMPRESSION = 1000.0

_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 2-15 of the KSDATAFORMAT_SUBTYPE GUIDs that carry a plain format tag
# in their first two bytes (PCM: 1, IEEE float: 3)
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")
# (format tag, bits) -> sample dtype; "<i3" (packed 3-byte PCM) is assembled by hand
_ENCODINGS = {(1, 16): "<i2", (1, 24): "<i3", (3, 32): "<f4"}
_SAMPLE_BYTES = {"<i2": 2, "<i3": 3, "<f4": 4}


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


@dataclass(frozen=True)
class SampleStream:
    """A mono signal of ``n_samples`` float64 samples, read by span.

    ``read(lo, hi)`` returns samples ``lo:hi`` for any ``0 <= lo <= hi <=
    n_samples``, as often and in whatever order it is called; the array it
    returns may be a view of the caller's, so it is never written. The
    length, rate and duration are known before a sample is read.
    """

    read: Callable[[int, int], np.ndarray]
    n_samples: int
    sample_rate: int
    source_id: str = ""

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class WavHeader:
    """A WAV file's encoding and data chunk, read from its chunk headers alone."""

    path: Path
    sample_rate: int
    channels: int
    dtype: str  # "<i2" (PCM16), "<i3" (PCM24) or "<f4" (float32)
    data_offset: int  # byte offset of the first sample in the file
    n_frames: int  # samples per channel

    @property
    def duration(self) -> float:
        return self.n_frames / self.sample_rate


def _format_tag(fmt: bytes, name: str) -> tuple[int, str]:
    """The fmt chunk's effective format tag, and how to name it in a message.

    A WAVE_FORMAT_EXTENSIBLE chunk carries its real format in a subformat
    GUID; the PCM and IEEE float GUIDs map to tags 1 and 3, any other keeps
    the extensible tag.
    """
    (tag,) = struct.unpack_from("<H", fmt, 0)
    if tag != _WAVE_FORMAT_EXTENSIBLE:
        return tag, f"format tag {tag}"
    if len(fmt) < 40:
        raise MalformedWavError(f"{name}: extensible fmt chunk truncated")
    guid = fmt[24:40]
    if guid[2:] != _SUBFORMAT_GUID_TAIL:
        return tag, f"format tag {tag} (subformat GUID {guid.hex()})"
    (sub,) = struct.unpack_from("<H", guid, 0)
    return sub, f"format tag {tag} (subformat {sub})"


def read_wav_header(path: str | Path) -> WavHeader:
    """Parse a WAV file's chunk headers without decoding a sample.

    Raises FileNotFoundError for a missing file, MalformedWavError for a
    broken container or a data chunk without samples, and
    UnsupportedWavError for valid-but-unhandled encodings.
    """
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise MalformedWavError(f"{path.name}: not a RIFF/WAVE file")
        fmt = data = None
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            cid, length = struct.unpack("<4sI", fh.read(8))
            remain = min(length, size - pos - 8)
            if remain < length:
                raise MalformedWavError(
                    f"{path.name}: chunk {cid!r} declares {length} bytes but only {remain} remain"
                )
            if cid == b"fmt " and fmt is None:
                if length < 16:
                    raise MalformedWavError(f"{path.name}: fmt chunk truncated")
                fmt = fh.read(min(length, 40))
            elif cid == b"data" and data is None:
                data = (pos + 8, length)
            pos += 8 + length + (length & 1)  # chunks are word-aligned
    if fmt is None:
        raise MalformedWavError(f"{path.name}: missing fmt chunk")
    if data is None:
        raise MalformedWavError(f"{path.name}: missing data chunk")

    _, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if rate == 0:
        raise MalformedWavError(f"{path.name}: sample rate 0")
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path.name}: {channels} channels (need 1 or 2)")
    tag, label = _format_tag(fmt, path.name)
    dtype = _ENCODINGS.get((tag, bits))
    if dtype is None:
        raise UnsupportedWavError(f"{path.name}: {label} at {bits} bits is not PCM16/PCM24/float32")
    offset, length = data
    n_frames = length // _SAMPLE_BYTES[dtype] // channels  # a partial frame is dropped
    if n_frames == 0:
        raise MalformedWavError(f"{path.name}: data chunk holds no samples")
    return WavHeader(path, rate, channels, dtype, offset, n_frames)


def _frame_reader(header: WavHeader) -> Callable[[int, int], np.ndarray]:
    """``read(start, stop)``: frames ``start:stop`` of the data chunk as mono float64.

    PCM16 is scaled by 1/32768 and PCM24 by 1/8388608, float32 is clipped
    to [-1, 1], and stereo is the mean of its two channels. Each call
    opens the file for its one read, so no file stays open between reads.
    A file cut short after its header was read raises MalformedWavError,
    naming the frame where its samples end.
    """
    frame_bytes = _SAMPLE_BYTES[header.dtype] * header.channels

    def read(start: int, stop: int) -> np.ndarray:
        with header.path.open("rb") as fh:
            fh.seek(header.data_offset + start * frame_bytes)
            raw = fh.read((stop - start) * frame_bytes)
        if len(raw) < (stop - start) * frame_bytes:
            end = start + len(raw) // frame_bytes
            raise MalformedWavError(f"{header.path.name}: samples end at frame {end} of {header.n_frames}")
        if header.dtype == "<i3":
            # three little-endian bytes as the top of an int32, shifted back down with their sign
            wide = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
            wide[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
            samples = (wide.view("<i4")[:, 0] >> 8).astype(np.float64)
            samples /= 8388608.0
        else:
            samples = np.frombuffer(raw, dtype=header.dtype).astype(np.float64)
            if header.dtype == "<i2":
                samples /= 32768.0
            else:
                np.clip(samples, -1.0, 1.0, out=samples)
        if header.channels == 2:
            samples = samples.reshape(-1, 2).mean(axis=1)
        return samples

    return read


@lru_cache(maxsize=8)
def _lowpass(up: int, down: int) -> np.ndarray:
    """``resample_poly``'s default filter for ``up``/``down``: a Kaiser (beta 5) ``firwin`` times ``up``."""
    from scipy.signal import firwin  # loads scipy.signal only for a clip that needs resampling

    max_rate = max(up, down)
    h = firwin(2 * (10 * max_rate) + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h *= up
    h.flags.writeable = False
    return h


def _polyphase(
    read: Callable[[int, int], np.ndarray], n_in: int, up: int, down: int
) -> Callable[[int, int], np.ndarray]:
    """``span(lo, hi)``: ``scipy.signal.resample_poly(x, up, down)[lo:hi]`` of ``x = read(0, n_in)``, bit for bit.

    The filter and its pre- and post-padding are ``resample_poly``'s. A
    span is computed in pieces of about DECODE_CHUNK input frames, one
    ``upfirdn`` call each, written into the span's array. ``upfirdn``
    computes each output as one sequential sum over the taps of its phase,
    from a zeroed accumulator, and reads only that output's own window of
    inputs. So a piece that starts on a multiple of ``down`` (the phase of
    its first output is 0, as in the whole-array call) and reaches back one
    whole filter phase before its first kept output computes every kept
    output from the same inputs, taps and order, whatever the span.
    """
    from scipy.signal import upfirdn

    h = _lowpass(up, down)
    half_len = (h.size - 1) // 2
    n_pre_pad = down - half_len % down
    n_pre_remove = (half_len + n_pre_pad) // down
    n_out = -(-n_in * up // down)
    n_post_pad = 0
    # upfirdn's output length must reach the last kept output
    while ((n_in - 1) * up + h.size + n_pre_pad + n_post_pad - 1) // down + 1 < n_out + n_pre_remove:
        n_post_pad += 1
    taps = np.concatenate((np.zeros(n_pre_pad), h, np.zeros(n_post_pad)))
    per_phase = -(-taps.size // up)  # input samples one output reads
    step = max(1, DECODE_CHUNK * up // down)

    def span(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo)
        for first in range(lo, hi, step):
            last = min(first + step, hi)
            # out[first:last] is upfirdn's y[g0:g1]; y[g] reads x up to index g * down // up
            g0, g1 = first + n_pre_remove, last + n_pre_remove
            start = max(0, g0 * down // up - per_phase + 1) // down * down
            stop = min(n_in, (g1 - 1) * down // up + 1)
            y = upfirdn(taps, read(start, stop), up, down)
            skip = start * up // down
            out[first - lo : last - lo] = y[g0 - skip : g1 - skip]
        return out

    return span


def _resampled(
    read: Callable[[int, int], np.ndarray], n_in: int, rate: int, target: int, source_id: str
) -> SampleStream:
    """``x = read(0, n_in)`` at ``rate`` as a stream at ``target``: nothing is read until the stream is.

    ``resample_poly`` at the rational ratio (denominator at most 1000),
    clipped to [-1, 1] where the rate changes. A span that is not finite
    raises AudioClip's ValueError.
    """
    if target <= 0:
        raise ValueError("target_rate must be positive")
    ratio = Fraction(target, rate).limit_denominator(1000)
    if ratio == 0:
        raise ValueError(f"cannot resample {rate} Hz to {target} Hz: the ratio rounds to 0")
    up, down = ratio.numerator, ratio.denominator
    convert = read if up == down else _polyphase(read, n_in, up, down)

    def read_span(lo: int, hi: int) -> np.ndarray:
        span = convert(lo, hi)
        if target != rate:
            # a 1/1 span may be a view of the caller's array, which is never written
            span = np.clip(span, -1.0, 1.0, out=None if up == down else span)
        if not np.all(np.isfinite(span)):
            raise ValueError("AudioClip samples must be finite")
        return span

    return SampleStream(read_span, -(-n_in * up // down), target, source_id)


def stream_wav(header: WavHeader, rate: int | None = None) -> SampleStream:
    """A WAV file's samples as a SampleStream, at ``rate`` if given.

    Each ``read(lo, hi)`` decodes the file's frames under that span, and
    resamples them exactly as ``resample`` would resample the whole clip,
    so no sample is decoded before the stream is read and none is kept
    after. Where the rate changes, a span is resampled from about
    DECODE_CHUNK input frames at a time; at the file's own rate it is
    decoded in one read.
    """
    target = header.sample_rate if rate is None else rate
    return _resampled(_frame_reader(header), header.n_frames, header.sample_rate, target, header.path.stem)


def load_wav(path: str | Path, rate: int | None = None) -> AudioClip:
    """Decode a PCM WAV file to a mono AudioClip scaled to [-1, 1].

    Accepts 16- and 24-bit integer and 32-bit IEEE float encodings with 1
    or 2 channels, also as WAVE_FORMAT_EXTENSIBLE; stereo is averaged to
    mono. The clip is ``stream_wav``'s whole stream, read as one span: at
    the file's own rate that holds the file's samples whole, and with
    ``rate`` they are resampled DECODE_CHUNK input frames at a time. No
    stage calls it; it is the tests' whole-track reference. Raises
    FileNotFoundError for a missing file, MalformedWavError for a broken
    container, and UnsupportedWavError for valid-but-unhandled encodings.
    """
    stream = stream_wav(read_wav_header(path), rate)
    return AudioClip(stream.read(0, stream.n_samples), stream.sample_rate, stream.source_id)


def write_wav(path: str | Path, rate: int, n_frames: int, chunks: Iterable[np.ndarray]) -> None:
    """Write ``n_frames`` float samples, given as consecutive chunks, as a 16-bit mono PCM WAV file.

    Each chunk is scaled by 32767, rounded and clipped to the int16 range
    and appended as it arrives, so the samples never exist whole. The
    bytes depend only on the samples, not on how they are chunked. The
    file is written through ``table.output``, so a failure leaves the older
    file at ``path``, or none. Raises ValueError, before the file is
    opened, when the RIFF sizes of ``n_frames`` frames overflow 32 bits,
    and while writing for a non-finite sample or chunks that do not add up
    to ``n_frames``.
    """
    path = Path(path)
    if not 0 <= n_frames <= MAX_WAV_FRAMES:
        raise ValueError(f"a 16-bit mono WAV file holds 0 to {MAX_WAV_FRAMES} frames, not {n_frames}")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + 2 * n_frames,
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        rate,
        rate * 2,
        2,
        16,
        b"data",
        2 * n_frames,
    )
    with output(path, "wb") as fh:
        fh.write(header)
        written = 0
        for chunk in chunks:
            x = np.asarray(chunk, dtype=np.float64)
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{path.name}: non-finite sample in frames {written}:{written + x.size}")
            written += x.size
            if written > n_frames:
                raise ValueError(f"{path.name}: more than the {n_frames} frames declared")
            # np.clip(np.round(x * 32767.0), -32768, 32767), in one buffer
            pcm = np.multiply(x, 32767.0)
            np.round(pcm, out=pcm)
            np.clip(pcm, -32768, 32767, out=pcm)
            fh.write(pcm.astype("<i2"))
        if written != n_frames:
            raise ValueError(f"{path.name}: {written} frames written, {n_frames} declared")


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited polyphase resample; duration kept within one period.

    Equals ``scipy.signal.resample_poly`` at the rational ratio (denominator
    at most 1000) bit for bit, clipped to [-1, 1]; the same kernel that
    ``stream_wav`` runs while decoding.
    """
    samples = clip.samples
    stream = _resampled(lambda lo, hi: samples[lo:hi], samples.size, clip.sample_rate, target_rate, clip.source_id)
    return AudioClip(stream.read(0, stream.n_samples), target_rate, clip.source_id)


def mel_filterbank(bin_freqs: np.ndarray) -> np.ndarray:
    """Triangular mel filters (N_MEL_BANDS x n_bins) spanning 0..max bin freq."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    edges = from_mel(np.linspace(to_mel(0.0), to_mel(bin_freqs[-1]), N_MEL_BANDS + 2))
    bank = np.zeros((N_MEL_BANDS, bin_freqs.size))
    for b in range(N_MEL_BANDS):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        bank[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


@dataclass
class FrameSeries:
    """Per-frame series of one magnitude STFT: everything the feature layers read of it.

    Per frame (``n_frames`` values, or rows):

    * ``centroid``, ``spread``, ``entropy``, ``rolloff``: spectral shape,
      0 for a silent frame; rolloff is the lowest bin frequency below which
      ROLLOFF_FRACTION of the frame's energy lies;
    * ``energy``: the sum of squared magnitudes;
    * ``mel_energy``: N_MEL_BANDS triangular mel band energies;
    * ``chroma_energy``: 12 pitch-class energies, bins at or above
      CHROMA_MIN_FREQ folded against A440 (C first);
    * ``band_energy``: one energy per octave band with a lower edge in
      BAND_EDGES_HZ.

    Per consecutive frame pair (``n_frames - 1`` values): ``flux``, the L2
    norm of the positive magnitude differences, and ``log_flux``, the sum
    of the positive differences of log(1 + LOG_COMPRESSION * magnitude).
    """

    frame_rate: float  # frames per second = sample_rate / hop
    centroid: np.ndarray
    spread: np.ndarray
    entropy: np.ndarray
    rolloff: np.ndarray
    energy: np.ndarray
    mel_energy: np.ndarray
    chroma_energy: np.ndarray
    band_energy: np.ndarray
    flux: np.ndarray
    log_flux: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.centroid.size


def _pair_diffs(block: np.ndarray, before: np.ndarray | None) -> np.ndarray:
    """``np.diff(rows, axis=0)`` of ``before`` (one row, or None) stacked on ``block``."""
    if before is None:
        return np.diff(block, axis=0)
    out = np.empty_like(block)
    np.subtract(block[:1], before, out=out[:1])
    np.subtract(block[1:], block[:-1], out=out[1:])
    return out


def _measure(
    magnitudes: Callable[[int, int], np.ndarray], n: int, frame_rate: float, bin_freqs: np.ndarray
) -> FrameSeries:
    """The FrameSeries of ``n`` frames, reduced one block of ``row_blocks(n, FRAME_BLOCK)`` at a time.

    ``magnitudes(start, stop)`` gives the magnitudes of frames
    ``start:stop``. Each frame-pair difference reaches one row back, so the
    last row of a block is carried into the next. Temporaries are reused
    in place where the arithmetic stays the same, so that at most two
    block-sized arrays exist next to the block's magnitudes.
    """
    bank_t = mel_filterbank(bin_freqs).T
    usable = bin_freqs >= CHROMA_MIN_FREQ
    pitch = (np.round(12.0 * np.log2(bin_freqs[usable] / 440.0)).astype(int) + 9) % 12  # A -> 9
    classes = [(c, pitch == c) for c in range(12) if np.any(pitch == c)]
    bands = [(bin_freqs >= lo) & (bin_freqs < lo * 2.0) for lo in BAND_EDGES_HZ]
    pairs = max(n - 1, 0)
    out = FrameSeries(
        frame_rate,
        *(np.empty(n) for _ in range(5)),
        np.empty((n, N_MEL_BANDS)),
        np.zeros((n, 12)),
        np.empty((n, len(bands))),
        np.empty(pairs),
        np.empty(pairs),
    )
    last = last_log = None
    for start, stop in row_blocks(n, FRAME_BLOCK):
        mags = magnitudes(start, stop)
        rows = slice(start, stop)
        totals = mags.sum(axis=1)
        live = totals > 0
        safe_tot = np.where(live, totals, 1.0)
        centroid = np.where(live, (mags * bin_freqs).sum(axis=1) / safe_tot, 0.0)
        out.centroid[rows] = centroid
        work = np.square(bin_freqs - centroid[:, None])
        np.multiply(mags, work, out=work)
        out.spread[rows] = np.where(live, np.sqrt(work.sum(axis=1) / safe_tot), 0.0)
        probs = np.divide(mags, safe_tot[:, None], out=work)
        plogp = np.empty_like(probs)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(probs, out=plogp)
            np.multiply(probs, plogp, out=plogp)
        plogp[~(probs > 0)] = 0.0
        out.entropy[rows] = np.where(live, -plogp.sum(axis=1), 0.0)

        power = np.square(mags, out=plogp)
        cum = np.cumsum(power, axis=1, out=work)
        idx = np.argmax(cum >= (ROLLOFF_FRACTION * cum[:, -1])[:, None], axis=1)
        out.rolloff[rows] = np.where(cum[:, -1] > 0, bin_freqs[idx], 0.0)
        del cum, probs, work
        out.energy[rows] = power.sum(axis=1)
        out.mel_energy[rows] = power @ bank_t
        # F-ordered, like the whole-array gather: see types.row_blocks
        chroma_power = power[:, usable]
        for c, sel in classes:
            out.chroma_energy[rows, c] = chroma_power[:, sel].sum(axis=1)
        del chroma_power
        for j, mask in enumerate(bands):
            out.band_energy[rows, j] = power[:, mask].sum(axis=1)
        del power, plogp

        diffs = slice(max(start - 1, 0), stop - 1)
        # the L2 norm as np.linalg.norm takes it: sqrt of the row sums of x * x
        rise = _pair_diffs(mags, last)
        np.clip(rise, 0.0, None, out=rise)
        np.multiply(rise, rise, out=rise)
        out.flux[diffs] = np.sqrt(rise.sum(axis=1))
        del rise
        compressed = np.multiply(mags, LOG_COMPRESSION)
        np.log1p(compressed, out=compressed)
        rise = _pair_diffs(compressed, last_log)
        np.clip(rise, 0.0, None, out=rise)
        out.log_flux[diffs] = rise.sum(axis=1)
        last, last_log = mags[-1:].copy(), compressed[-1:].copy()
        del rise, compressed, mags
    return out


def stft(clip: AudioClip | SampleStream, window_len: int = STFT_WINDOW, hop: int = STFT_HOP) -> FrameSeries:
    """Hann-windowed magnitude STFT, reduced to its FrameSeries in one pass.

    There are 1 + (n - window) // hop frames of window_len // 2 + 1 bins.
    Each frame block's samples, ``start * hop`` to ``(stop - 1) * hop +
    window_len`` (at most 74,752 samples, 0.6 MB), are one
    ``stream.read``, so a stream from ``stream_wav`` decodes and resamples
    one block's span at a time, and the track's samples never exist whole.
    A block reads again the window_len - hop samples it shares with the
    block before (1,536 of them, 3 % of a 96-frame block). An AudioClip's
    spans are views of its array. The magnitudes of one frame block at a
    time are computed and reduced to the per-frame series, so the whole
    spectrogram (about 121 MB of float64 for a 6-minute track at 22050 Hz)
    never exists either. Each block's spectra are taken _FFT_ROWS frames
    at a time, which holds the windowed frames and their complex spectra
    to a quarter block; a row's FFT does not depend on how many rows are
    taken together. The samples after the last frame are read too, so
    that every sample of a stream passes its finiteness check.

    Reading and reducing overlap: a one-worker ThreadPoolExecutor fills
    each block's magnitudes into one of two preallocated buffers, by block
    parity, while this thread reduces the block before with ``_measure``;
    each call waits on its block's future and then submits the next fill
    into the buffer just finished with. The work is numpy, scipy and
    pocketfft calls that release the GIL, on the same samples as in one
    thread, so the series are the same bit for bit. ``result()`` raises a
    failed fill's own exception, and leaving the executor joins its thread,
    which after a failure of ``_measure`` finishes at most one block.
    """
    if isinstance(clip, AudioClip):
        samples = clip.samples
        stream = SampleStream(lambda lo, hi: samples[lo:hi], samples.size, clip.sample_rate, clip.source_id)
    else:
        stream = clip
    n = stream.n_samples
    if not (0 < hop <= window_len <= n):
        raise ValueError(
            f"need 0 < hop ({hop}) <= window_len ({window_len}) <= n_samples ({n})"
        )
    n_frames = 1 + (n - window_len) // hop
    blocks = row_blocks(n_frames, FRAME_BLOCK)
    longest = max(stop - start for start, stop in blocks)
    window = np.hanning(window_len)
    windowed = np.empty((_FFT_ROWS, window_len))

    def fill(mags: np.ndarray, start: int, stop: int) -> None:
        span = stream.read(start * hop, (stop - 1) * hop + window_len)
        frames = np.lib.stride_tricks.sliding_window_view(span, window_len)[::hop]
        for row in range(0, stop - start, _FFT_ROWS):
            end = min(row + _FFT_ROWS, stop - start)
            np.multiply(frames[row:end], window, out=windowed[: end - row])
            np.abs(np.fft.rfft(windowed[: end - row], axis=1), out=mags[row:end])

    freqs = np.fft.rfftfreq(window_len, 1.0 / stream.sample_rate)
    shape = (longest, window_len // 2 + 1)
    buffers = (np.empty(shape), np.empty(shape))  # block k is filled into buffers[k % 2]
    taken = iter(range(len(blocks)))  # the index of the block each magnitudes call asks for

    def read_ahead(k: int) -> Future:
        start, stop = blocks[k]
        return helper.submit(fill, buffers[k % 2][: stop - start], start, stop)

    def magnitudes(start: int, stop: int) -> np.ndarray:
        nonlocal pending
        k = next(taken)
        pending.result()  # raises the helper's exception, if its fill failed
        if k + 1 < len(blocks):  # into the buffer of block k - 1, which _measure has finished
            pending = read_ahead(k + 1)
        return buffers[k % 2][: stop - start]

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="edm-atlas-stft") as helper:
        pending = read_ahead(0)
        series = _measure(magnitudes, n_frames, stream.sample_rate / hop, freqs)
    stream.read((n_frames - 1) * hop + window_len, n)  # the samples after the last frame, fewer than hop
    return series
