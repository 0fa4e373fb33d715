import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import resample_poly

from conftest import write_clip
from edm_atlas import audio
from edm_atlas.audio import (
    CANONICAL_RATE,
    DECODE_CHUNK,
    STFT_HOP,
    STFT_WINDOW,
    AudioClip,
    MalformedWavError,
    UnsupportedWavError,
    load_wav,
    read_wav_header,
    resample,
    stft,
    stream_wav,
    write_wav,
)
from edm_atlas.fixtures import synth_click_track
from edm_atlas.table import write_csv, write_json, write_text


def wav_bytes(frames: bytes, channels=1, rate=44100, fmt=1, bits=16) -> bytes:
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(frames), b"WAVE", b"fmt ", 16,
        fmt, channels, rate, rate * channels * bits // 8,
        channels * bits // 8, bits, b"data", len(frames),
    )
    return header + frames


def subformat_guid(tag: int) -> bytes:
    """The KSDATAFORMAT_SUBTYPE GUID of a plain format tag (1 = PCM, 3 = IEEE float)."""
    return struct.pack("<IHH", tag, 0x0000, 0x0010) + bytes.fromhex("800000aa00389b71")


def extensible_wav_bytes(frames: bytes, channels=1, rate=44100, bits=16, guid=None, cb_size=22) -> bytes:
    """A WAVE_FORMAT_EXTENSIBLE file: the real format is the fmt chunk's subformat GUID."""
    fmt = struct.pack(
        "<HHIIHHHHI", 0xFFFE, channels, rate, rate * channels * bits // 8,
        channels * bits // 8, bits, cb_size, bits, (1 << channels) - 1,
    ) + (subformat_guid(1) if guid is None else guid)
    fmt = fmt[: 18 + cb_size]
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(frames)) + frames
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestLoadWav:
    def test_silence_mono(self, tmp_path):
        path = tmp_path / "silence.wav"
        path.write_bytes(wav_bytes(np.zeros(44100, dtype="<i2").tobytes()))
        clip = load_wav(path)
        assert clip.samples.size == 44100
        assert clip.sample_rate == 44100
        assert np.all(clip.samples == 0.0)

    def test_stereo_channel_average(self, tmp_path):
        # +0.5 / -0.5 on the two channels cancels exactly (16384/32768)
        frames = np.empty(2000, dtype="<i2")
        frames[0::2] = 16384
        frames[1::2] = -16384
        path = tmp_path / "stereo.wav"
        path.write_bytes(wav_bytes(frames.tobytes(), channels=2))
        clip = load_wav(path)
        assert clip.samples.size == 1000
        assert np.all(clip.samples == 0.0)

    def test_fullscale_integer_scaling(self, tmp_path):
        path = tmp_path / "full.wav"
        path.write_bytes(wav_bytes(np.array([32767, -32768], dtype="<i2").tobytes()))
        clip = load_wav(path)
        assert clip.samples[0] == pytest.approx(32767 / 32768)
        assert clip.samples[1] == -1.0

    def test_float32_encoding(self, tmp_path):
        path = tmp_path / "float.wav"
        data = np.array([0.25, -0.5, 1.0], dtype="<f4")
        path.write_bytes(wav_bytes(data.tobytes(), fmt=3, bits=32))
        clip = load_wav(path)
        assert np.allclose(clip.samples, [0.25, -0.5, 1.0])

    def test_deterministic(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_clip(synth_click_track(120, 1), path)
        a = load_wav(path)
        b = load_wav(path)
        assert np.array_equal(a.samples, b.samples)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OGGSnot a wave file at all")
        with pytest.raises(MalformedWavError):
            load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        path = tmp_path / "nodata.wav"
        blob = wav_bytes(b"")
        path.write_bytes(blob[: blob.index(b"data")])
        with pytest.raises(MalformedWavError, match="data"):
            load_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "8bit.wav"
        path.write_bytes(wav_bytes(bytes(100), bits=8))
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_too_many_channels(self, tmp_path):
        path = tmp_path / "quad.wav"
        path.write_bytes(wav_bytes(bytes(160), channels=4))
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_odd_list_chunk_before_fmt(self, tmp_path):
        # a 5-byte LIST chunk carries one pad byte; fmt and data follow it
        frames = np.arange(-500, 500, dtype="<i2").tobytes()
        plain = wav_bytes(frames)
        extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"
        body = plain[12:]
        blob = b"RIFF" + struct.pack("<I", 4 + len(extra) + len(body)) + b"WAVE" + extra + body
        (tmp_path / "plain.wav").write_bytes(plain)
        (tmp_path / "list.wav").write_bytes(blob)
        expected = load_wav(tmp_path / "plain.wav").samples
        assert load_wav(tmp_path / "list.wav").samples.tobytes() == expected.tobytes()

    def test_truncated_chunk_named(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(wav_bytes(bytes(200))[:-50])
        with pytest.raises(MalformedWavError, match="declares 200 bytes but only 150 remain"):
            load_wav(path)

    @pytest.mark.parametrize(
        "channels, tag, bits, dtype",
        [(1, 1, 16, "<i2"), (2, 1, 16, "<i2"), (1, 3, 32, "<f4"), (2, 3, 32, "<f4")],
        ids=["pcm16_mono", "pcm16_stereo", "float32_mono", "float32_stereo"],
    )
    def test_extensible_decodes_as_plain_tag(self, tmp_path, channels, tag, bits, dtype):
        rng = np.random.default_rng(channels * tag)
        if dtype == "<i2":
            data = rng.integers(-32768, 32768, 2 * 1001, dtype=np.int64).astype(dtype)
        else:
            data = rng.uniform(-1.2, 1.2, 2 * 1001).astype(dtype)
        frames = data[: 1001 * channels].tobytes()
        (tmp_path / "plain.wav").write_bytes(wav_bytes(frames, channels=channels, fmt=tag, bits=bits))
        (tmp_path / "ext.wav").write_bytes(
            extensible_wav_bytes(frames, channels=channels, bits=bits, guid=subformat_guid(tag))
        )
        plain = load_wav(tmp_path / "plain.wav")
        ext = load_wav(tmp_path / "ext.wav")
        assert ext.sample_rate == plain.sample_rate == 44100
        assert ext.samples.size == 1001
        assert ext.samples.tobytes() == plain.samples.tobytes()
        assert load_wav(tmp_path / "ext.wav", CANONICAL_RATE).samples.tobytes() == (
            load_wav(tmp_path / "plain.wav", CANONICAL_RATE).samples.tobytes()
        )

    @pytest.mark.parametrize(
        "guid, bits, message",
        [
            (subformat_guid(2), 16, r"format tag 65534 \(subformat 2\) at 16 bits"),
            (bytes(16), 16, r"format tag 65534 \(subformat GUID 0{32}\) at 16 bits"),
            (subformat_guid(1), 32, r"format tag 65534 \(subformat 1\) at 32 bits"),
            (subformat_guid(3), 64, r"format tag 65534 \(subformat 3\) at 64 bits"),
        ],
        ids=["adpcm", "null_guid", "pcm32", "float64"],
    )
    def test_extensible_other_subformats_rejected(self, tmp_path, guid, bits, message):
        path = tmp_path / "ext.wav"
        path.write_bytes(extensible_wav_bytes(bytes(bits // 8 * 10), bits=bits, guid=guid))
        with pytest.raises(UnsupportedWavError, match=message):
            load_wav(path)

    def test_extensible_without_subformat_is_malformed(self, tmp_path):
        path = tmp_path / "ext.wav"
        path.write_bytes(extensible_wav_bytes(bytes(20), cb_size=0))
        with pytest.raises(MalformedWavError, match="extensible fmt chunk truncated"):
            load_wav(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(wav_bytes(bytes(4 * 1000 + 3), channels=2, rate=48000))
        header = read_wav_header(path)
        assert (header.sample_rate, header.channels, header.n_frames) == (48000, 2, 1000)
        assert header.data_offset == 44
        assert header.duration == pytest.approx(1000 / 48000)

    def test_zero_sample_rate(self, tmp_path):
        path = tmp_path / "zero.wav"
        path.write_bytes(wav_bytes(bytes(200), rate=0))
        with pytest.raises(MalformedWavError, match="sample rate 0"):
            read_wav_header(path)

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(wav_bytes(bytes(3), channels=2))
        with pytest.raises(MalformedWavError, match="data chunk holds no samples"):
            load_wav(path)

    def test_roundtrip(self, tmp_path):
        clip = synth_click_track(97, 2)
        write_clip(clip, tmp_path / "rt.wav")
        back = load_wav(tmp_path / "rt.wav")
        assert back.sample_rate == clip.sample_rate
        # 16-bit quantization: one write/read step is at most 1.5/32768
        assert np.max(np.abs(back.samples - clip.samples)) <= 1.5 / 32768


class _Unread(Exception):
    """Raised by an iterator when a writer reads past the items it was given."""


def _then_raise(items):
    """Yield ``items``, then raise ``_Unread`` where the next one would be read."""
    yield from items
    raise _Unread


def _wav(chunks):
    return lambda path: write_wav(path, 22050, 2 * DECODE_CHUNK, iter(chunks))


# every writer, each failing as it writes: (write(path), exception, message)
FAILED_WRITES = {
    "nan_after_first_chunk": (
        _wav([np.zeros(DECODE_CHUNK), np.full(DECODE_CHUNK, np.nan)]),
        ValueError,
        "non-finite sample in frames 65536:131072",
    ),
    "fewer_frames": (
        _wav([np.zeros(DECODE_CHUNK), np.zeros(DECODE_CHUNK - 1)]),
        ValueError,
        "131071 frames written, 131072 declared",
    ),
    "more_frames": (
        _wav([np.zeros(DECODE_CHUNK), np.zeros(DECODE_CHUNK + 1)]),
        ValueError,
        "more than the 131072 frames declared",
    ),
    "write_csv": (lambda path: write_csv(path, _then_raise([["track_id", "label"]])), _Unread, None),
    "write_json": (lambda path: write_json(path, {"k": {1}}), TypeError, "not JSON serializable"),
    "write_text": (lambda path: write_text(path, "<svg>\ud800</svg>"), UnicodeEncodeError, "surrogates not allowed"),
}

WRITES = {
    "write_csv": lambda path: write_csv(path, [["track_id", "label"], ["a", 1]]),
    "write_json": lambda path: write_json(path, {"k": 1}),
    "write_text": lambda path: write_text(path, "<svg/>\n"),
    "write_wav": lambda path: write_wav(path, 22050, 3, [np.zeros(3)]),
}


class TestWriteWav:
    """``write_wav``, and the ``.part``-then-rename rule that every writer shares with it."""

    def test_write_wav_bytes_match_one_whole_array_conversion(self, tmp_path):
        # three chunks, the last one sample long; values beyond [-1, 1] saturate
        rng = np.random.default_rng(5)
        samples = rng.uniform(-1.2, 1.2, 2 * DECODE_CHUNK + 1)
        chunks = np.split(samples, [DECODE_CHUNK, 2 * DECODE_CHUNK])
        write_wav(tmp_path / "x.wav", 32000, samples.size, chunks)
        pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
        assert (tmp_path / "x.wav").read_bytes() == wav_bytes(pcm, rate=32000)

    def test_chunking_changes_no_byte(self, tmp_path):
        samples = np.random.default_rng(6).uniform(-1.0, 1.0, 1000)
        write_wav(tmp_path / "one.wav", 22050, 1000, [samples])
        write_wav(tmp_path / "many.wav", 22050, 1000, np.split(samples, [1, 2, 500, 999]))
        assert (tmp_path / "one.wav").read_bytes() == (tmp_path / "many.wav").read_bytes()

    @pytest.mark.parametrize("name", FAILED_WRITES)
    def test_failure_leaves_no_file(self, tmp_path, name):
        # neither the file nor its .part file, e.g. a WAV whose header claims all 131072 frames
        write, error, message = FAILED_WRITES[name]
        with pytest.raises(error, match=message):
            write(tmp_path / "x")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", FAILED_WRITES)
    def test_failure_keeps_an_older_file(self, tmp_path, name):
        path = tmp_path / "x"
        path.write_bytes(b"older bytes\n")
        write, error, message = FAILED_WRITES[name]
        with pytest.raises(error, match=message):
            write(path)
        assert path.read_bytes() == b"older bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("name", WRITES)
    def test_creates_a_missing_directory(self, tmp_path, name):
        path = tmp_path / "new" / "run" / "x"
        WRITES[name](path)
        assert list(path.parent.iterdir()) == [path]
        assert path.stat().st_size > 0

    def test_32_bit_riff_sizes_checked_before_the_file_opens(self, tmp_path):
        with pytest.raises(ValueError, match=f"holds 0 to {audio.MAX_WAV_FRAMES} frames, not {audio.MAX_WAV_FRAMES + 1}"):
            write_wav(tmp_path / "x.wav", 22050, audio.MAX_WAV_FRAMES + 1, _then_raise([]))
        assert list(tmp_path.iterdir()) == []
        assert 36 + 2 * audio.MAX_WAV_FRAMES <= 0xFFFFFFFF < 36 + 2 * (audio.MAX_WAV_FRAMES + 1)
        # the longest file passes the check, packs its header and only then reads a chunk
        with pytest.raises(_Unread):
            write_wav(tmp_path / "x.wav", 22050, audio.MAX_WAV_FRAMES, _then_raise([]))
        assert list(tmp_path.iterdir()) == []


def pcm24_bytes(pcm16: np.ndarray) -> bytes:
    """PCM16 samples shifted left 8 bits, as packed little-endian 3-byte PCM24."""
    return (pcm16.astype("<i4") << 8).view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


class TestPcm24:
    def test_sample_values(self, tmp_path):
        # full scale, the smallest steps and a sign in the top byte only
        raw = bytes.fromhex("000080" "ffff7f" "010000" "ffffff" "000001")
        path = tmp_path / "pcm24.wav"
        path.write_bytes(wav_bytes(raw, fmt=1, bits=24))
        assert read_wav_header(path).dtype == "<i3"
        want = np.array([-8388608, 8388607, 1, -1, 65536]) / 8388608.0
        assert load_wav(path).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rate", [CANONICAL_RATE, 44100])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    def test_shifted_pcm16_decodes_to_the_same_samples(self, tmp_path, rate, channels, extensible):
        n_frames = 3 * 1000 + 7
        pcm16 = np.random.default_rng(rate + channels).integers(-32768, 32768, n_frames * channels).astype("<i2")
        pcm16[:4] = [-32768, 32767, 0, -1]
        (tmp_path / "pcm16.wav").write_bytes(wav_bytes(pcm16.tobytes(), channels=channels, rate=rate))
        if extensible:
            blob = extensible_wav_bytes(pcm24_bytes(pcm16), channels=channels, rate=rate, bits=24)
        else:
            blob = wav_bytes(pcm24_bytes(pcm16), channels=channels, rate=rate, bits=24)
        (tmp_path / "pcm24.wav").write_bytes(blob)
        assert read_wav_header(tmp_path / "pcm24.wav").n_frames == n_frames
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(audio, "DECODE_CHUNK", 1000)  # decoded in four chunks
            for target in (None, CANONICAL_RATE, 44100):
                want = load_wav(tmp_path / "pcm16.wav", target).samples
                assert load_wav(tmp_path / "pcm24.wav", target).samples.tobytes() == want.tobytes()


def spectral_peak_hz(clip: AudioClip) -> float:
    spectrum = np.abs(np.fft.rfft(clip.samples))
    freqs = np.fft.rfftfreq(clip.samples.size, 1.0 / clip.sample_rate)
    return float(freqs[np.argmax(spectrum)])


class TestResample:
    def test_identity(self):
        clip = synth_click_track(120, 1, rate=22050)
        out = resample(clip, 22050)
        assert out.sample_rate == 22050
        assert np.array_equal(out.samples, clip.samples)

    def test_sine_peak_preserved(self):
        t = np.arange(44100) / 44100
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 44100)
        out = resample(clip, 22050)
        assert abs(spectral_peak_hz(out) - 440.0) <= 1.0

    def test_length_ratio(self):
        clip = AudioClip(np.random.default_rng(0).uniform(-1, 1, 44100), 44100)
        out = resample(clip, 22050)
        assert abs(out.samples.size - 22050) <= 1

    def test_round_trip_correlation(self):
        t = np.arange(22050) / 22050
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 100 * t), 22050)
        back = resample(resample(clip, 44100), 22050)
        n = min(back.samples.size, clip.samples.size)
        corr = np.corrcoef(back.samples[:n], clip.samples[:n])[0, 1]
        assert corr > 0.99

    def test_bad_rate(self):
        clip = synth_click_track(120, 1)
        with pytest.raises(ValueError):
            resample(clip, 0)
        with pytest.raises(ValueError, match="ratio rounds to 0"):
            resample(clip, 1)


SOURCE_RATES = [8000, 11025, 16000, 22050, 32000, 44100, 48000, 96000]


def reference_decode(data: np.ndarray, channels: int) -> np.ndarray:
    """The whole-array decode: PCM16 / 32768 or float32 clipped, then the stereo mean."""
    samples = data.astype(np.float64)
    if data.dtype == np.dtype("<i2"):
        samples /= 32768.0
    else:
        np.clip(samples, -1.0, 1.0, out=samples)
    return samples.reshape(-1, 2).mean(axis=1) if channels == 2 else samples


def reference_resample(samples: np.ndarray, rate: int) -> np.ndarray:
    if rate == CANONICAL_RATE:
        return samples
    ratio = Fraction(CANONICAL_RATE, rate).limit_denominator(1000)
    return np.clip(resample_poly(samples, ratio.numerator, ratio.denominator), -1.0, 1.0)


def random_data(n_frames, dtype, channels, seed) -> np.ndarray:
    """Interleaved PCM16 or float32 samples, float32 partly past full scale and partly -0.0."""
    rng = np.random.default_rng(seed)
    if dtype == "<i2":
        return rng.integers(-32768, 32768, n_frames * channels, dtype=np.int64).astype(dtype)
    data = rng.uniform(-1.25, 1.25, n_frames * channels).astype(dtype)
    data[rng.random(data.size) < 0.05] = -0.0
    return data


def check_chunked_kernel(rate, n_frames, dtype, channels, seed):
    """load_wav, load_wav at 22050 Hz and resample against the whole-array references."""
    data = random_data(n_frames, dtype, channels, seed)
    whole = reference_decode(data, channels)
    want = reference_resample(whole, rate)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.wav"
        tag, bits = (1, 16) if dtype == "<i2" else (3, 32)
        path.write_bytes(wav_bytes(data.tobytes(), channels=channels, rate=rate, fmt=tag, bits=bits))
        native = load_wav(path)
        streamed = load_wav(path, CANONICAL_RATE)
    assert native.sample_rate == rate
    assert native.samples.tobytes() == whole.tobytes()
    assert streamed.sample_rate == CANONICAL_RATE
    assert streamed.samples.tobytes() == want.tobytes()
    assert resample(native, CANONICAL_RATE).samples.tobytes() == want.tobytes()


class TestChunkedKernelMatchesResamplePoly:
    """Chunked decode and resample equal one whole-array resample_poly, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        rate=st.sampled_from(SOURCE_RATES),
        chunk=st.sampled_from([1, 2, 3, 5, 64]),
        chunks=st.integers(1, 60),
        edge=st.integers(-1, 1),
        dtype=st.sampled_from(["<i2", "<f4"]),
        channels=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_chunks(self, rate, chunk, chunks, edge, dtype, channels, seed):
        # lengths on both sides of a chunk edge, with the chunk patched down
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(audio, "DECODE_CHUNK", chunk)
            check_chunked_kernel(rate, max(1, chunks * chunk + edge), dtype, channels, seed)

    @pytest.mark.parametrize("rate", [8000, 44100, 48000, 96000])
    @pytest.mark.parametrize("n_frames", [DECODE_CHUNK - 1, DECODE_CHUNK, DECODE_CHUNK + 1, 2 * DECODE_CHUNK + 1])
    def test_module_chunk(self, rate, n_frames):
        check_chunked_kernel(rate, n_frames, "<i2", 2, seed=rate + n_frames)

    @settings(max_examples=80, deadline=None)
    @given(
        rate=st.sampled_from([8000, 22050, 44100, 48000, 96000]),
        chunk=st.sampled_from([1, 7, 64, 1000]),
        n_frames=st.integers(1, 6000),
        dtype=st.sampled_from(["<i2", "<f4"]),
        channels=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        spans=st.data(),
    )
    def test_any_span(self, rate, chunk, n_frames, dtype, channels, seed, spans):
        # stream_wav(header, 22050).read(lo, hi) is the whole-array resample_poly's [lo:hi],
        # for spans read in any order, each crossing several upfirdn pieces of the patched chunk
        data = random_data(n_frames, dtype, channels, seed)
        want = reference_resample(reference_decode(data, channels), rate)
        tag, bits = (1, 16) if dtype == "<i2" else (3, 32)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(audio, "DECODE_CHUNK", chunk)
            path = Path(tmp) / "clip.wav"
            path.write_bytes(wav_bytes(data.tobytes(), channels=channels, rate=rate, fmt=tag, bits=bits))
            stream = stream_wav(read_wav_header(path), CANONICAL_RATE)
            assert stream.n_samples == want.size
            for _ in range(3):
                lo = spans.draw(st.integers(0, want.size - 1), label="lo")
                hi = spans.draw(st.integers(lo + 1, want.size), label="hi")
                assert stream.read(lo, hi).tobytes() == want[lo:hi].tobytes()


class TestStft:
    def test_zero_clip(self):
        series = stft(AudioClip(np.zeros(8192) + 0.0, 22050))
        for name in ("energy", "band_energy", "flux", "log_flux", "centroid", "rolloff"):
            assert np.all(getattr(series, name) == 0.0), name

    def test_sine_peak_bin(self):
        # a pure tone's energy sits in the bins around it: centroid and
        # rolloff within one bin of 440 Hz
        t = np.arange(22050) / 22050
        series = stft(AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 22050))
        assert np.all(np.abs(series.centroid - 440.0) <= 22050 / 2048)
        assert np.all(np.abs(series.rolloff - 440.0) <= 22050 / 2048)

    def test_frame_count_formula(self):
        series = stft(AudioClip(np.ones(22050) * 0.1, 22050))
        assert series.n_frames == 40  # 1 + (22050 - 2048) // 512
        assert series.flux.size == series.log_flux.size == 39

    def test_preconditions(self):
        # one frame needs STFT_WINDOW samples; a hop more gives the second
        for n, frames in ((STFT_WINDOW, 1), (STFT_WINDOW + STFT_HOP - 1, 1), (STFT_WINDOW + STFT_HOP, 2)):
            assert stft(AudioClip(np.ones(n) * 0.1, 22050)).n_frames == frames
        for n in (1000, STFT_WINDOW - 1):
            with pytest.raises(ValueError, match=f"^the STFT needs at least {STFT_WINDOW} samples, got {n}$"):
                stft(AudioClip(np.ones(n) * 0.1, 22050))

    def test_parseval_energy(self, noise_clip):
        series = stft(noise_clip)
        # full-spectrum energy from the rfft half (even window length); the
        # DC and Nyquist bins, 2 of 1025, are counted twice, well inside 1 %
        spectral = 2 * series.energy / STFT_WINDOW
        hann = np.hanning(STFT_WINDOW)
        frames = np.lib.stride_tricks.sliding_window_view(noise_clip.samples, STFT_WINDOW)[::STFT_HOP]
        frames = frames[: series.n_frames]
        direct = ((frames * hann) ** 2).sum(axis=1)
        assert abs(spectral.sum() / direct.sum() - 1.0) < 0.01


class TestSynthClickTrack:
    def test_click_count_and_spacing(self):
        clip = synth_click_track(120, 10)
        onsets = np.flatnonzero(np.diff((clip.samples > 0).astype(int)) == 1) + 1
        if clip.samples[0] > 0:
            onsets = np.r_[0, onsets]
        assert onsets.size == 20
        assert np.allclose(np.diff(onsets), 0.5 * 22050, atol=1)

    def test_60bpm_spacing(self):
        clip = synth_click_track(60, 5)
        onsets = np.flatnonzero(np.diff((clip.samples > 0).astype(int)) == 1) + 1
        if clip.samples[0] > 0:
            onsets = np.r_[0, onsets]
        assert np.all(np.diff(onsets) == 22050)

    def test_binary_values(self):
        clip = synth_click_track(97, 3)
        assert set(np.unique(clip.samples)) <= {0.0, 1.0}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            synth_click_track(10, 5)
        with pytest.raises(ValueError):
            synth_click_track(120, 0)
