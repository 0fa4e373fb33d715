import struct

import numpy as np
import pytest

from edm_atlas.audio import (
    AudioClip,
    MalformedWavError,
    UnsupportedWavError,
    load_wav,
    resample,
    save_wav,
    stft,
    synth_click_track,
)


def wav_bytes(frames: bytes, channels=1, rate=44100, fmt=1, bits=16) -> bytes:
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(frames), b"WAVE", b"fmt ", 16,
        fmt, channels, rate, rate * channels * bits // 8,
        channels * bits // 8, bits, b"data", len(frames),
    )
    return header + frames


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
        save_wav(synth_click_track(120, 1), path)
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

    def test_roundtrip(self, tmp_path):
        clip = synth_click_track(97, 2)
        save_wav(clip, tmp_path / "rt.wav")
        back = load_wav(tmp_path / "rt.wav")
        assert back.sample_rate == clip.sample_rate
        # 16-bit quantization: one write/read step is at most 1.5/32768
        assert np.max(np.abs(back.samples - clip.samples)) <= 1.5 / 32768


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


class TestStft:
    def test_zero_clip(self):
        spec = stft(AudioClip(np.zeros(8192) + 0.0, 22050))
        assert np.all(spec.magnitudes == 0.0)

    def test_sine_peak_bin(self):
        t = np.arange(22050) / 22050
        spec = stft(AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 22050))
        peak_freqs = spec.bin_freqs[np.argmax(spec.magnitudes, axis=1)]
        assert np.all(np.abs(peak_freqs - 440.0) <= 22050 / 2048)

    def test_frame_count_formula(self):
        spec = stft(AudioClip(np.ones(22050) * 0.1, 22050), window_len=2048, hop=512)
        assert spec.n_frames == 40  # 1 + (22050 - 2048) // 512

    def test_preconditions(self):
        clip = AudioClip(np.ones(1000) * 0.1, 22050)
        with pytest.raises(ValueError):
            stft(clip, window_len=2048, hop=512)
        with pytest.raises(ValueError):
            stft(clip, window_len=512, hop=0)
        with pytest.raises(ValueError):
            stft(clip, window_len=256, hop=512)

    def test_parseval_energy(self, noise_clip):
        window = 2048
        spec = stft(noise_clip, window_len=window, hop=512)
        mags = spec.magnitudes
        # full-spectrum energy from the rfft half (even window length)
        spectral = (mags[:, 0] ** 2 + mags[:, -1] ** 2 + 2 * (mags[:, 1:-1] ** 2).sum(axis=1)) / window
        hann = np.hanning(window)
        frames = np.lib.stride_tricks.sliding_window_view(noise_clip.samples, window)[::512]
        frames = frames[: spec.n_frames]
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
