import numpy as np
import pytest

from conftest import count_calls, frame_series
from edm_atlas import audio
from edm_atlas.audio import AudioClip, SampleStream, stft
from edm_atlas.fixtures import synth_click_track
from edm_atlas.tempogram import (
    SCALE_AXIS,
    TEMPO_AXIS,
    TEMPOGRAM_KINDS,
    NoveltyCurve,
    Tempogram,
    _fold_weights,
    analyze_track,
    autocorr_tempogram,
    cyclic_tempogram,
    fourier_tempogram,
    novelty_curve,
    tempogram_feature_vector,
    tempogram_summary,
)


def time_avg_argmax_bpm(tg) -> float:
    return float(tg.axis[np.argmax(tg.magnitudes.mean(axis=0))])


def local_peaks(profile):
    return [
        i
        for i in range(1, len(profile) - 1)
        if profile[i] >= profile[i - 1] and profile[i] >= profile[i + 1] and profile[i] > 0
    ]


class TestNoveltyCurve:
    def test_constant_spectrum_is_silent(self):
        series = frame_series(np.full((50, 8), 3.0), 43.0, np.arange(8) * 100.0 + 100)
        assert np.all(novelty_curve(series).values == 0.0)

    def test_click_peak_spacing(self, click_120):
        nov = novelty_curve(stft(click_120))
        peaks = np.array(local_peaks(nov.values))
        # clicks straddling a frame boundary split their energy; a low
        # threshold still isolates one peak per click
        strong = peaks[nov.values[peaks] > 0.2 * nov.values.max()]
        spacing = np.diff(strong) / nov.frame_rate
        assert np.all(np.abs(spacing - 0.5) <= 1.5 / nov.frame_rate)

    def test_amplitude_doubling_keeps_peak_positions(self, click_120):
        half = AudioClip(0.5 * click_120.samples, click_120.sample_rate)
        nov_a = novelty_curve(stft(half))
        nov_b = novelty_curve(stft(click_120))
        peaks_a = {i for i in local_peaks(nov_a.values) if nov_a.values[i] > 0.3 * nov_a.values.max()}
        peaks_b = {i for i in local_peaks(nov_b.values) if nov_b.values[i] > 0.3 * nov_b.values.max()}
        assert peaks_a == peaks_b

    def test_needs_two_frames(self):
        series = frame_series(np.ones((1, 4)), 43.0, np.arange(4) + 1.0)
        with pytest.raises(ValueError):
            novelty_curve(series)

    def test_band_out_of_range(self, click_120):
        series = stft(click_120)
        assert novelty_curve(series, 5).values.size == series.n_frames - 1
        for band in (-1, 6):
            with pytest.raises(ValueError, match=r"band must be in \[0, 6\)"):
                novelty_curve(series, band)


class TestFourierTempogram:
    def test_click_argmax(self, click_120):
        tg = fourier_tempogram(novelty_curve(stft(click_120)))
        assert abs(time_avg_argmax_bpm(tg) - 120.0) <= 1.0

    def test_tempo_harmonic_magnitude(self, click_60):
        tg = fourier_tempogram(novelty_curve(stft(click_60)))
        profile = tg.magnitudes.mean(axis=0)
        at = lambda bpm: profile[int(bpm - tg.axis[0])]
        assert at(120) >= 0.5 * at(60)

    def test_zero_novelty(self):
        nov = NoveltyCurve(np.zeros(500), 43.0)
        assert np.all(fourier_tempogram(nov).magnitudes == 0.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="window"):
            fourier_tempogram(NoveltyCurve(np.ones(100), 43.0))


class TestAutocorrTempogram:
    def test_click_peak_and_subharmonic(self, click_120):
        tg = autocorr_tempogram(novelty_curve(stft(click_120)))
        profile = tg.magnitudes.mean(axis=0)
        peak_bpms = tg.axis[local_peaks(profile)]
        assert np.any(np.abs(peak_bpms - 120.0) <= 2.0)
        assert np.any(np.abs(peak_bpms - 60.0) <= 2.0)

    def test_zero_novelty(self):
        nov = NoveltyCurve(np.zeros(500), 43.0)
        assert np.all(autocorr_tempogram(nov).magnitudes == 0.0)

    def test_periodic_novelty_peak_at_period(self):
        # impulses every 20 frames at 40 frames/s -> 0.5 s -> 120 BPM
        frame_rate, period = 40.0, 20
        values = np.zeros(600)
        values[::period] = 1.0
        tg = autocorr_tempogram(NoveltyCurve(values, frame_rate))
        profile = tg.magnitudes.mean(axis=0)
        expected_bpm = 60.0 * frame_rate / period
        assert abs(tg.axis[np.argmax(profile)] - expected_bpm) <= 2.0
        # direct autocorrelation oracle on one window: peak at lag == period
        win = int(8 * frame_rate)
        seg = values[:win] * np.hanning(win)
        acf = np.array([np.dot(seg[: win - lag], seg[lag:]) for lag in range(win)])
        interior = acf[period // 2 : 3 * period // 2 + 1]
        assert np.argmax(interior) + period // 2 == period


class TestCyclicTempogram:
    def test_octave_invariance_60_vs_120(self, click_60, click_120):
        bins = []
        for clip in (click_60, click_120):
            tg = fourier_tempogram(novelty_curve(stft(clip)))
            cyc = cyclic_tempogram(tg)
            bins.append(int(np.argmax(cyc.magnitudes.mean(axis=0))))
        assert abs(bins[0] - bins[1]) <= 1

    def test_single_bin_at_ref_tempo(self):
        mags = np.zeros((10, 451))
        mags[:, 30] = 1.0  # tempo axis starts at 30 BPM -> index 30 is 60 BPM
        tg = Tempogram(mags, "fourier")
        cyc = cyclic_tempogram(tg)
        assert np.argmax(cyc.magnitudes.mean(axis=0)) == 0  # scale s = 1

    def test_uniform_tempogram_near_uniform(self):
        tg = Tempogram(np.ones((5, 451)), "fourier")
        cyc = cyclic_tempogram(tg)
        profile = cyc.magnitudes.mean(axis=0)
        # every scale bin sums 4 octaves of mass; s = 1 also catches 480
        assert profile.min() >= 4.0 - 1e-9
        assert profile.max() <= 5.0 + 1e-9

    def test_linearity(self, click_120):
        tg = fourier_tempogram(novelty_curve(stft(click_120)))
        doubled = Tempogram(2.0 * tg.magnitudes, tg.kind)
        a = cyclic_tempogram(tg).magnitudes
        b = cyclic_tempogram(doubled).magnitudes
        assert np.allclose(b, 2.0 * a, rtol=1e-12)


class TestTempogramType:
    def test_axis_by_kind(self, click_120):
        tg = fourier_tempogram(novelty_curve(stft(click_120)))
        cyc = cyclic_tempogram(tg)
        assert tg.axis is TEMPO_AXIS and cyc.axis is SCALE_AXIS
        assert cyc.kind == "cyclic_fourier"
        for kind, axis in zip(TEMPOGRAM_KINDS, (TEMPO_AXIS, TEMPO_AXIS, SCALE_AXIS, SCALE_AXIS)):
            assert Tempogram(np.zeros((2, axis.size)), kind).axis is axis

    def test_shared_axes_and_weights_are_read_only(self):
        for shared in (TEMPO_AXIS, SCALE_AXIS, _fold_weights()):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0
        assert _fold_weights() is _fold_weights()

    @pytest.mark.parametrize(
        "mags, kind, message",
        [
            (np.zeros((2, 451)), "cyclic", "kind must be one of fourier, autocorr, cyclic_fourier, cyclic_autocorr"),
            (np.zeros((2, 15)), "fourier", "fourier tempogram magnitudes must be frames x 451 bins"),
            (np.zeros(451), "autocorr", "autocorr tempogram magnitudes must be frames x 451 bins"),
            (-np.ones((2, 15)), "cyclic_fourier", "finite and nonnegative"),
            (np.full((2, 451), np.nan), "fourier", "finite and nonnegative"),
        ],
        ids=["unknown_kind", "wrong_width", "one_dimensional", "negative", "nan"],
    )
    def test_rejected(self, mags, kind, message):
        with pytest.raises(ValueError, match=message):
            Tempogram(mags, kind)


class TestTempogramSummary:
    def test_click_rank1(self, click_120):
        tg = fourier_tempogram(novelty_curve(stft(click_120)))
        vec = tempogram_summary(tg)
        values = dict(zip(vec.names, vec.values))
        assert abs(values["tg_fourier_r1_bpm"] - 120.0) <= 1.0
        assert values["tg_fourier_r1_rel_strength"] == 1.0

    def test_zero_tempogram(self):
        tg = Tempogram(np.zeros((5, 451)), "fourier")
        vec = tempogram_summary(tg)
        assert np.all(vec.values == 0.0)

    def test_stationary_zero_std(self):
        rng = np.random.default_rng(0)
        row = rng.uniform(0, 1, 451)
        tg = Tempogram(np.tile(row, (6, 1)), "fourier")
        vec = tempogram_summary(tg)
        stds = [v for n, v in zip(vec.names, vec.values) if n.endswith("mag_std")]
        assert np.all(np.array(stds) <= 1e-12)

    def test_rank_monotonicity(self, noise_clip):
        tg = fourier_tempogram(novelty_curve(stft(noise_clip)))
        vec = tempogram_summary(tg)
        means = [v for n, v in zip(vec.names, vec.values) if n.endswith("mag_mean")]
        assert all(means[i] >= means[i + 1] for i in range(len(means) - 1))


def unread(lo, hi):
    raise AssertionError(f"samples {lo}:{hi} read")


class TestAnalyzeTrack:
    @pytest.mark.parametrize(
        "clip, message",
        [
            (AudioClip(np.zeros(44100 * 11), 44100), "canonical 22050 Hz"),
            (AudioClip(np.zeros(int(22050 * 9.9)), 22050), "at least 10 s of audio"),
            # a stream is checked from its rate and length, before a sample is read
            (SampleStream(unread, 44100 * 11, 44100), "canonical 22050 Hz"),
            (SampleStream(unread, int(22050 * 9.9), 22050), "at least 10 s of audio"),
        ],
        ids=["44100_hz", "9.9_s", "stream_44100_hz", "stream_9.9_s"],
    )
    def test_rejected_before_stft(self, monkeypatch, clip, message):
        stft_calls = count_calls(monkeypatch, audio, "stft")
        with pytest.raises(ValueError, match=message):
            analyze_track(clip)
        assert stft_calls == []


class TestTempogramFeatureVector:
    def test_64_dims(self, click_128_long):
        vec = tempogram_feature_vector(analyze_track(click_128_long))
        assert len(vec) == 64
        assert len(set(vec.names)) == 64
        assert np.all(np.isfinite(vec.values))
        assert set(vec.groups) == {"tempogram"}

    def test_fourier_autocorr_octave_relation(self, click_128_long):
        vec = tempogram_feature_vector(analyze_track(click_128_long))
        values = dict(zip(vec.names, vec.values))
        ratio = values["tg_fourier_r1_bpm"] / values["tg_autocorr_r1_bpm"]
        assert min(abs(ratio - r) for r in (0.5, 1.0, 2.0)) < 0.05

    def test_deterministic(self, click_128_long):
        a = tempogram_feature_vector(analyze_track(click_128_long))
        b = tempogram_feature_vector(analyze_track(click_128_long))
        assert np.array_equal(a.values, b.values)

    def test_min_duration(self):
        with pytest.raises(ValueError):
            tempogram_feature_vector(analyze_track(synth_click_track(120, 5)))

    def test_nonnegative_cells(self, noise_clip):
        nov = novelty_curve(stft(noise_clip))
        for tg in (fourier_tempogram(nov), autocorr_tempogram(nov)):
            assert np.all(tg.magnitudes >= 0)
            assert np.all(np.isfinite(tg.magnitudes))
            cyc = cyclic_tempogram(tg)
            assert np.all(cyc.magnitudes >= 0)
