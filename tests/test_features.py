import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.signal import butter, sosfilt

from conftest import frame_series, synth_noise, synth_sine
from edm_atlas.audio import N_MEL_BANDS, AudioClip, stft
from edm_atlas.features import (
    LOG_FLOOR,
    _dct_ii_ortho,
    band_beat_emphasis,
    chroma_features,
    danceability_dfa,
    dfa_exponent,
    fundamental_feature_vector,
    mfcc_features,
    spectral_stats,
    tempo_estimates,
)
from edm_atlas.fixtures import synth_click_track
from edm_atlas.tempogram import MIN_DURATION_S, analyze_track


def feature_dict(vec):
    return dict(zip(vec.names, vec.values))


class TestSpectralStats:
    def test_delta_spectrum(self):
        # all energy in the single 440 Hz bin, every frame
        mags = np.zeros((10, 5))
        mags[:, 2] = 3.0
        series = frame_series(mags, 43.0, np.array([0.0, 220.0, 440.0, 660.0, 880.0]))
        values = feature_dict(spectral_stats(series))
        assert values["spectral_centroid_mean"] == 440.0
        assert values["spectral_spread_mean"] == 0.0
        assert values["spectral_flux_mean"] == 0.0

    def test_uniform_spectrum_max_entropy(self):
        n_bins = 16
        series = frame_series(np.ones((4, n_bins)), 43.0, np.arange(n_bins) * 100.0 + 50)
        values = feature_dict(spectral_stats(series))
        assert values["spectral_entropy_mean"] == pytest.approx(np.log(n_bins))

    def test_rolloff_against_direct_summation(self, noise_clip):
        values = feature_dict(spectral_stats(stft(noise_clip)))
        # oracle: per frame, cumulative energy share below the reported mean
        # rolloff should straddle the 85% point
        frames = np.lib.stride_tricks.sliding_window_view(noise_clip.samples, 2048)[::512]
        energy = np.abs(np.fft.rfft(frames * np.hanning(2048), axis=1)) ** 2
        bin_freqs = np.fft.rfftfreq(2048, 1.0 / noise_clip.sample_rate)
        shares = []
        for frame in energy:
            idx = np.searchsorted(bin_freqs, values["spectral_rolloff_mean"], side="right")
            shares.append(frame[:idx].sum() / frame.sum())
        assert abs(np.mean(shares) - 0.85) < 0.03

    def test_silent_frames_contribute_zeros(self):
        mags = np.zeros((6, 4))
        mags[3:] = 1.0
        series = frame_series(mags, 43.0, np.arange(4) * 100.0 + 50)
        values = feature_dict(spectral_stats(series))
        # three silent frames pull the centroid mean below the live-frame value
        live_centroid = (np.arange(4) * 100.0 + 50).mean()
        assert values["spectral_centroid_mean"] == pytest.approx(live_centroid / 2)

    def test_needs_two_frames(self):
        series = frame_series(np.ones((1, 4)), 43.0, np.arange(4) + 1.0)
        with pytest.raises(ValueError):
            spectral_stats(series)


# Values a row of log mel energies can hold, or that sit at the edges of
# the port's arithmetic: the floor's log, signed zeros, and magnitudes from
# 1e-12 to 1e4.
SPECIAL_VALUES = [np.log(LOG_FLOOR), 0.0, -0.0, 1e-12, -1e-12, 1e4, -1e4]


@st.composite
def dct_rows(draw):
    """1 to 300 rows of N_MEL_BANDS values: random rows at one magnitude each, constant rows, special values."""
    n_rows = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n_rows, N_MEL_BANDS)) * 10.0 ** rng.uniform(-12.0, 4.0, (n_rows, 1))
    kinds = rng.integers(0, 4, n_rows)
    x[kinds == 1] = x[kinds == 1, :1]  # constant rows
    x[kinds == 2] = np.log(LOG_FLOOR)  # every band at the floor
    x[kinds == 3] = np.copysign(0.0, x[kinds == 3])  # signed zeros
    for value in draw(st.lists(st.sampled_from(SPECIAL_VALUES), max_size=20)):
        x[rng.integers(n_rows), rng.integers(N_MEL_BANDS)] = value
    return x


class TestDctMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(dct_rows())
    def test_bit_for_bit(self, x):
        got = _dct_ii_ortho(x)
        want = dct(x, type=2, norm="ortho", axis=1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestMfcc:
    def test_constant_spectrum_zero_deltas(self):
        series = frame_series(np.full((8, 64), 2.0), 43.0, np.linspace(10, 11000, 64))
        values = feature_dict(mfcc_features(series))
        deltas = [v for n, v in values.items() if n.startswith("mfcc_delta") and n.endswith("mean")]
        assert np.allclose(deltas, 0.0)

    def test_zero_clip_floor(self):
        series = stft(AudioClip(np.zeros(22050) + 0.0, 22050))
        values = feature_dict(mfcc_features(series))
        # DCT of the constant log-floor: big negative 0th coefficient, rest 0
        assert values["mfcc_00_mean"] == pytest.approx(np.sqrt(40) * np.log(1e-10))
        assert values["mfcc_01_mean"] == pytest.approx(0.0, abs=1e-9)
        deltas = [v for n, v in values.items() if "delta" in n]
        assert np.allclose(deltas, 0.0)

    def test_sine_vs_noise_distinct(self):
        sine_vals = mfcc_features(stft(synth_sine(440, 5)))
        noise_vals = mfcc_features(stft(synth_noise(5, seed=0)))
        sine_means = sine_vals.values[:13]
        noise_means = noise_vals.values[:13]
        assert np.linalg.norm(sine_means - noise_means) > 0

    def test_dims(self):
        vec = mfcc_features(stft(synth_sine(440, 3)))
        assert len(vec) == 52


class TestChroma:
    def test_440_dominates_class_a(self):
        values = feature_dict(chroma_features(stft(synth_sine(440, 5))))
        means = {n: v for n, v in values.items() if n.endswith("_mean") and "entropy" not in n}
        assert max(means, key=means.get) == "chroma_a_mean"

    def test_silence_uniform(self):
        values = feature_dict(chroma_features(stft(AudioClip(np.zeros(22050), 22050))))
        for note in ("c", "e", "a"):
            assert values[f"chroma_{note}_mean"] == pytest.approx(1 / 12)

    def test_octave_equivalence(self):
        mix = AudioClip(
            0.4 * (synth_sine(440, 5).samples + synth_sine(880, 5).samples), 22050
        )
        values = feature_dict(chroma_features(stft(mix)))
        means = {n: v for n, v in values.items() if n.endswith("_mean") and "entropy" not in n}
        assert max(means, key=means.get) == "chroma_a_mean"

    def test_means_sum_to_one(self, noise_clip):
        vec = chroma_features(stft(noise_clip))
        means = vec.values[:12]
        assert means.sum() == pytest.approx(1.0)

    def test_dims(self):
        assert len(chroma_features(stft(synth_sine(440, 3)))) == 26


class TestTempoEstimates:
    def test_click_128(self):
        values = feature_dict(tempo_estimates(analyze_track(synth_click_track(128, 10))))
        for name in ("tempo_fourier_bpm", "tempo_autocorr_bpm", "tempo_geomean_bpm"):
            assert abs(values[name] - 128.0) <= 1.0

    def test_click_60_harmonic_lock(self):
        values = feature_dict(tempo_estimates(analyze_track(synth_click_track(60, 10))))
        fourier = values["tempo_fourier_bpm"]
        assert abs(fourier - 60) <= 1 or abs(fourier - 120) <= 1

    def test_silence_sentinel(self):
        vec = tempo_estimates(analyze_track(AudioClip(np.zeros(22050 * 10), 22050)))
        assert np.all(vec.values == 0.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            tempo_estimates(analyze_track(synth_click_track(120, 2)))


def dfa_oracle(series, sizes):
    """Plain-loop DFA-1 used to cross-check the vectorized implementation."""
    x = np.asarray(series, dtype=np.float64)
    profile = np.cumsum(x - x.mean())
    log_s, log_f = [], []
    for s in sizes:
        k = profile.size // s
        if k < 2:
            continue
        residuals = []
        for w in range(k):
            seg = profile[w * s : (w + 1) * s]
            t = np.arange(s)
            a, b = np.polyfit(t, seg, 1)
            residuals.append(np.mean((seg - (a * t + b)) ** 2))
        f2 = np.mean(residuals)
        if f2 > 0:
            log_s.append(np.log(s))
            log_f.append(0.5 * np.log(f2))
    return float(np.polyfit(log_s, log_f, 1)[0])


class TestDanceabilityDfa:
    def test_white_noise_alpha_half(self):
        rng = np.random.default_rng(123)
        envelope = np.abs(rng.normal(0, 1, 4000))
        alpha = dfa_exponent(envelope, 43.0)
        assert abs(alpha - 0.5) <= 0.1

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        envelope = np.abs(rng.normal(0, 1, 2000))
        fast = dfa_exponent(envelope, 43.0)
        sizes = np.unique(np.geomspace(4, min(int(5 * 43.0), 1000), 12).round().astype(int))
        slow = dfa_oracle(envelope, sizes)
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_periodic_below_white(self):
        clip = synth_click_track(120, 20)
        from edm_atlas.tempogram import novelty_curve

        nov = novelty_curve(stft(clip))
        alpha_click = dfa_exponent(nov.values, nov.frame_rate)
        rng = np.random.default_rng(5)
        alpha_white = dfa_exponent(np.abs(rng.normal(0, 1, nov.values.size)), nov.frame_rate)
        assert alpha_click < alpha_white

    def test_constant_envelope_sentinel(self):
        assert dfa_exponent(np.full(1000, 3.0), 43.0) == 0.0

    def test_clip_wrapper(self):
        vec = danceability_dfa(analyze_track(synth_click_track(120, 12)))
        assert vec.names == ["danceability_dfa"]
        with pytest.raises(ValueError):
            danceability_dfa(analyze_track(synth_click_track(120, 5)))


class TestBandBeatEmphasis:
    def test_click_all_bands_above_one(self, click_120):
        vec = band_beat_emphasis(analyze_track(synth_click_track(120, 12)).series)
        assert np.all(vec.values > 1.0)

    def test_steady_sine_sentinel(self):
        vec = band_beat_emphasis(analyze_track(synth_sine(100, 12)).series)
        assert np.allclose(vec.values, 0.0)

    def test_kick_low_band_dominates(self):
        clicks = synth_click_track(120, 12)
        sos = butter(8, 150, btype="low", fs=22050, output="sos")
        kick = AudioClip(np.clip(sosfilt(sos, clicks.samples), -1, 1), 22050)
        values = band_beat_emphasis(analyze_track(kick).series).values
        assert values[0] >= values[5]

    def test_dims_and_duration(self):
        assert len(band_beat_emphasis(analyze_track(synth_click_track(120, 10)).series)) == 6
        with pytest.raises(ValueError):
            band_beat_emphasis(analyze_track(synth_click_track(120, 2)).series)


class TestFundamentalVector:
    def test_92_dims_unique_finite(self, click_128_long):
        vec = fundamental_feature_vector(analyze_track(click_128_long))
        assert len(vec) == 92
        assert len(set(vec.names)) == 92
        assert np.all(np.isfinite(vec.values))

    def test_deterministic(self, click_128_long):
        a = fundamental_feature_vector(analyze_track(click_128_long))
        b = fundamental_feature_vector(analyze_track(click_128_long))
        assert np.array_equal(a.values, b.values)

    def test_louder_copy_same_tempo(self):
        quiet = synth_click_track(128, 12, amplitude=0.4)
        loud = synth_click_track(128, 12, amplitude=0.8)  # +6 dB
        va = feature_dict(fundamental_feature_vector(analyze_track(quiet)))
        vb = feature_dict(fundamental_feature_vector(analyze_track(loud)))
        for name in ("tempo_fourier_bpm", "tempo_autocorr_bpm", "tempo_geomean_bpm"):
            assert va[name] == vb[name]

    def test_amplitude_invariants(self):
        base = synth_noise(12, amplitude=0.3, seed=2)
        scaled = AudioClip(2.0 * base.samples, 22050)
        va = feature_dict(fundamental_feature_vector(analyze_track(base)))
        vb = feature_dict(fundamental_feature_vector(analyze_track(scaled)))
        for name in (
            "spectral_centroid_mean",
            "spectral_spread_mean",
            "spectral_entropy_mean",
            "spectral_rolloff_mean",
            "chroma_a_mean",
        ):
            assert va[name] == pytest.approx(vb[name], rel=1e-9)
        # flux and MFCC0 scale with amplitude
        assert vb["spectral_flux_mean"] > va["spectral_flux_mean"]
        assert vb["mfcc_00_mean"] != va["mfcc_00_mean"]

    def test_schema_fixed_across_inputs(self, click_128_long, noise_clip):
        a = fundamental_feature_vector(analyze_track(click_128_long))
        b = fundamental_feature_vector(analyze_track(noise_clip))
        assert a.names == b.names
        assert a.groups == b.groups

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fundamental_feature_vector(analyze_track(synth_click_track(120, 5)))
        clip_44k = AudioClip(np.random.default_rng(0).uniform(-1, 1, 44100 * 11), 44100)
        with pytest.raises(ValueError, match="canonical"):
            fundamental_feature_vector(analyze_track(clip_44k))


@pytest.mark.parametrize(
    "fn",
    [
        lambda clip: tempo_estimates(analyze_track(clip)),
        lambda clip: band_beat_emphasis(analyze_track(clip).series),
    ],
    ids=["tempo_estimates", "band_beat_emphasis"],
)
def test_beat_minimum_named_in_message(fn):
    clip = synth_click_track(120, MIN_DURATION_S - 1.0)
    with pytest.raises(ValueError, match=f"at least {MIN_DURATION_S:g} s of audio"):
        fn(clip)
