"""The one-pass STFT series and the blocked layers after it, against whole-array code, bit for bit.

The ``ref_*`` functions below are the whole-spectrogram implementations
that the STFT pass replaced: each read a whole magnitude array (the
``Spectrogram`` below). Every feature layer that now reads the per-frame
series must reproduce them exactly at frame counts on both sides of each
block edge. The ``*_reference`` functions are the whole-track MFCC, chroma
and autocorrelation tempogram that read the series and the novelty curve
before those layers took them one block of rows at a time.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct

from conftest import frame_series, synth_noise
from edm_atlas.audio import (
    BAND_EDGES_HZ,
    CHROMA_MIN_FREQ,
    FRAME_BLOCK,
    LOG_COMPRESSION,
    N_MEL_BANDS,
    ROLLOFF_FRACTION,
    AudioClip,
    FrameSeries,
    mel_filterbank,
    stft,
)
from edm_atlas.features import (
    BAND_ENERGY_SHARE_FLOOR,
    BAND_NOVELTY_FLOOR,
    EMPHASIS_LAG_RANGE_S,
    LOG_FLOOR,
    N_MFCC,
    PITCH_CLASSES,
    band_beat_emphasis,
    chroma_features,
    mfcc_features,
    spectral_stats,
)
from edm_atlas.fixtures import synth_click_track
from edm_atlas.tempogram import (
    MIN_DURATION_S,
    TEMPO_AXIS,
    WINDOW_BLOCK,
    NoveltyCurve,
    Tempogram,
    _fourier_kernel,
    _frame_params,
    _segments,
    analyze_track,
    autocorr_tempogram,
    fourier_tempogram,
    local_mean_removed,
    novelty_curve,
)
from edm_atlas.types import row_blocks, stats_pair

RATE = 22050
WINDOW = 2048
HOP = 512

# at most one block, one block + 1, 2 x block -/+ 1, and counts that fixed
# FRAME_BLOCK-row blocks would end with a 1-row tail (2 and 3 x block + 1)
FRAME_COUNTS = [45, FRAME_BLOCK * 3 // 4, *(FRAME_BLOCK + d for d in (0, 1, 2))]
FRAME_COUNTS += [FRAME_BLOCK * 3 // 2 - 1, FRAME_BLOCK * 3 // 2, *(2 * FRAME_BLOCK + d for d in (-1, 0, 1, 2))]
FRAME_COUNTS += [3 * FRAME_BLOCK + 1, 3 * FRAME_BLOCK + 2]


@dataclass
class Spectrogram:
    """A whole magnitude STFT, frames x bins, with its physical axes."""

    magnitudes: np.ndarray
    frame_rate: float
    bin_freqs: np.ndarray

    @property
    def n_frames(self):
        return self.magnitudes.shape[0]


def series_of(spec):
    return frame_series(spec.magnitudes, spec.frame_rate, spec.bin_freqs)


def ref_stft(clip, window_len=WINDOW, hop=HOP):
    n = clip.samples.size
    n_frames = 1 + (n - window_len) // hop
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, window_len)[::hop]
    frames = frames[:n_frames]
    mags = np.abs(np.fft.rfft(frames * np.hanning(window_len), axis=1))
    freqs = np.fft.rfftfreq(window_len, 1.0 / clip.sample_rate)
    return Spectrogram(mags, clip.sample_rate / hop, freqs)


def ref_novelty(spec):
    compressed = np.log1p(LOG_COMPRESSION * spec.magnitudes)
    raw = np.clip(np.diff(compressed, axis=0), 0.0, None).sum(axis=1)
    kernel = np.ones(max(1, int(round(spec.frame_rate))))
    local_sum = np.convolve(raw, kernel, mode="same")
    counts = np.convolve(np.ones_like(raw), kernel, mode="same")
    return NoveltyCurve(np.clip(raw - local_sum / counts, 0.0, None), spec.frame_rate)


def ref_spectral_stats(spec):
    mags, freqs = spec.magnitudes, spec.bin_freqs
    totals = mags.sum(axis=1)
    live = totals > 0
    safe_tot = np.where(live, totals, 1.0)
    centroid = np.where(live, (mags * freqs).sum(axis=1) / safe_tot, 0.0)
    spread = np.where(
        live, np.sqrt((mags * (freqs - centroid[:, None]) ** 2).sum(axis=1) / safe_tot), 0.0
    )
    probs = mags / safe_tot[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    entropy = np.where(live, -plogp.sum(axis=1), 0.0)
    flux = np.linalg.norm(np.clip(np.diff(mags, axis=0), 0.0, None), axis=1)
    cum = np.cumsum(mags**2, axis=1)
    idx = np.argmax(cum >= (ROLLOFF_FRACTION * cum[:, -1])[:, None], axis=1)
    rolloff = np.where(cum[:, -1] > 0, freqs[idx], 0.0)
    values = []
    for series in (centroid, spread, entropy, flux, rolloff):
        values.extend(stats_pair(series))
    return np.array(values)


def ref_mfcc(spec):
    band_energy = spec.magnitudes**2 @ mel_filterbank(spec.bin_freqs).T
    coeffs = dct(np.log(np.maximum(band_energy, LOG_FLOOR)), type=2, norm="ortho", axis=1)[:, :N_MFCC]
    deltas = (coeffs[2:] - coeffs[:-2]) / 2.0
    return np.concatenate([stat for block in (coeffs, deltas) for stat in (block.mean(axis=0), block.std(axis=0))])


def ref_chroma(spec):
    usable = spec.bin_freqs >= CHROMA_MIN_FREQ
    freqs = spec.bin_freqs[usable]
    energy = spec.magnitudes[:, usable] ** 2
    pc = (np.round(12.0 * np.log2(freqs / 440.0)).astype(int) + 9) % 12
    chroma = np.zeros((spec.n_frames, 12))
    for c in range(12):
        sel = pc == c
        if np.any(sel):
            chroma[:, c] = energy[:, sel].sum(axis=1)
    totals = chroma.sum(axis=1, keepdims=True)
    chroma = np.where(totals > 0, chroma / np.where(totals > 0, totals, 1.0), 1.0 / 12.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(chroma > 0, chroma * np.log(chroma), 0.0)
    dominant = np.argmax(chroma, axis=1)
    tail = [(-plogp.sum(axis=1)).mean(), float(np.std(dominant.astype(np.float64)))]
    return np.concatenate([chroma.mean(axis=0), chroma.std(axis=0), tail])


def ref_band_mask(spec, lo):
    return (spec.bin_freqs >= lo) & (spec.bin_freqs < lo * 2.0)


def ref_band_emphasis(spec):
    values = []
    lag_lo = max(1, int(round(EMPHASIS_LAG_RANGE_S[0] * spec.frame_rate)))
    lag_hi = int(round(EMPHASIS_LAG_RANGE_S[1] * spec.frame_rate))
    total_energy = float((spec.magnitudes**2).sum(axis=1).mean())
    for lo in BAND_EDGES_HZ:
        envelope = np.sqrt((spec.magnitudes[:, ref_band_mask(spec, lo)] ** 2).sum(axis=1, keepdims=True))
        nov = ref_novelty(Spectrogram(envelope, spec.frame_rate, np.array([lo]))).values
        mean = nov.mean()
        empty_band = float((envelope**2).mean()) <= BAND_ENERGY_SHARE_FLOOR * total_energy
        steady = mean <= BAND_NOVELTY_FLOOR * float(np.log1p(LOG_COMPRESSION * envelope).mean())
        best = 0.0
        if not (empty_band or steady):
            scaled = nov / mean
            for lag in range(lag_lo, min(lag_hi, scaled.size - 1) + 1):
                best = max(best, float((scaled[:-lag] * scaled[lag:]).mean()))
        values.append(best)
    return np.array(values)


def mfcc_reference(series):
    log_energy = np.log(np.maximum(series.mel_energy, LOG_FLOOR))
    coeffs = dct(log_energy, type=2, norm="ortho", axis=1)[:, :N_MFCC]
    deltas = (coeffs[2:] - coeffs[:-2]) / 2.0
    return np.concatenate([stat for block in (coeffs, deltas) for stat in (block.mean(axis=0), block.std(axis=0))])


def chroma_reference(series):
    chroma = series.chroma_energy
    totals = chroma.sum(axis=1, keepdims=True)
    chroma = np.where(totals > 0, chroma / np.where(totals > 0, totals, 1.0), 1.0 / 12.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(chroma > 0, chroma * np.log(chroma), 0.0)
    frame_entropy = -plogp.sum(axis=1)
    dominant = np.argmax(chroma, axis=1)
    tail = [frame_entropy.mean(), float(np.std(dominant.astype(np.float64)))]
    return np.concatenate([chroma.mean(axis=0), chroma.std(axis=0), tail])


def autocorr_reference(nov):
    win, hop = _frame_params(nov)
    segs = _segments(nov.values, win, hop) * np.hanning(win)
    nfft = int(2 ** np.ceil(np.log2(2 * win)))
    spec_pow = np.abs(np.fft.rfft(segs, n=nfft, axis=1)) ** 2
    acf = np.fft.irfft(spec_pow, n=nfft, axis=1)[:, :win] / win
    zero_lag = acf[:, :1]
    with np.errstate(invalid="ignore", divide="ignore"):
        acf_norm = np.where(zero_lag > 0, acf / np.where(zero_lag > 0, zero_lag, 1.0), 0.0)
    acf_norm = np.clip(acf_norm, 0.0, None)
    lags_for_bpm = 60.0 * nov.frame_rate / TEMPO_AXIS
    lag_axis = np.arange(win, dtype=np.float64)
    mags = np.empty((acf_norm.shape[0], TEMPO_AXIS.size))
    for i, row in enumerate(acf_norm):
        mags[i] = np.interp(lags_for_bpm, lag_axis, row)
    return Tempogram(mags, "autocorr")


@st.composite
def spectrograms(draw):
    """Random magnitudes on the real bin axis, with silent frames and bins."""
    n_frames = draw(st.sampled_from(FRAME_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mags = rng.exponential(draw(st.sampled_from([1e-4, 1.0, 30.0])), (n_frames, WINDOW // 2 + 1))
    mags[rng.random(mags.shape) < 0.2] = 0.0
    mags[rng.random(n_frames) < 0.1] = 0.0
    return Spectrogram(mags, RATE / HOP, np.fft.rfftfreq(WINDOW, 1.0 / RATE))


def same_bytes(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def frame_blocks(n):
    """The STFT's own partition before ``types.row_blocks`` took its place: the reference at FRAME_BLOCK rows."""
    if n <= 0:
        return []
    n_blocks = max(1, (n + FRAME_BLOCK // 2) // FRAME_BLOCK)
    edges = [n * i // n_blocks for i in range(n_blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


class TestFrameBlocks:
    def test_cover_in_order_and_balanced(self):
        for n in range(0, 3000):
            blocks = row_blocks(n, FRAME_BLOCK)
            assert blocks == frame_blocks(n)
            sizes = {b - a for a, b in blocks}
            if n >= FRAME_BLOCK // 2:
                assert min(sizes) >= FRAME_BLOCK // 2
                assert max(sizes) < FRAME_BLOCK * 3 // 2

    def test_no_one_row_tail(self):
        assert [b - a for a, b in row_blocks(2 * FRAME_BLOCK + 1, FRAME_BLOCK)] == [FRAME_BLOCK, FRAME_BLOCK + 1]


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 5000), size=st.one_of(st.integers(1, 8), st.integers(1, 3000)))
    def test_partition(self, n, size):
        blocks = row_blocks(n, size)
        stops = [0] + [b for _, b in blocks]
        assert [a for a, _ in blocks] == stops[:-1]
        assert stops[-1] == n
        lengths = [b - a for a, b in blocks]
        assert max(lengths, default=0) - min(lengths, default=0) <= 1
        assert max(lengths, default=0) < 1.5 * size if size >= 3 else max(lengths, default=0) <= 3
        if n >= 2:
            assert min(lengths) >= 2
        if n >= max(size // 2, 1):
            assert min(lengths) >= size // 2


class TestBlockedLayersMatchWholeArray:
    @settings(max_examples=30, deadline=None)
    @given(n_frames=st.sampled_from(FRAME_COUNTS), extra=st.integers(0, HOP - 1), seed=st.integers(0, 2**32 - 1))
    def test_stft(self, n_frames, extra, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1.0, 1.0, WINDOW + (n_frames - 1) * HOP + extra)
        samples[rng.integers(0, samples.size // 2) :][: 3 * WINDOW] = 0.0  # silent stretch
        clip = AudioClip(samples, RATE)
        got, want = stft(clip), ref_stft(clip)
        assert got.n_frames == n_frames
        assert same_bytes(spectral_stats(got).values, ref_spectral_stats(want))
        assert same_bytes(mfcc_features(got).values, ref_mfcc(want))
        assert same_bytes(chroma_features(got).values, ref_chroma(want))
        assert same_bytes(novelty_curve(got).values, ref_novelty(want).values)
        assert same_bytes(band_beat_emphasis(got).values, ref_band_emphasis(want))
        whole = series_of(want)
        for name in vars(whole):
            assert same_bytes(getattr(got, name), getattr(whole, name)), name

    @settings(max_examples=30, deadline=None)
    @given(spec=spectrograms())
    def test_novelty(self, spec):
        series = series_of(spec)
        assert same_bytes(novelty_curve(series).values, ref_novelty(spec).values)
        # each band's curve, as band_beat_emphasis builds it from the band's envelope
        for band, lo in enumerate(BAND_EDGES_HZ):
            envelope = np.sqrt((spec.magnitudes[:, ref_band_mask(spec, lo)] ** 2).sum(axis=1, keepdims=True))
            want = ref_novelty(Spectrogram(envelope, spec.frame_rate, np.array([lo])))
            raw = np.clip(np.diff(np.log1p(LOG_COMPRESSION * np.sqrt(series.band_energy[:, band]))), 0.0, None)
            assert same_bytes(local_mean_removed(raw, series.frame_rate), want.values)

    @settings(max_examples=30, deadline=None)
    @given(spec=spectrograms())
    def test_spectral_stats(self, spec):
        assert same_bytes(spectral_stats(series_of(spec)).values, ref_spectral_stats(spec))

    @settings(max_examples=30, deadline=None)
    @given(spec=spectrograms())
    def test_mfcc(self, spec):
        assert same_bytes(mfcc_features(series_of(spec)).values, ref_mfcc(spec))

    def test_filter_bank_product_rows_at_every_block_height(self):
        # every height row_blocks(n, FRAME_BLOCK) can give when there is more than one block
        # (and down to half the target), at two row offsets, against one
        # whole-matrix product
        freqs = np.fft.rfftfreq(WINDOW, 1.0 / RATE)
        bank_t = mel_filterbank(freqs).T
        energy = np.random.default_rng(5).exponential(1.0, (2 * FRAME_BLOCK * 3, freqs.size)) ** 2
        whole = energy @ bank_t
        mismatched = [
            (height, start)
            for height in range(FRAME_BLOCK // 2, FRAME_BLOCK * 3 // 2)
            for start in (0, 301)
            if not same_bytes(energy[start : start + height] @ bank_t, whole[start : start + height])
        ]
        assert mismatched == []

    @settings(max_examples=30, deadline=None)
    @given(spec=spectrograms())
    def test_chroma(self, spec):
        vec = chroma_features(series_of(spec))
        assert len(vec) == 2 * len(PITCH_CLASSES) + 2
        assert same_bytes(vec.values, ref_chroma(spec))

    @settings(max_examples=20, deadline=None)
    @given(spec=spectrograms())
    def test_band_emphasis(self, spec):
        assert same_bytes(band_beat_emphasis(series_of(spec)).values, ref_band_emphasis(spec))


# around the first two FRAME_BLOCK edges of row_blocks: 1 -> 2 blocks at 1.5 x FRAME_BLOCK frames, 2 -> 3 at 2.5 x
LAYER_FRAME_COUNTS = [3, 4, FRAME_BLOCK]
LAYER_FRAME_COUNTS += [k * FRAME_BLOCK // 2 + d for k in (3, 5) for d in (-1, 0, 1)]
# the same around WINDOW_BLOCK: 1 -> 2 blocks at 48 windows, 2 -> 3 at 80
WINDOW_COUNTS = [1, 2, 3, WINDOW_BLOCK - 1, WINDOW_BLOCK, WINDOW_BLOCK + 1]
WINDOW_COUNTS += [k * WINDOW_BLOCK // 2 + d for k in (3, 5) for d in (-1, 0, 1)]


@st.composite
def frame_energies(draw):
    """A FrameSeries whose mel and chroma energies are random, with silent frames and bands."""
    n = draw(st.sampled_from(LAYER_FRAME_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-12, 1.0, 1e4]))
    mel, chroma = (rng.exponential(scale, (n, width)) for width in (N_MEL_BANDS, 12))
    for energy in (mel, chroma):
        energy[rng.random(energy.shape) < 0.2] = 0.0
        energy[rng.random(n) < 0.1] = 0.0
    per_frame = np.zeros(n)
    return FrameSeries(RATE / HOP, *(per_frame,) * 5, mel, chroma, np.zeros((n, 6)), *(np.zeros(n - 1),) * 2)


@st.composite
def novelty_windows(draw):
    """A novelty curve of a drawn number of analysis windows, with a silent stretch."""
    count = draw(st.sampled_from(WINDOW_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame_rate = RATE / HOP
    win, hop = int(round(8.0 * frame_rate)), int(round(frame_rate))
    values = rng.exponential(1.0, win + (count - 1) * hop + draw(st.integers(0, hop - 1)))
    values[rng.random(values.size) < 0.3] = 0.0
    silent = rng.integers(0, values.size)
    values[silent : silent + draw(st.sampled_from([0, win, 3 * win]))] = 0.0
    return NoveltyCurve(values, frame_rate)


class TestBlockedLayersMatchWholeTrack:
    """MFCC, chroma and the autocorrelation tempogram in row blocks equal their whole-track code."""

    def test_counts_cross_block_edges(self):
        assert {len(row_blocks(n, FRAME_BLOCK)) for n in LAYER_FRAME_COUNTS} == {1, 2, 3}
        assert {len(row_blocks(n, WINDOW_BLOCK)) for n in WINDOW_COUNTS} == {1, 2, 3}

    @settings(max_examples=60, deadline=None)
    @given(series=frame_energies())
    def test_mfcc(self, series):
        assert same_bytes(mfcc_features(series).values, mfcc_reference(series))

    @settings(max_examples=60, deadline=None)
    @given(series=frame_energies())
    def test_chroma(self, series):
        assert same_bytes(chroma_features(series).values, chroma_reference(series))

    @settings(max_examples=60, deadline=None)
    @given(nov=novelty_windows())
    def test_autocorr_tempogram(self, nov):
        got, want = autocorr_tempogram(nov), autocorr_reference(nov)
        assert got.magnitudes.shape[0] in WINDOW_COUNTS
        assert same_bytes(got.magnitudes, want.magnitudes)

    @pytest.mark.parametrize(
        "clip", [synth_click_track(128.0, MIN_DURATION_S), synth_noise(MIN_DURATION_S, seed=3)], ids=["click", "noise"]
    )
    def test_shortest_track(self, clip):
        analysis = analyze_track(clip)
        assert analysis.autocorr.magnitudes.shape[0] == 2
        assert same_bytes(mfcc_features(analysis.series).values, mfcc_reference(analysis.series))
        assert same_bytes(chroma_features(analysis.series).values, chroma_reference(analysis.series))
        assert same_bytes(analysis.autocorr.magnitudes, autocorr_reference(analysis.novelty).magnitudes)


class TestNoveltyMinimumLength:
    def test_shorter_than_moving_average_names_minimum(self):
        # 1 s at 43 frames/s needs 44 frames; the parent failed with a shape error
        series = frame_series(np.ones((43, 4)), 43.0, np.arange(4) + 1.0)
        with pytest.raises(ValueError, match="at least 44 spectrogram frames"):
            novelty_curve(series)

    def test_exact_minimum_runs(self):
        series = frame_series(np.ones((44, 4)), 43.0, np.arange(4) + 1.0)
        assert novelty_curve(series).values.size == 43


class TestFourierKernelCache:
    def test_shared_read_only(self):
        a = _fourier_kernel(345, RATE / HOP)
        assert _fourier_kernel(345, RATE / HOP) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0

    def test_bounded(self):
        assert _fourier_kernel.cache_info().maxsize is not None

    def test_tempogram_matches_fresh_kernel(self):
        rng = np.random.default_rng(3)
        nov = NoveltyCurve(rng.exponential(1.0, 900), RATE / HOP)
        win = int(round(8.0 * nov.frame_rate))
        t = np.arange(win) / nov.frame_rate
        kernel = np.hanning(win)[:, None] * np.exp(-2j * np.pi * np.outer(t, TEMPO_AXIS / 60.0))
        segs = np.lib.stride_tricks.sliding_window_view(nov.values, win)[:: int(round(nov.frame_rate))]
        for _ in range(2):  # cold and cached
            assert same_bytes(fourier_tempogram(nov).magnitudes, np.abs(segs @ kernel))
