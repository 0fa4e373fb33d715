"""Tempograms: time-tempo representations of an onset novelty curve.

Three views of periodicity are computed from one novelty curve. The Fourier
tempogram measures the magnitude of the windowed Fourier coefficient at each
tempo's frequency (tempo harmonics show up above the true tempo). The
autocorrelation tempogram measures lag-domain self-similarity (subharmonics
show up below). Cyclic tempograms fold either one over octaves by summing
all tempi related by powers of two, which removes octave ambiguity.

Tempo grid: 1 BPM resolution over [30, 480]. Analysis window 8 s, hop 1 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import CANONICAL_RATE, LOG_COMPRESSION, AudioClip, FrameSeries, SampleStream, stft
from .types import FeatureVector, row_blocks

TEMPO_MIN = 30
TEMPO_MAX = 480
TEMPO_AXIS = np.arange(TEMPO_MIN, TEMPO_MAX + 1, dtype=np.float64)
TEMPO_AXIS.flags.writeable = False

ANALYSIS_WINDOW_S = 8.0
MIN_DURATION_S = 10.0  # shortest clip analyze_track accepts: its ~9.9 s novelty curve fills the window
ANALYSIS_HOP_S = 1.0
WINDOW_BLOCK = 32  # analysis windows per block of the autocorrelation tempogram
REF_TEMPO = 60.0
N_SCALE_BINS = 15
SCALE_AXIS = 2.0 ** (np.arange(N_SCALE_BINS) / N_SCALE_BINS)  # s in [1, 2): tempo s * REF_TEMPO * 2^k
SCALE_AXIS.flags.writeable = False
TOP_BINS = 4

TEMPOGRAM_KINDS = ("fourier", "autocorr", "cyclic_fourier", "cyclic_autocorr")


@dataclass
class NoveltyCurve:
    """Frame-wise onset strength; peaks mark percussive/note onsets."""

    values: np.ndarray
    frame_rate: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("novelty values must be finite and nonnegative")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")


@dataclass
class Tempogram:
    """time_frames x bins magnitudes of one of the TEMPOGRAM_KINDS, on the shared read-only
    ``axis``: TEMPO_AXIS (BPM), or SCALE_AXIS for the ``cyclic_`` kinds."""

    magnitudes: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in TEMPOGRAM_KINDS:
            raise ValueError(f"tempogram kind must be one of {', '.join(TEMPOGRAM_KINDS)}, got {self.kind!r}")
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.magnitudes.ndim != 2 or self.magnitudes.shape[1] != self.axis.size:
            raise ValueError(f"{self.kind} tempogram magnitudes must be frames x {self.axis.size} bins")
        if not np.all(np.isfinite(self.magnitudes)) or np.any(self.magnitudes < 0):
            raise ValueError("tempogram magnitudes must be finite and nonnegative")

    @property
    def axis(self) -> np.ndarray:
        return SCALE_AXIS if self.kind.startswith("cyclic_") else TEMPO_AXIS


def novelty_curve(series: FrameSeries, band: int | None = None) -> NoveltyCurve:
    """Spectral-flux onset novelty with log compression and local-mean removal.

    Magnitudes are compressed as log(1 + 1000*|X|), differenced across
    frames, half-wave rectified and summed over bins (the STFT pass keeps
    that sum as ``series.log_flux``); then a centered 1 s moving average is
    subtracted and the result rectified again. With ``band`` (an index
    into BAND_EDGES_HZ) the curve is that of the octave band's energy
    envelope, sqrt(band energy), instead. The curve has one value fewer
    than the series has frames, and it must be at least as long as the 1 s
    moving average.
    """
    win = max(1, int(round(series.frame_rate)))
    min_frames = win + 1
    if series.n_frames < min_frames:
        raise ValueError(
            f"novelty needs at least {min_frames} spectrogram frames (1 s at "
            f"{series.frame_rate:g} frames/s), got {series.n_frames}"
        )
    if band is None:
        raw = series.log_flux
    else:
        if not 0 <= band < series.band_energy.shape[1]:
            raise ValueError(f"band must be in [0, {series.band_energy.shape[1]}), got {band}")
        envelope = np.sqrt(series.band_energy[:, band])
        raw = np.clip(np.diff(np.log1p(LOG_COMPRESSION * envelope)), 0.0, None)

    kernel = np.ones(win)
    local_sum = np.convolve(raw, kernel, mode="same")
    counts = np.convolve(np.ones_like(raw), kernel, mode="same")
    novelty = np.clip(raw - local_sum / counts, 0.0, None)
    return NoveltyCurve(novelty, series.frame_rate)


def _frame_params(nov: NoveltyCurve) -> tuple[int, int]:
    win = int(round(ANALYSIS_WINDOW_S * nov.frame_rate))
    hop = max(1, int(round(ANALYSIS_HOP_S * nov.frame_rate)))
    if nov.values.size < win:
        raise ValueError(
            f"novelty has {nov.values.size} frames; analysis window needs {win}"
        )
    min_win = int(np.ceil(60.0 * nov.frame_rate / TEMPO_MIN)) + 1
    if win < min_win:
        raise ValueError(f"window of {win} frames cannot resolve {TEMPO_MIN} BPM")
    return win, hop


def _segments(values: np.ndarray, win: int, hop: int) -> np.ndarray:
    n_frames = 1 + (values.size - win) // hop
    segs = np.lib.stride_tricks.sliding_window_view(values, win)[::hop]
    return segs[:n_frames]


@lru_cache(maxsize=8)
def _fourier_kernel(win: int, frame_rate: float) -> np.ndarray:
    """Hann-tapered complex exponentials, (win, tempo bins); shared and read-only."""
    t = np.arange(win) / frame_rate
    freqs = TEMPO_AXIS / 60.0
    kernel = np.hanning(win)[:, None] * np.exp(-2j * np.pi * np.outer(t, freqs))
    kernel.flags.writeable = False
    return kernel


def fourier_tempogram(nov: NoveltyCurve) -> Tempogram:
    """Magnitude of the windowed Fourier coefficient at each tempo's rate.

    For tempo tau (BPM) the probed frequency is tau/60 Hz; each analysis
    window is Hann-tapered before the inner product.
    """
    win, hop = _frame_params(nov)
    segs = _segments(nov.values, win, hop)
    mags = np.abs(segs @ _fourier_kernel(win, nov.frame_rate))
    return Tempogram(mags, "fourier")


def autocorr_tempogram(nov: NoveltyCurve) -> Tempogram:
    """Windowed normalized autocorrelation mapped onto the BPM axis.

    Each Hann-tapered window is autocorrelated (biased estimate, normalized
    by the zero-lag value); lag ell maps to 60*frame_rate/ell BPM and the
    lag-domain curve is linearly interpolated onto the shared 1-BPM grid.
    An all-zero window yields an all-zero row. The windows are taken
    ``row_blocks(n, WINDOW_BLOCK)`` at a time; every step is per window, so
    only the output grows with the track.
    """
    win, hop = _frame_params(nov)
    segs = _segments(nov.values, win, hop)
    taper = np.hanning(win)
    nfft = int(2 ** np.ceil(np.log2(2 * win)))
    # Resample lag axis onto the BPM grid (ascending lags for np.interp).
    lags_for_bpm = 60.0 * nov.frame_rate / TEMPO_AXIS  # descending in BPM
    lag_axis = np.arange(win, dtype=np.float64)
    mags = np.empty((segs.shape[0], TEMPO_AXIS.size))
    for start, stop in row_blocks(segs.shape[0], WINDOW_BLOCK):
        spec_pow = np.abs(np.fft.rfft(segs[start:stop] * taper, n=nfft, axis=1)) ** 2
        acf = np.fft.irfft(spec_pow, n=nfft, axis=1)[:, :win] / win

        zero_lag = acf[:, :1]
        with np.errstate(invalid="ignore", divide="ignore"):
            acf_norm = np.where(zero_lag > 0, acf / np.where(zero_lag > 0, zero_lag, 1.0), 0.0)
        acf_norm = np.clip(acf_norm, 0.0, None)
        for i, row in enumerate(acf_norm, start):
            mags[i] = np.interp(lags_for_bpm, lag_axis, row)
    return Tempogram(mags, "autocorr")


@lru_cache(maxsize=1)
def _fold_weights() -> np.ndarray:
    """(scale bins, tempo bins) octave-fold weights on TEMPO_AXIS; shared and read-only."""
    axis = TEMPO_AXIS
    weights = np.zeros((N_SCALE_BINS, axis.size))
    for j, s in enumerate(SCALE_AXIS):
        k_lo = int(np.ceil(np.log2(axis[0] / (s * REF_TEMPO))))
        k_hi = int(np.floor(np.log2(axis[-1] / (s * REF_TEMPO))))
        for k in range(k_lo, k_hi + 1):
            tempo = s * REF_TEMPO * 2.0**k
            idx = np.searchsorted(axis, tempo)
            if idx == 0:
                weights[j, 0] += 1.0
            elif idx >= axis.size:
                weights[j, -1] += 1.0
            else:
                frac = (tempo - axis[idx - 1]) / (axis[idx] - axis[idx - 1])
                weights[j, idx - 1] += 1.0 - frac
                weights[j, idx] += frac
    weights.flags.writeable = False
    return weights


def cyclic_tempogram(tg: Tempogram) -> Tempogram:
    """Fold a tempogram over octaves: sum magnitudes at all tempi s*rho*2^k.

    rho is REF_TEMPO (60 BPM) and the N_SCALE_BINS (15) scale bins s of
    SCALE_AXIS are log-spaced in [1, 2). Tempi are read off the BPM grid by
    linear interpolation; octaves falling outside the axis are skipped.
    ``tg`` is a ``fourier`` or ``autocorr`` tempogram.
    """
    mags = tg.magnitudes @ _fold_weights().T
    return Tempogram(np.clip(mags, 0.0, None), f"cyclic_{tg.kind}")


def tempogram_summary(tg: Tempogram) -> FeatureVector:
    """Per-bin statistics of the TOP_BINS (4) strongest tempo (or scale) bins.

    Bins are ranked by time-averaged magnitude; each of the top bins
    contributes its axis value (BPM or scale), time-mean magnitude, temporal
    std, and strength relative to the rank-1 bin. An all-zero tempogram
    yields an all-zero summary.
    """
    axis = tg.axis
    axis_name = "scale" if axis is SCALE_AXIS else "bpm"

    mean_mag = tg.magnitudes.mean(axis=0)
    std_mag = tg.magnitudes.std(axis=0)
    order = np.argsort(-mean_mag, kind="stable")[:TOP_BINS]
    strongest = mean_mag[order[0]]

    values, names, groups = [], [], []
    for rank, b in enumerate(order, start=1):
        if strongest > 0:
            row = [axis[b], mean_mag[b], std_mag[b], mean_mag[b] / strongest]
        else:
            row = [0.0, 0.0, 0.0, 0.0]
        values.extend(row)
        prefix = f"tg_{tg.kind}_r{rank}"
        names.extend(
            [f"{prefix}_{axis_name}", f"{prefix}_mag_mean", f"{prefix}_mag_std", f"{prefix}_rel_strength"]
        )
        groups.extend(["tempogram"] * 4)
    return FeatureVector(np.array(values), names, groups)


@dataclass
class TrackAnalysis:
    """What every feature block of one track reads, computed once.

    The track's source id, the per-frame series of its spectrogram, its
    onset novelty curve, and the Fourier and autocorrelation tempograms.
    Built by analyze_track, so the track is at the canonical rate and at
    least MIN_DURATION_S long. Its samples are not kept.
    """

    source_id: str
    series: FrameSeries
    novelty: NoveltyCurve
    fourier: Tempogram
    autocorr: Tempogram


def analyze_track(clip: AudioClip | SampleStream) -> TrackAnalysis:
    """STFT series, novelty curve and both tempograms of a 22050 Hz clip of 10 s or more.

    The tempograms use the 8 s analysis window. This is the one precondition
    of every feature block: a clip at another rate, or shorter than
    MIN_DURATION_S, raises ValueError before the STFT. A SampleStream is
    checked from its rate and length, before a span of it is read.
    """
    if clip.sample_rate != CANONICAL_RATE:
        raise ValueError(f"expected canonical {CANONICAL_RATE} Hz input, got {clip.sample_rate}")
    if clip.duration < MIN_DURATION_S:
        raise ValueError(f"track analysis needs at least {MIN_DURATION_S:g} s of audio, got {clip.duration:.2f} s")
    series = stft(clip)
    nov = novelty_curve(series)
    return TrackAnalysis(clip.source_id, series, nov, fourier_tempogram(nov), autocorr_tempogram(nov))


def tempogram_feature_vector(analysis: TrackAnalysis) -> FeatureVector:
    """64-dim tempogram block: 4 representations x top-4 bins x 4 statistics."""
    ftg, atg = analysis.fourier, analysis.autocorr
    views = (ftg, atg, cyclic_tempogram(ftg), cyclic_tempogram(atg))
    return FeatureVector.concat([tempogram_summary(tg) for tg in views])
