"""The 92-dimensional fundamental acoustic feature vector, plus band beat emphasis.

Blocks and sizes: spectral statistics (10), MFCCs with deltas (52), chroma
(26), tempo estimates (3), danceability exponent (1) -- 92 total. The six
band-beat-emphasis values are computed here as well but live outside the
92-dim fundamental block; the combined extracted table is 92 + 64 + 6
columns before catalog metadata.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.fft import dct

from .audio import Spectrogram, frame_blocks
from .tempogram import LOG_COMPRESSION, TrackAnalysis, novelty_curve
from .types import FeatureVector, stats_pair

logger = logging.getLogger(__name__)

N_MEL_BANDS = 40
LOG_FLOOR = 1e-10
N_MFCC = 13
ROLLOFF_FRACTION = 0.85
CHROMA_MIN_FREQ = 55.0
PITCH_CLASSES = ["c", "cs", "d", "ds", "e", "f", "fs", "g", "gs", "a", "as", "b"]

DFA_MIN_WINDOW_S = 0.1
DFA_MAX_WINDOW_S = 5.0
DFA_N_SCALES = 12

BAND_EDGES_HZ = (60.0, 120.0, 240.0, 480.0, 960.0, 1920.0)
EMPHASIS_LAG_RANGE_S = (0.125, 2.0)
BAND_ENERGY_SHARE_FLOOR = 1e-6
BAND_NOVELTY_FLOOR = 1e-2


def spectral_stats(spec: Spectrogram) -> FeatureVector:
    """Mean and std over frames of centroid, spread, entropy, flux, rolloff.

    Silent frames contribute centroid = spread = entropy = rolloff = 0.
    Flux is the L2 norm of positive bin differences between frame pairs.
    The per-frame series are computed in frame blocks; flux blocks overlap
    by one row.
    """
    if spec.n_frames < 2:
        raise ValueError("spectral stats need at least 2 frames")
    freqs = spec.bin_freqs
    n = spec.n_frames
    centroid, spread, entropy, rolloff = (np.empty(n) for _ in range(4))
    for start, stop in frame_blocks(n):
        mags = spec.magnitudes[start:stop]
        rows = slice(start, stop)
        totals = mags.sum(axis=1)
        live = totals > 0
        safe_tot = np.where(live, totals, 1.0)

        centroid[rows] = np.where(live, (mags * freqs).sum(axis=1) / safe_tot, 0.0)
        spread[rows] = np.where(
            live,
            np.sqrt((mags * (freqs - centroid[rows, None]) ** 2).sum(axis=1) / safe_tot),
            0.0,
        )
        probs = mags / safe_tot[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
        entropy[rows] = np.where(live, -plogp.sum(axis=1), 0.0)

        cum = np.cumsum(mags**2, axis=1)
        thresh = ROLLOFF_FRACTION * cum[:, -1]
        idx = np.argmax(cum >= thresh[:, None], axis=1)
        rolloff[rows] = np.where(cum[:, -1] > 0, freqs[idx], 0.0)

    flux = np.empty(n - 1)
    for start, stop in frame_blocks(n - 1):
        diff = np.diff(spec.magnitudes[start : stop + 1], axis=0)
        flux[start:stop] = np.linalg.norm(np.clip(diff, 0.0, None), axis=1)

    values, names = [], []
    for label, series in (
        ("centroid", centroid),
        ("spread", spread),
        ("entropy", entropy),
        ("flux", flux),
        ("rolloff", rolloff),
    ):
        m, s = stats_pair(series)
        values.extend([m, s])
        names.extend([f"spectral_{label}_mean", f"spectral_{label}_std"])
    return FeatureVector(np.array(values), names, ["spectral"] * 10)


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


def mfcc_features(spec: Spectrogram) -> FeatureVector:
    """Mean/std of 13 MFCCs and their centered-difference deltas (52 dims).

    The mel band energies are computed in frame blocks; see frame_blocks
    for why the blocked matrix product equals the whole one.
    """
    if spec.n_frames < 3:
        raise ValueError("MFCC deltas need at least 3 frames")
    bank = mel_filterbank(spec.bin_freqs)
    band_energy = np.empty((spec.n_frames, bank.shape[0]))
    for start, stop in frame_blocks(spec.n_frames):
        band_energy[start:stop] = spec.magnitudes[start:stop] ** 2 @ bank.T
    log_energy = np.log(np.maximum(band_energy, LOG_FLOOR))
    coeffs = dct(log_energy, type=2, norm="ortho", axis=1)[:, :N_MFCC]
    deltas = (coeffs[2:] - coeffs[:-2]) / 2.0  # interior frames only

    values, names = [], []
    for label, block in (("mfcc", coeffs), ("mfcc_delta", deltas)):
        means = block.mean(axis=0)
        stds = block.std(axis=0)
        for i in range(N_MFCC):
            values.append(means[i])
            names.append(f"{label}_{i:02d}_mean")
        for i in range(N_MFCC):
            values.append(stds[i])
            names.append(f"{label}_{i:02d}_std")
    return FeatureVector(np.array(values), names, ["timbral"] * 52)


def chroma_features(spec: Spectrogram) -> FeatureVector:
    """12 pitch-class energy means/stds plus two deviation measures (26 dims).

    Bin energy folds into pitch classes against A440; bins below 55 Hz are
    ignored. Frames are L1-normalized; silent frames fall back to the
    uniform 1/12 profile. Deviations: mean per-frame chroma entropy and the
    std of the per-frame dominant-class index.
    """
    if spec.n_frames < 1:
        raise ValueError("chroma needs at least 1 frame")
    usable = spec.bin_freqs >= CHROMA_MIN_FREQ
    freqs = spec.bin_freqs[usable]
    pc = (np.round(12.0 * np.log2(freqs / 440.0)).astype(int) + 9) % 12  # A -> 9

    chroma = np.zeros((spec.n_frames, 12))
    for start, stop in frame_blocks(spec.n_frames):
        # F-ordered, like the whole-array gather: see frame_blocks
        energy = spec.magnitudes[start:stop][:, usable] ** 2
        for c in range(12):
            sel = pc == c
            if np.any(sel):
                chroma[start:stop, c] = energy[:, sel].sum(axis=1)
    totals = chroma.sum(axis=1, keepdims=True)
    chroma = np.where(totals > 0, chroma / np.where(totals > 0, totals, 1.0), 1.0 / 12.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(chroma > 0, chroma * np.log(chroma), 0.0)
    frame_entropy = -plogp.sum(axis=1)
    dominant = np.argmax(chroma, axis=1)

    values, names = [], []
    means = chroma.mean(axis=0)
    stds = chroma.std(axis=0)
    for i, note in enumerate(PITCH_CLASSES):
        values.append(means[i])
        names.append(f"chroma_{note}_mean")
    for i, note in enumerate(PITCH_CLASSES):
        values.append(stds[i])
        names.append(f"chroma_{note}_std")
    values.extend([frame_entropy.mean(), float(np.std(dominant.astype(np.float64)))])
    names.extend(["chroma_entropy_mean", "chroma_dominant_std"])
    return FeatureVector(np.array(values), names, ["harmonic"] * 26)


def tempo_estimates(analysis: TrackAnalysis) -> FeatureVector:
    """Three BPM estimates: Fourier-tempogram argmax, autocorrelation argmax,
    and their geometric mean. Silence yields the 0 BPM sentinel.
    """
    names = ["tempo_fourier_bpm", "tempo_autocorr_bpm", "tempo_geomean_bpm"]
    if analysis.novelty.values.max() <= 0:
        logger.warning("silent input: tempo estimates fall back to 0 BPM sentinel")
        return FeatureVector(np.zeros(3), names, ["rhythmic"] * 3)
    ftg, atg = analysis.fourier, analysis.autocorr
    bpm_f = float(ftg.tempo_axis[np.argmax(ftg.magnitudes.mean(axis=0))])
    bpm_a = float(atg.tempo_axis[np.argmax(atg.magnitudes.mean(axis=0))])
    geo = float(np.sqrt(bpm_f * bpm_a))
    return FeatureVector(np.array([bpm_f, bpm_a, geo]), names, ["rhythmic"] * 3)


def dfa_exponent(series: np.ndarray, frame_rate: float) -> float:
    """Detrended fluctuation analysis scaling exponent of a 1-D series.

    The mean-removed series is integrated into a profile; for each window
    size s the profile is chopped into non-overlapping windows, each is
    linearly detrended, and F(s) is the RMS residual. The exponent is the
    slope of log F against log s. Scales with fewer than two full windows
    are skipped; a fluctuation-free (constant) series returns 0.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size < 8 or np.all(x == x[0]):
        return 0.0
    profile = np.cumsum(x - x.mean())

    s_min = max(4, int(round(DFA_MIN_WINDOW_S * frame_rate)))
    s_max = min(int(round(DFA_MAX_WINDOW_S * frame_rate)), x.size // 2)
    if s_max <= s_min:
        return 0.0
    sizes = np.unique(np.geomspace(s_min, s_max, DFA_N_SCALES).round().astype(int))

    log_s, log_f = [], []
    for s in sizes:
        k = profile.size // s
        if k < 2:
            continue
        windows = profile[: k * s].reshape(k, s)
        t = np.arange(s, dtype=np.float64)
        t_c = t - t.mean()
        slope = (windows * t_c).sum(axis=1) / (t_c**2).sum()
        intercept = windows.mean(axis=1)
        resid = windows - (intercept[:, None] + slope[:, None] * t_c)
        f2 = (resid**2).mean()
        if f2 > 0:
            log_s.append(np.log(s))
            log_f.append(0.5 * np.log(f2))
    if len(log_s) < 2:
        return 0.0
    return float(np.polyfit(log_s, log_f, 1)[0])


def danceability_dfa(analysis: TrackAnalysis) -> FeatureVector:
    """DFA exponent of the onset-strength envelope (1 dim)."""
    nov = analysis.novelty
    alpha = dfa_exponent(nov.values, nov.frame_rate)
    return FeatureVector(np.array([alpha]), ["danceability_dfa"], ["rhythmic"])


def band_beat_emphasis(spec: Spectrogram) -> FeatureVector:
    """Beat emphasis per octave band (lower edges 60..1920 Hz, 6 dims).

    Per band, an onset novelty curve is computed on the band-limited
    spectrum and scaled by its mean; emphasis is the peak of its
    autocorrelation over lags 0.125-2 s. Uncorrelated novelty gives values
    near 1, periodic beats give values well above 1, and a band with no
    onsets gives the 0 sentinel.
    """
    values, names = [], []
    lag_lo = max(1, int(round(EMPHASIS_LAG_RANGE_S[0] * spec.frame_rate)))
    lag_hi = int(round(EMPHASIS_LAG_RANGE_S[1] * spec.frame_rate))
    row_energy = np.empty(spec.n_frames)
    for start, stop in frame_blocks(spec.n_frames):
        row_energy[start:stop] = (spec.magnitudes[start:stop] ** 2).sum(axis=1)
    total_energy = float(row_energy.mean())
    for lo in BAND_EDGES_HZ:
        hi = lo * 2.0
        mask = (spec.bin_freqs >= lo) & (spec.bin_freqs < hi)
        # collapse the band to its energy envelope before the flux: per-bin
        # flux of a steady low tone wiggles with frame phase, band energy not
        envelope = np.sqrt((spec.magnitudes[:, mask] ** 2).sum(axis=1, keepdims=True))
        sub = Spectrogram(envelope, spec.frame_rate, np.array([lo]))
        nov = novelty_curve(sub).values
        mean = nov.mean()
        # a band holding only leakage, or steady content with no onsets,
        # has no beat to emphasize -> 0 sentinel
        empty_band = float((envelope**2).mean()) <= BAND_ENERGY_SHARE_FLOOR * total_energy
        steady = mean <= BAND_NOVELTY_FLOOR * float(np.log1p(LOG_COMPRESSION * envelope).mean())
        if empty_band or steady:
            emphasis = 0.0
        else:
            scaled = nov / mean
            hi_eff = min(lag_hi, scaled.size - 1)
            best = 0.0
            for lag in range(lag_lo, hi_eff + 1):
                best = max(best, float((scaled[:-lag] * scaled[lag:]).mean()))
            emphasis = best
        values.append(emphasis)
        names.append(f"beat_emphasis_{int(lo)}hz")
    return FeatureVector(np.array(values), names, ["rhythmic"] * 6)


_BLOCKS = (
    ("spectral", lambda a: spectral_stats(a.spec)),
    ("timbral", lambda a: mfcc_features(a.spec)),
    ("harmonic", lambda a: chroma_features(a.spec)),
    ("tempo", tempo_estimates),
    ("danceability", danceability_dfa),
)


def fundamental_feature_vector(analysis: TrackAnalysis) -> FeatureVector:
    """The full 92-dim fundamental block of a track, in fixed schema order."""
    parts = []
    for block_name, fn in _BLOCKS:
        try:
            parts.append(fn(analysis))
        except Exception as exc:
            raise ValueError(f"{block_name} features failed for {analysis.clip.source_id!r}: {exc}") from exc
    vec = FeatureVector.concat(parts)
    assert len(vec) == 92, f"fundamental schema drifted: {len(vec)} dims"
    return vec
