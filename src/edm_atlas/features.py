"""The 92-dimensional fundamental acoustic feature vector, plus band beat emphasis.

Blocks and sizes: spectral statistics (10), MFCCs with deltas (52), chroma
(26), tempo estimates (3), danceability exponent (1) -- 92 total. The six
band-beat-emphasis values are computed here as well but live outside the
92-dim fundamental block; the combined extracted table is 92 + 64 + 6
columns before catalog metadata.

The MFCC's DCT-II is pocketfft's own algorithm on numpy's FFT (see
``_dct_ii_ortho``), so importing this module loads no scipy module.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .audio import BAND_EDGES_HZ, FRAME_BLOCK, LOG_COMPRESSION, N_MEL_BANDS, FrameSeries
from .tempogram import TrackAnalysis, local_mean_removed
from .types import FeatureVector, row_blocks, stats_pair

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-10
N_MFCC = 13
PITCH_CLASSES = ["c", "cs", "d", "ds", "e", "f", "fs", "g", "gs", "a", "as", "b"]

DFA_MIN_WINDOW_S = 0.1
DFA_MAX_WINDOW_S = 5.0
DFA_N_SCALES = 12

EMPHASIS_LAG_RANGE_S = (0.125, 2.0)
BAND_ENERGY_SHARE_FLOOR = 1e-6
BAND_NOVELTY_FLOOR = 1e-2


def _pocketfft_dct_twiddle() -> np.ndarray:
    """pocketfft's DCT-II twiddles for n = N_MEL_BANDS: the real parts of ``sincos_2pibyn(4 n)[1 : n + 1]``.

    pocketfft builds root ``idx`` of its table as the complex product
    ``v1[idx & mask] * v2[idx >> shift]``, where each entry is a libm cos
    and sin of an angle it has reduced to the first octant. Every entry
    that roots 1 to n use lies in the first quadrant, the only one this
    port reduces. The angle step is ``0.25 * pi / (4 n)``, which pocketfft
    rounds from long double; the double expression gives the same value.
    """
    n = N_MEL_BANDS
    m = 4 * n
    ang = 0.25 * math.pi / m

    def root(x: int) -> tuple[float, float]:
        x *= 8
        if x < m:
            return math.cos(x * ang), math.sin(x * ang)
        assert x < 2 * m, "beyond the first quadrant"
        return math.sin((2 * m - x) * ang), math.cos((2 * m - x) * ang)

    shift = 1
    while 4**shift < (m + 2) // 2:
        shift += 1
    mask = (1 << shift) - 1
    tw = []
    for idx in range(1, n + 1):
        (r1, i1), (r2, i2) = root(idx & mask), root(idx & ~mask)
        tw.append(r1 * r2 - i1 * i2)
    return np.array(tw)


_DCT_TWIDDLE = _pocketfft_dct_twiddle()


def _dct_ii_ortho(x: np.ndarray) -> np.ndarray:
    """``scipy.fft.dct(x, type=2, norm="ortho", axis=1)`` of (rows, N_MEL_BANDS) values, bit for bit.

    This is pocketfft's DCT-II (Makhoul, "A fast cosine transform in one
    and two dimensions", IEEE TASSP 1980), step by step and per row: double
    the end values, replace each pair ``(c[k], c[k+1])`` at odd k by its sum
    and difference, read the row as a halfcomplex spectrum, take the
    backward real FFT and scale it, then rotate each pair ``(c[k],
    c[n-k])`` by the twiddles. numpy's FFT has been pocketfft's C++ code
    since numpy 2.0, so ``irfft`` runs the same arithmetic as scipy's.
    Scaling after the FFT, and pocketfft's own twiddle table, are what make
    it exact: a cosine matrix, or twiddles from ``cos(pi * k / (2 n))``,
    differed in the last bits of 5000 of 5000 random rows. The same steps
    at other lengths differ from scipy (at 16, 24, 48 and 64 among the even
    lengths tried), so the port is fixed at N_MEL_BANDS, where it is
    checked.
    """
    n, h = N_MEL_BANDS, N_MEL_BANDS // 2
    z = np.zeros((x.shape[0], h + 1), dtype=np.complex128)
    z.real[:, 0] = x[:, 0] * 2.0
    odd, even = x[:, 1 : n - 1 : 2], x[:, 2 : n - 1 : 2]
    np.add(odd, even, out=z.real[:, 1:h])
    np.subtract(even, odd, out=z.imag[:, 1:h])
    z.real[:, h] = x[:, n - 1] * 2.0
    c = np.fft.irfft(z, n=n, axis=1, norm="forward")
    del z
    c *= 1.0 / math.sqrt(2 * n)
    lo, hi = c[:, 1:h], c[:, n - 1 : h : -1]
    tw_lo, tw_hi = _DCT_TWIDDLE[: h - 1], _DCT_TWIDDLE[n - 2 : h - 1 : -1]
    t1 = tw_lo * hi
    t1 += tw_hi * lo
    t2 = tw_lo * lo
    t2 -= tw_hi * hi
    np.add(t1, t2, out=lo)
    lo *= 0.5
    np.subtract(t1, t2, out=hi)
    hi *= 0.5
    c[:, h] *= _DCT_TWIDDLE[h - 1]
    c[:, 0] *= math.sqrt(2.0) * 0.5
    return c


def spectral_stats(series: FrameSeries) -> FeatureVector:
    """Mean and std over frames of centroid, spread, entropy, flux, rolloff.

    Silent frames contribute centroid = spread = entropy = rolloff = 0.
    Flux is the L2 norm of positive bin differences between frame pairs.
    All five per-frame series come from the STFT pass.
    """
    if series.n_frames < 2:
        raise ValueError("spectral stats need at least 2 frames")
    values, names = [], []
    for label, values_per_frame in (
        ("centroid", series.centroid),
        ("spread", series.spread),
        ("entropy", series.entropy),
        ("flux", series.flux),
        ("rolloff", series.rolloff),
    ):
        m, s = stats_pair(values_per_frame)
        values.extend([m, s])
        names.extend([f"spectral_{label}_mean", f"spectral_{label}_std"])
    return FeatureVector(np.array(values), names, ["spectral"] * 10)


def mfcc_features(series: FrameSeries) -> FeatureVector:
    """Mean/std of 13 MFCCs and their centered-difference deltas (52 dims).

    The MFCCs are the orthonormal DCT-II of the log mel band energies that
    the STFT pass keeps. The floor, log and DCT run on one block of
    ``row_blocks(n, FRAME_BLOCK)`` frames at a time; each is per row, so a
    block gives the rows the whole array gave. Only the 13 kept
    coefficients exist for the whole track, as one C-ordered array, and
    their means, stds and deltas are taken over it; the coefficients are
    let go before the deltas' statistics, so at most two whole-track arrays
    of 13 columns exist at once.
    """
    if series.n_frames < 3:
        raise ValueError("MFCC deltas need at least 3 frames")
    coeffs = np.empty((series.n_frames, N_MFCC))
    for start, stop in row_blocks(series.n_frames, FRAME_BLOCK):
        log_energy = np.log(np.maximum(series.mel_energy[start:stop], LOG_FLOOR))
        coeffs[start:stop] = _dct_ii_ortho(log_energy)[:, :N_MFCC]
    stats = [("mfcc", coeffs.mean(axis=0), coeffs.std(axis=0))]
    deltas = np.subtract(coeffs[2:], coeffs[:-2])  # interior frames only
    deltas /= 2.0
    del coeffs
    stats.append(("mfcc_delta", deltas.mean(axis=0), deltas.std(axis=0)))
    del deltas

    values, names = [], []
    for label, means, stds in stats:
        for i in range(N_MFCC):
            values.append(means[i])
            names.append(f"{label}_{i:02d}_mean")
        for i in range(N_MFCC):
            values.append(stds[i])
            names.append(f"{label}_{i:02d}_std")
    return FeatureVector(np.array(values), names, ["timbral"] * 52)


def chroma_features(series: FrameSeries) -> FeatureVector:
    """12 pitch-class energy means/stds plus two deviation measures (26 dims).

    Bin energy folds into pitch classes against A440; bins below 55 Hz are
    ignored. Frames are L1-normalized; silent frames fall back to the
    uniform 1/12 profile. Deviations: mean per-frame chroma entropy and the
    std of the per-frame dominant-class index. Each block of
    ``row_blocks(n, FRAME_BLOCK)`` frames is normalized and reduced to its
    entropies and dominant classes on its own; only the normalized chroma
    and those two per-frame series exist for the whole track.
    """
    if series.n_frames < 1:
        raise ValueError("chroma needs at least 1 frame")
    chroma = np.empty((series.n_frames, 12))
    frame_entropy = np.empty(series.n_frames)
    dominant = np.empty(series.n_frames)
    for start, stop in row_blocks(series.n_frames, FRAME_BLOCK):
        block = series.chroma_energy[start:stop]
        totals = block.sum(axis=1, keepdims=True)
        block = np.where(totals > 0, block / np.where(totals > 0, totals, 1.0), 1.0 / 12.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(block > 0, block * np.log(block), 0.0)
        frame_entropy[start:stop] = -plogp.sum(axis=1)
        dominant[start:stop] = np.argmax(block, axis=1)
        chroma[start:stop] = block

    values, names = [], []
    means = chroma.mean(axis=0)
    stds = chroma.std(axis=0)
    for i, note in enumerate(PITCH_CLASSES):
        values.append(means[i])
        names.append(f"chroma_{note}_mean")
    for i, note in enumerate(PITCH_CLASSES):
        values.append(stds[i])
        names.append(f"chroma_{note}_std")
    values.extend([frame_entropy.mean(), float(np.std(dominant))])
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
    bpm_f = float(ftg.axis[np.argmax(ftg.magnitudes.mean(axis=0))])
    bpm_a = float(atg.axis[np.argmax(atg.magnitudes.mean(axis=0))])
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


def band_beat_emphasis(series: FrameSeries) -> FeatureVector:
    """Beat emphasis per octave band (lower edges 60..1920 Hz, 6 dims).

    Per band, an onset novelty curve is computed on the band's energy
    envelope as ``novelty_curve`` computes one on the magnitudes, and
    scaled by its mean; emphasis is the peak of its autocorrelation over
    lags 0.125-2 s. Uncorrelated novelty gives values near 1, periodic
    beats give values well above 1, and a band with no onsets gives the 0
    sentinel.
    """
    values, names = [], []
    lag_lo = max(1, int(round(EMPHASIS_LAG_RANGE_S[0] * series.frame_rate)))
    lag_hi = int(round(EMPHASIS_LAG_RANGE_S[1] * series.frame_rate))
    total_energy = float(series.energy.mean())
    for band, lo in enumerate(BAND_EDGES_HZ):
        # the band is collapsed to its energy envelope before the flux: per-bin
        # flux of a steady low tone wiggles with frame phase, band energy not
        envelope = np.sqrt(series.band_energy[:, band])
        compressed = np.log1p(LOG_COMPRESSION * envelope)
        nov = local_mean_removed(np.clip(np.diff(compressed), 0.0, None), series.frame_rate)
        mean = nov.mean()
        # a band holding only leakage, or steady content with no onsets,
        # has no beat to emphasize -> 0 sentinel
        empty_band = float((envelope**2).mean()) <= BAND_ENERGY_SHARE_FLOOR * total_energy
        steady = mean <= BAND_NOVELTY_FLOOR * float(compressed.mean())
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
    ("spectral", lambda a: spectral_stats(a.series)),
    ("timbral", lambda a: mfcc_features(a.series)),
    ("harmonic", lambda a: chroma_features(a.series)),
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
            raise ValueError(f"{block_name} features failed for {analysis.source_id!r}: {exc}") from exc
    vec = FeatureVector.concat(parts)
    assert len(vec) == 92, f"fundamental schema drifted: {len(vec)} dims"
    return vec
