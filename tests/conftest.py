import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from edm_atlas.audio import CANONICAL_RATE, AudioClip, FrameSeries, _measure, write_wav
from edm_atlas.fixtures import synth_click_track
from edm_atlas.metrics import SILHOUETTE_BLOCK
from edm_atlas.types import row_blocks


def synth_sine(freq: float, duration: float, rate: int = CANONICAL_RATE, amplitude: float = 0.5) -> AudioClip:
    """A whole sine clip of ``freq`` Hz."""
    t = np.arange(int(round(duration * rate))) / rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq * t), rate, f"sine_{freq:g}hz")


def synth_noise(duration: float, rate: int = CANONICAL_RATE, amplitude: float = 0.5, seed: int = 0) -> AudioClip:
    """A whole clip of uniform noise, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    return AudioClip(amplitude * rng.uniform(-1.0, 1.0, n), rate, f"noise_{seed}")


@pytest.fixture(scope="session")
def click_120():
    return synth_click_track(120, 10)


@pytest.fixture(scope="session")
def click_60():
    return synth_click_track(60, 10)


@pytest.fixture(scope="session")
def click_128_long():
    return synth_click_track(128, 12)


@pytest.fixture(scope="session")
def noise_clip():
    return synth_noise(12, seed=11)


def write_clip(clip: AudioClip, path) -> None:
    """Write a whole clip as a 16-bit mono WAV file through ``write_wav``."""
    write_wav(path, clip.sample_rate, clip.samples.size, [clip.samples])


def frame_series(magnitudes, frame_rate: float, bin_freqs) -> FrameSeries:
    """The FrameSeries of a given magnitude array (frames x bins), by the pass ``audio.stft`` runs.

    Magnitudes must be finite and nonnegative, and ``bin_freqs`` (Hz per
    bin) strictly increasing. The whole-array test references reach
    ``audio._measure`` through this helper.
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    bin_freqs = np.asarray(bin_freqs, dtype=np.float64)
    if mags.ndim != 2:
        raise ValueError("magnitudes must be a frames x bins matrix")
    if mags.shape[1] != bin_freqs.size:
        raise ValueError("bin_freqs length must match bin count")
    if not np.all(np.isfinite(mags)) or np.any(mags < 0):
        raise ValueError("magnitudes must be finite and nonnegative")
    if np.any(np.diff(bin_freqs) <= 0):
        raise ValueError("bin_freqs must be strictly increasing")
    if frame_rate <= 0:
        raise ValueError("frame_rate must be positive")
    return _measure(lambda start, stop: mags[start:stop], mags.shape[0], frame_rate, bin_freqs)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` in every edm_atlas module that holds it; return the call log."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("edm_atlas"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def make_blobs(n_blobs, per_blob, dim=8, sigma=1.0, seed=0, spread=100.0):
    """Well-separated Gaussian blobs; asserts centers >= 10 sigma apart."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        centers = rng.uniform(0, spread, (n_blobs, dim))
        gaps = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(n_blobs)
            for j in range(i + 1, n_blobs)
        ]
        if min(gaps) >= 10 * sigma:
            break
    else:
        raise RuntimeError("could not place well-separated centers")
    data = np.vstack([c + sigma * rng.normal(0, 1, (per_blob, dim)) for c in centers])
    labels = np.repeat(np.arange(n_blobs), per_blob)
    return data, labels


def silhouette_reference(distances, labels):
    """``metrics.silhouette`` as it was before the shared distances: scipy ``cdist`` row blocks.

    It reads only ``distances.points``, and takes ``metrics.silhouette``'s
    arguments, so that it can stand in for it wherever the package calls it.
    """
    x = np.asarray(distances.points, dtype=np.float64)
    classes, y_idx = np.unique(np.asarray(labels).ravel(), return_inverse=True)
    k = classes.size
    if k < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    n = x.shape[0]
    counts = np.bincount(y_idx)
    sums = np.zeros((n, k))
    for start, end in row_blocks(n, SILHOUETTE_BLOCK):
        dist = cdist(x[start:end], x)
        for c in range(k):
            sums[start:end, c] = dist[:, y_idx == c].sum(axis=1)
    rows = np.arange(n)
    own = counts[y_idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, y_idx] / (own - 1)
    means = sums / counts
    means[rows, y_idx] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    scored = (own > 1) & (top > 0)
    scores = np.zeros(n)
    scores[scored] = (b[scored] - a[scored]) / top[scored]
    return float(scores.mean())
