import sys

import numpy as np
import pytest

from edm_atlas.audio import AudioClip, write_wav
from edm_atlas.fixtures import synth_click_track, synth_noise


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
