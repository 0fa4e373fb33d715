"""Tempograms 101: how a click track's tempo shows up in all four views.

Synthesizes a 128 BPM click track, runs the one-pass STFT (which keeps
per-frame series, not a magnitude array), computes the Fourier and
autocorrelation tempograms plus both cyclic foldings, and prints where each
representation puts its energy. Run:

    python3 demos/01_tempograms.py
"""

import numpy as np

from edm_atlas.audio import stft
from edm_atlas.fixtures import synth_click_track
from edm_atlas.tempogram import (
    REF_TEMPO,
    autocorr_tempogram,
    cyclic_tempogram,
    fourier_tempogram,
    novelty_curve,
    tempogram_summary,
)

BPM = 128

clip = synth_click_track(BPM, duration=12)
print(f"synthesized {clip.duration:.0f} s of clicks at {BPM} BPM")

series = stft(clip)
print(
    f"STFT series: {series.n_frames} frames; per frame spectral shape, "
    f"{series.mel_energy.shape[1]} mel, {series.chroma_energy.shape[1]} chroma "
    f"and {series.band_energy.shape[1]} octave-band energies"
)
nov = novelty_curve(series)
print(f"novelty curve: {nov.values.size} frames at {nov.frame_rate:.1f} fps")

ftg = fourier_tempogram(nov)
atg = autocorr_tempogram(nov)

f_profile = ftg.magnitudes.mean(axis=0)
a_profile = atg.magnitudes.mean(axis=0)
print(f"\nfourier tempogram argmax:        {ftg.axis[np.argmax(f_profile)]:.0f} BPM")
print(f"autocorrelation tempogram argmax: {atg.axis[np.argmax(a_profile)]:.0f} BPM")
print("(the autocorrelation view emphasizes subharmonics: half tempo is a strong peak)")

half_idx = int(BPM / 2 - 30)
print(f"autocorr magnitude at {BPM} BPM: {a_profile[BPM - 30]:.3f}")
print(f"autocorr magnitude at {BPM // 2} BPM: {a_profile[half_idx]:.3f}")

for tg in (ftg, atg):
    cyc = cyclic_tempogram(tg)
    profile = cyc.magnitudes.mean(axis=0)
    best = np.argmax(profile)
    print(
        f"\ncyclic {tg.kind}: argmax scale bin {best} "
        f"(s = {cyc.axis[best]:.3f} relative to {REF_TEMPO:.0f} BPM)"
    )
    print("  -> 64, 128, and 256 BPM would all land on the same bin: octaves are folded")

print("\ntop-4 summary statistics (fourier):")
vec = tempogram_summary(ftg)
for name, value in zip(vec.names, vec.values):
    print(f"  {name:36s} {value:10.4f}")
