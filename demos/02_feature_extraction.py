"""Extract the full feature table from synthesized audio.

Builds the four-family fixture set (kicks, clicks, pads, gated noise),
extracts 92 fundamental + 64 tempogram + 6 band-emphasis features per
track, and prints a block-by-block tour of one track's vector. Without
``out_dir`` it works in a temporary directory, removed when it ends. Run:

    python3 demos/02_feature_extraction.py [out_dir]
"""

import sys
import tempfile
from collections import Counter
from pathlib import Path

from edm_atlas.pipeline import RunConfig, cmd_extract, cmd_fixtures


def demo(out_dir: Path) -> None:
    manifest = cmd_fixtures(out_dir / "audio", per_genre=3, duration=12.0, seed=0)
    print(f"fixture manifest: {manifest}")

    cfg = RunConfig(manifest=str(manifest), out=str(out_dir / "run"), seed=0)
    matrix, failed = cmd_extract(cfg)
    print(f"extracted {matrix.shape[0]} tracks x {matrix.shape[1]} features -> {out_dir}/run/features.csv")

    print("\ncolumns per group:")
    for group, count in Counter(matrix.col_groups).items():
        print(f"  {group:10s} {count}")

    track = matrix.row_ids[0]
    print(f"\nselected features for {track}:")
    row = dict(zip(matrix.col_names, matrix.data[0]))
    for name in (
        "spectral_centroid_mean",
        "mfcc_00_mean",
        "chroma_a_mean",
        "tempo_fourier_bpm",
        "danceability_dfa",
        "tg_fourier_r1_bpm",
        "tg_cyclic_fourier_r1_scale",
        "beat_emphasis_60hz",
        "bpm",
    ):
        print(f"  {name:28s} {row[name]:12.4f}")


if len(sys.argv) > 1:
    demo(Path(sys.argv[1]))
else:
    with tempfile.TemporaryDirectory(prefix="edm_atlas_") as tmp:
        demo(Path(tmp))
