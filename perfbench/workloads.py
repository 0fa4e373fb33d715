"""Workload definitions: parameters, input generation and stage sequences.

Inputs are written only through the package's public writers
(``edm_atlas.fixtures.write_fixture_set`` and ``edm_atlas.table.save_matrix``)
and depend only on the workload seed. Every stage runs through
``edm_atlas.cli.main``, exactly as a user would type it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from edm_atlas.fixtures import DEFAULT_FAMILIES, FixtureFamily, write_fixture_set
from edm_atlas.table import FeatureMatrix, save_matrix

SCHEMA_PATH = Path(__file__).with_name("schema.csv")

# "full" is what the benchmark measures; "tiny" only exercises every code
# path quickly for the self-test.
WORKLOADS = {
    "full": {
        "catalog_short": {
            "kind": "audio",
            "per_genre": 20,
            "duration_s": 12.0,
            "rate": 22050,
            "stages": [
                ("extract", ["--workers", "2"]),
                ("cluster", ["--k", "4", "--method", "both"]),
                ("sweep", ["--k-min", "2", "--k-max", "10"]),
                ("profile", []),
                ("plot", []),
            ],
        },
        "extract_long": {
            "kind": "audio",
            "per_genre": 1,
            "duration_s": 360.0,
            "rate": 44100,
            "stages": [("extract", ["--workers", "1"])],
        },
        "analysis_wide": {
            "kind": "matrix",
            "genres": 10,
            "per_genre": 12,
            "stages": [
                ("cluster", ["--k", "10", "--method", "both", "--restarts", "20"]),
                ("sweep", ["--k-min", "5", "--k-max", "15", "--restarts", "20"]),
                ("profile", []),
                ("plot", []),
            ],
        },
    },
    "tiny": {
        "catalog_short": {
            "kind": "audio",
            "per_genre": 5,
            "duration_s": 10.0,
            "rate": 22050,
            "stages": [
                ("extract", ["--workers", "2"]),
                ("cluster", ["--k", "4", "--method", "both", "--restarts", "3"]),
                ("sweep", ["--k-min", "2", "--k-max", "4", "--restarts", "3"]),
                ("profile", []),
                ("plot", []),
            ],
        },
        "extract_long": {
            "kind": "audio",
            "per_genre": 1,
            "duration_s": 20.0,
            "rate": 44100,
            "stages": [("extract", ["--workers", "1"])],
        },
        "analysis_wide": {
            "kind": "matrix",
            "genres": 4,
            "per_genre": 6,
            "stages": [
                ("cluster", ["--k", "4", "--method", "both", "--restarts", "3"]),
                ("sweep", ["--k-min", "2", "--k-max", "5", "--restarts", "3"]),
                ("profile", []),
                ("plot", []),
            ],
        },
    },
}

# Share of schema columns whose mean differs between genres.
INFORMATIVE_SHARE = 0.4


def make_inputs(spec: dict, seed: int, in_dir: Path) -> dict:
    """Write the workload's inputs under ``in_dir``; return what stages need."""
    if spec["kind"] == "audio":
        families = tuple(
            FixtureFamily(f.genre, f.kind, f.bpm, spec["per_genre"]) for f in DEFAULT_FAMILIES
        )
        manifest = write_fixture_set(
            in_dir, families=families, duration=spec["duration_s"], seed=seed, rate=spec["rate"]
        )
        n_tracks = len(families) * spec["per_genre"]
        return {
            "manifest": str(manifest),
            "features": None,
            "tracks": n_tracks,
            "audio_s": n_tracks * spec["duration_s"],
        }
    return _make_matrix_inputs(spec, seed, in_dir)


def _make_matrix_inputs(spec: dict, seed: int, in_dir: Path) -> dict:
    """A genre-structured matrix in the real extraction schema, without audio.

    Each column gets its own scale over five decades; informative columns
    shift per genre; a third of the columns are log-normal so that the
    power transform has skew to remove.
    """
    header, groups_line = SCHEMA_PATH.read_text(encoding="utf-8").splitlines()[:2]
    names = header.split(",")[1:]
    groups = groups_line.split(",")[1:]
    rng = np.random.default_rng(seed)
    n_cols = len(names)
    n_genres, per_genre = spec["genres"], spec["per_genre"]

    scale = 10.0 ** rng.uniform(-2.0, 3.0, n_cols)
    informative = rng.random(n_cols) < INFORMATIVE_SHARE
    skewed = rng.random(n_cols) < 1.0 / 3.0
    centers = rng.normal(0.0, 1.5, (n_genres, n_cols)) * informative
    row_ids, genres, blocks = [], [], []
    for g in range(n_genres):
        block = centers[g] + rng.normal(0.0, 1.0, (per_genre, n_cols))
        blocks.append(np.where(skewed, np.exp(0.5 * block), block) * scale)
        for i in range(per_genre):
            row_ids.append(f"g{g:02d}_t{i:03d}")
            genres.append(f"genre_{g:02d}")

    in_dir.mkdir(parents=True, exist_ok=True)
    features = in_dir / "features.csv"
    save_matrix(FeatureMatrix(row_ids, names, groups, np.vstack(blocks)), features)
    manifest = in_dir / "manifest.csv"
    rows = ["track_id,path,genre,bpm,key,length_s"]
    rows += [f"{rid},{rid}.wav,{genre},,," for rid, genre in zip(row_ids, genres)]
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {"manifest": str(manifest), "features": str(features), "tracks": len(row_ids), "audio_s": 0.0}


def stage_argvs(spec: dict, manifest: str, out_dir: Path, workers: int | None = None):
    """``(stage, argv)`` pairs for ``edm_atlas.cli.main``.

    ``workers`` overrides the extraction worker count (the traced run uses 1
    so that every span is recorded in one process).
    """
    plan = []
    for stage, extra in spec["stages"]:
        extra = list(extra)
        if workers is not None and "--workers" in extra:
            extra[extra.index("--workers") + 1] = str(workers)
        plan.append((stage, [stage, "--manifest", manifest, "--out", str(out_dir), *extra]))
    return plan
