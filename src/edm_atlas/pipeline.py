"""End-to-end orchestration: extract, select, cluster, sweep, profile, plot.

Every stage derives its randomness from the single root seed through a
stage-name hash (``stage_seed``), so a partial rerun of any stage with the
same config reproduces its outputs byte for byte. Stages communicate
through files in the output directory. ``cluster`` is the one stage that
selects features: ``sweep`` and ``plot`` analyse the ``selected.csv`` it
wrote, or the ``--embeddings`` matrix, and refuse a ``selected.csv`` whose
track ids are not those of ``features.csv``. Every file is written through
``table.output``, which creates ``--out`` and renames each file into place
once it is whole. ``cluster`` and ``profile``, after their last write,
remove the files of their own output family that the run did not write:
``cluster`` those of a method it did not run, and under ``--embeddings``
the selection files; ``profile`` the radars of clusters it did not profile.
A stage that fails removes nothing.

* ``features.csv``          extracted feature matrix (extract)
* ``selection_report.csv``  per-feature selection scores (cluster)
* ``selected.csv``          matrix restricted to the selected features (cluster)
* ``labels_<method>.csv`` / ``model_<method>.json``   clustering outputs
* ``report_<method>.json``  evaluation metrics
* ``sweep.csv``             per-k validity indices and consensus
* ``profiles.csv`` / ``profile_cluster_<i>.svg``      cluster profiles
* ``scatter.svg``           PCA projection colored by cluster
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable, get_type_hints

import numpy as np

from . import metrics
from .audio import CANONICAL_RATE, MAX_WAV_FRAMES, read_wav_header, stream_wav
from .cluster import DEFAULT_K_RANGE, KMEANS_RESTARTS, ClusterModel, divisive_cluster, kmeans, select_natural_k
from .features import band_beat_emphasis, fundamental_feature_vector
from .fixtures import DEFAULT_FAMILIES, FixtureFamily, write_fixture_set
from .parallel import pool_map
from .plots import pca_project, radar_svg, scatter_svg
from .selection import DEFAULT_TOP_K, SelectionReport, engineer_features, ensemble_normalize, ensemble_select
from .table import (
    ConfigError,
    FeatureMatrix,
    TrackRecord,
    assemble_matrix,
    import_embeddings,
    load_labels,
    load_manifest,
    load_matrix,
    matrix_row_ids,
    read_text,
    save_labels,
    save_matrix,
    write_text,
)
from .tempogram import MIN_DURATION_S, analyze_track, tempogram_feature_vector
from .trees import MIN_SAMPLES
from .types import FeatureVector

logger = logging.getLogger(__name__)


class StageError(RuntimeError):
    """A pipeline stage failed fatally (maps to exit code 3)."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class RunConfig:
    manifest: str | None = None
    out: str | None = None
    seed: int = 0
    k: int = 35
    k_min: int = DEFAULT_K_RANGE[0]
    k_max: int = DEFAULT_K_RANGE[1]
    restarts: int = KMEANS_RESTARTS
    top_k: int = DEFAULT_TOP_K
    method: str = "kmeans"  # kmeans | divisive | both
    embeddings: str | None = None
    workers: int = field(default_factory=_usable_cpus)
    labels: str | None = None  # labels CSV for profile/plot

    def validate(self) -> None:
        if not self.manifest:
            raise ConfigError("a manifest path is required (--manifest)")
        if not Path(self.manifest).exists():
            raise ConfigError(f"manifest not found: {self.manifest}")
        if self.embeddings and not Path(self.embeddings).exists():
            raise ConfigError(f"embeddings file not found: {self.embeddings}")
        if self.labels and not Path(self.labels).exists():
            raise ConfigError(f"labels file not found: {self.labels}")
        if not self.out:
            raise ConfigError("an output directory is required (--out)")
        if self.method not in ("kmeans", "divisive", "both"):
            raise ConfigError(f"method must be kmeans|divisive|both, got {self.method!r}")
        if self.k < 2:
            raise ConfigError("k must be at least 2")
        if not 2 <= self.k_min <= self.k_max:
            raise ConfigError(f"need 2 <= k-min <= k-max, got [{self.k_min}, {self.k_max}]")
        if self.restarts < 1 or self.top_k < 1 or self.workers < 1:
            raise ConfigError("restarts, top-k, and workers must be positive")


# the config-file keys are RunConfig's fields; int fields parse as integers
_INT_KEYS = {name for name, kind in get_type_hints(RunConfig).items() if kind is int}
_STR_KEYS = {f.name for f in fields(RunConfig)} - _INT_KEYS


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key=value config file (# starts a comment line); ConfigError names a bad file or line."""
    values: dict = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"{path}: {key} must be an integer, got {value!r}") from None
        elif key in _STR_KEYS:
            values[key] = value
        else:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return values


def build_config(file_path: str | None, overrides: dict) -> RunConfig:
    """Defaults < config file < explicit CLI flags."""
    cfg = RunConfig()
    if file_path:
        cfg = replace(cfg, **load_config_file(file_path))
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **cleaned)


def stage_seed(root_seed: int, stage: str) -> int:
    """Per-stage seed: hash of the stage name mixed with the root seed."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# ---------------------------------------------------------------------------
# extraction


def extract_track(record: TrackRecord, base_dir: Path) -> FeatureVector:
    """Full 92 + 64 + 6 feature vector for one manifest record.

    ``analyze_track`` rejects a track shorter than MIN_DURATION_S at 22050 Hz
    from the stream's length, before any sample is decoded. The STFT reads
    the file one frame block's span at a time, decoded and resampled for
    that span only, so no whole-track sample array exists. The track is analysed once (per-frame
    STFT series, novelty curve, both tempograms) and every block reads it.
    """
    wav_path = Path(record.path)
    if not wav_path.is_absolute():
        wav_path = base_dir / wav_path
    analysis = analyze_track(stream_wav(read_wav_header(wav_path), CANONICAL_RATE))
    return FeatureVector.concat(
        [
            fundamental_feature_vector(analysis),
            tempogram_feature_vector(analysis),
            band_beat_emphasis(analysis.series),
        ]
    )


def _extract_worker(base_dir: Path, record: TrackRecord) -> tuple[str, FeatureVector | None, str | None]:
    try:
        return record.track_id, extract_track(record, base_dir), None
    except Exception as exc:  # per-track failures must not abort the batch
        return record.track_id, None, str(exc)


def cmd_extract(cfg: RunConfig) -> tuple[FeatureMatrix, list[str]]:
    """Extract features for every manifest track; returns (matrix, failed_ids)."""
    cfg.validate()
    out_dir = Path(cfg.out)
    records = load_manifest(cfg.manifest)
    base_dir = Path(cfg.manifest).parent
    results = pool_map(_extract_worker, base_dir, records, cfg.workers)

    vectors: dict[str, FeatureVector] = {}
    failed: list[str] = []
    for track_id, vec, err in results:
        if vec is None:
            failed.append(track_id)
            logger.warning("extraction failed for %s: %s", track_id, err)
        else:
            vectors[track_id] = vec
    if not vectors:
        raise StageError("extraction failed for every track")

    kept = [r for r in records if r.track_id in vectors]
    matrix = assemble_matrix(kept, vectors)
    save_matrix(matrix, out_dir / "features.csv")
    logger.info("extracted %d/%d tracks -> %s", len(kept), len(records), out_dir / "features.csv")
    return matrix, failed


# ---------------------------------------------------------------------------
# selection + clustering


def _load_features(cfg: RunConfig) -> tuple[FeatureMatrix, list[str]]:
    path = Path(cfg.out) / "features.csv"
    if not path.exists():
        raise ConfigError(f"{path} not found; run the extract stage first")
    matrix = load_matrix(path)
    records = {r.track_id: r for r in load_manifest(cfg.manifest)}
    missing = [rid for rid in matrix.row_ids if rid not in records]
    if missing:
        raise ConfigError(
            f"{path} holds {len(missing)} tracks not in the manifest {cfg.manifest} "
            f"(first: {', '.join(missing[:5])}); run the extract stage again"
        )
    genres = [records[rid].genre for rid in matrix.row_ids]
    return matrix, genres


def _check_catalog(genres: list[str]) -> None:
    """Reject a catalog the selection scores cannot run on, before any work."""
    counts = Counter(genres)
    single = sorted(g for g, c in counts.items() if c == 1)
    if single:
        raise StageError(
            "feature selection needs at least 2 tracks per genre; "
            f"one track only: {', '.join(single)}"
        )
    if len(genres) < MIN_SAMPLES:
        raise StageError(
            f"feature selection needs at least {MIN_SAMPLES} tracks (the tree forests' minimum), "
            f"got {len(genres)}"
        )


def _class_indices(genres: list[str]) -> np.ndarray:
    """Each track's genre as its index in sorted genre order."""
    index = {g: i for i, g in enumerate(sorted(set(genres)))}
    return np.array([index[g] for g in genres], dtype=np.int64)


def prepare_selected(cfg: RunConfig, matrix: FeatureMatrix, y: np.ndarray) -> tuple[FeatureMatrix, SelectionReport]:
    """engineer -> normalize -> select on the extracted matrix; writes nothing.

    ``y`` holds each track's genre class index.
    """
    engineered = engineer_features(matrix)
    normalized = ensemble_normalize(engineered)
    top_k = min(cfg.top_k, normalized.shape[1])
    if top_k < cfg.top_k:
        logger.warning("top_k clipped to %d available features", top_k)
    return ensemble_select(normalized, y, top_k=top_k, seed=stage_seed(cfg.seed, "select"), workers=cfg.workers)


def _selected_matrix(cfg: RunConfig) -> FeatureMatrix:
    """The matrix ``sweep`` and ``plot`` analyse: the embeddings, else the selection ``cluster`` wrote.

    ``selected.csv`` is read back column-major. ``FeatureMatrix.select``
    gathers columns, so ``cluster`` computes on an F-ordered array, and
    k-means and Calinski-Harabasz round differently on a C-ordered copy of
    the same values (silhouette reads ``metrics.Distances``, which do not
    depend on the layout).

    A ``selected.csv`` whose track ids are not those of the ``features.csv``
    beside it, in the same order, was selected from an earlier extraction
    and is a configuration error. Only the ids are compared: the same ids
    over changed audio still pass.
    """
    if cfg.embeddings:
        return import_embeddings(cfg.embeddings, load_manifest(cfg.manifest))
    path = Path(cfg.out) / "selected.csv"
    if not path.exists():
        raise ConfigError(f"{path} not found; run the cluster stage first or pass --embeddings")
    matrix = load_matrix(path)
    features = Path(cfg.out) / "features.csv"
    if features.exists():
        extracted = matrix_row_ids(features)
        if extracted != matrix.row_ids:
            raise ConfigError(
                f"{path} holds {len(matrix.row_ids)} tracks, not the {len(extracted)} tracks of {features} "
                "in its order; run the cluster stage again"
            )
    matrix.data = np.asfortranarray(matrix.data)
    return matrix


_METHODS = ("kmeans", "divisive")
BOOTSTRAP_RESTARTS = 10  # k-means restarts of each bootstrap clustering


def _fit(distances: metrics.Distances, seed: int, *, method: str, k: int, restarts: int) -> ClusterModel:
    """``method``'s model of ``distances.points`` with at most ``k`` clusters.

    Only k-means runs ``restarts`` restarts, and it reads only the points;
    divisive clustering reads the distances too. ``cluster`` fits its model
    at ``cfg.restarts``; its bootstrap clusterer is this function at
    ``BOOTSTRAP_RESTARTS`` (a ``partial``, which pickles for the pool),
    whose model reads as its labels.
    """
    k = min(k, distances.points.shape[0])
    if method == "kmeans":
        return kmeans(distances.points, k, restarts=restarts, seed=seed)
    return divisive_cluster(distances, k, seed=seed)


# exactly the names f"profile_cluster_{cluster_id}.svg" gives an integer cluster id
_RADAR_NAME = re.compile(r"profile_cluster_(0|-?[1-9][0-9]*)\.svg")


def _remove_stale(out_dir: Path, names: Iterable[str]) -> None:
    """Remove each named output of an earlier run that this stage's run did not write."""
    for name in names:
        path = out_dir / name
        if path.is_file():
            path.unlink()
            logger.info("removed %s: this run did not write it", path)


def cmd_cluster(cfg: RunConfig) -> dict[str, metrics.EvaluationReport]:
    """Select features (unless embeddings are supplied) after every track check, cluster at the fixed k, evaluate.

    The clustering input's distances are computed once, here
    (``metrics.Distances``), and read by the divisive clustering, every
    evaluation and each bootstrap resample of the divisive clusterer.

    After its last write it removes the outputs of a method it did not run,
    under ``--embeddings`` the selection files of an earlier run, and the
    outputs of ``sweep``, ``profile`` and ``plot``, which read the matrix
    and labels this run has rewritten.
    """
    cfg.validate()
    if cfg.embeddings:
        records = load_manifest(cfg.manifest)
        matrix, genres = import_embeddings(cfg.embeddings, records), [r.genre for r in records]
        logger.info("embeddings supplied: selection stage skipped")
    else:
        matrix, genres = _load_features(cfg)
    n = matrix.shape[0]
    if cfg.k >= n:  # the internal indices (Davies-Bouldin, silhouette) need k < n
        raise ConfigError(f"k={cfg.k} must be below the number of tracks ({n})")
    if n < metrics.MIN_BOOTSTRAP_SAMPLES:
        raise StageError(f"the cluster bootstrap needs at least {metrics.MIN_BOOTSTRAP_SAMPLES} tracks, got {n}")
    truth = _class_indices(genres)
    selection = None
    if not cfg.embeddings:
        _check_catalog(genres)
        matrix, selection = prepare_selected(cfg, matrix, truth)
    out_dir = Path(cfg.out)
    if selection is not None:
        selection.write_csv(out_dir / "selection_report.csv")
        save_matrix(matrix, out_dir / "selected.csv")

    methods = _METHODS if cfg.method == "both" else (cfg.method,)
    distances = metrics.Distances.of(matrix.data)
    reports: dict[str, metrics.EvaluationReport] = {}
    for method in methods:
        seed = stage_seed(cfg.seed, f"cluster:{method}")
        model = _fit(distances, seed, method=method, k=cfg.k, restarts=cfg.restarts)
        if model.warning:
            logger.warning("%s: %s", method, model.warning)
        save_labels(out_dir / f"labels_{method}.csv", matrix.row_ids, model.labels)
        model.save(out_dir / f"model_{method}.json")
        context = {
            "method": method,
            "k": model.k,
            "seed": cfg.seed,
            "selection": "skipped" if cfg.embeddings else "applied",
        }
        report = metrics.evaluate_all(
            distances,
            model.labels,
            truth,
            partial(_fit, method=method, k=cfg.k, restarts=BOOTSTRAP_RESTARTS),
            seed=stage_seed(cfg.seed, f"bootstrap:{method}"),
            split_tree=model.split_tree,
            context=context,
            workers=cfg.workers,
        )
        report.save(out_dir / f"report_{method}.json")
        reports[method] = report
        logger.info("%s: k=%d ari=%.4f nmi=%.4f", method, model.k, report.external["ari"], report.external["nmi"])
    stale = ["selected.csv", "selection_report.csv"] if cfg.embeddings else []
    for other in _METHODS:
        if other not in methods:
            stale += [f"labels_{other}.csv", f"model_{other}.json", f"report_{other}.json"]
    stale += ["sweep.csv", "profiles.csv", "scatter.svg"]
    stale += sorted(path.name for path in out_dir.iterdir() if _RADAR_NAME.fullmatch(path.name))
    _remove_stale(out_dir, stale)
    return reports


def cmd_sweep(cfg: RunConfig):
    """Natural-k sweep over [k_min, k_max]; returns the KSweepResult.

    The matrix's distances are computed once, here, and every k reads them.
    """
    cfg.validate()
    matrix = _selected_matrix(cfg)
    if cfg.k_max > matrix.shape[0]:
        raise ConfigError(f"k-max={cfg.k_max} exceeds {matrix.shape[0]} tracks")
    result = select_natural_k(
        metrics.Distances.of(matrix.data),
        (cfg.k_min, cfg.k_max),
        seed=stage_seed(cfg.seed, "sweep"),
        restarts=cfg.restarts,
        workers=cfg.workers,
    )
    result.write_csv(Path(cfg.out) / "sweep.csv")
    print(f"chosen_k={result.chosen_k}")
    return result


# ---------------------------------------------------------------------------
# profiling and plotting


def _resolve_labels_path(cfg: RunConfig) -> Path:
    if cfg.labels:
        return Path(cfg.labels)
    for method in _METHODS:
        candidate = Path(cfg.out) / f"labels_{method}.csv"
        if candidate.exists():
            return candidate
    raise ConfigError("no labels CSV found; run the cluster stage or pass --labels")


def cmd_profile(cfg: RunConfig) -> list[metrics.ClusterProfile]:
    """Six-dimension percentile profiles plus one radar SVG per cluster.

    After its last write it removes every ``profile_cluster_<i>.svg`` this
    run did not write.
    """
    cfg.validate()
    matrix, genres = _load_features(cfg)
    labels = load_labels(_resolve_labels_path(cfg), matrix.row_ids)
    out_dir = Path(cfg.out)
    override = out_dir / "dimension_map.json"
    rules = metrics.load_dimension_rules(override) if override.exists() else None
    profiles = metrics.cluster_profiles(matrix, labels, genres, rules=rules)
    metrics.profiles_to_csv(profiles, out_dir / "profiles.csv")
    for p in profiles:
        axes = [
            (dim.capitalize(), value)
            for dim, value in p.dimensions.items()
            if value is not None
        ]
        svg = radar_svg(f"Cluster {p.cluster_id} ({p.majority_genre})", axes)
        write_text(out_dir / f"profile_cluster_{p.cluster_id}.svg", svg)
    written = {f"profile_cluster_{p.cluster_id}.svg" for p in profiles}
    radars = (path.name for path in out_dir.iterdir() if _RADAR_NAME.fullmatch(path.name))
    _remove_stale(out_dir, sorted(set(radars) - written))
    return profiles


def cmd_plot(cfg: RunConfig) -> Path:
    """PCA scatter of the clustering space, colored by cluster labels.

    A matrix of fewer than 2 columns has no 2-D projection: a configuration
    error that names its file.
    """
    cfg.validate()
    matrix = _selected_matrix(cfg)
    if matrix.shape[1] < 2:
        source = cfg.embeddings or Path(cfg.out) / "selected.csv"
        raise ConfigError(f"{source}: the PCA scatter needs at least 2 feature columns, got {matrix.shape[1]}")
    labels = load_labels(_resolve_labels_path(cfg), matrix.row_ids)
    points, variances = pca_project(matrix.data)
    svg = scatter_svg(
        points,
        labels,
        title=f"PCA projection (var {variances[0]:.3g} / {variances[1]:.3g})",
    )
    out_path = Path(cfg.out) / "scatter.svg"
    write_text(out_path, svg)
    return out_path


def cmd_fixtures(out_dir: str | Path, per_genre: int, duration: float = 12.0, seed: int = 0) -> Path:
    """Write the default fixture families, per_genre tracks each, and their manifest.

    Only catalogs ``extract`` can use: at least 1 track per genre, each at
    least ``MIN_DURATION_S`` long and short enough for a WAV file, from a
    non-negative seed. Every check runs before any file is written.
    """
    if per_genre < 1:
        raise ConfigError(f"tracks-per-genre must be at least 1, got {per_genre}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if not duration >= MIN_DURATION_S:  # also rejects NaN
        raise ConfigError(f"duration must be at least {MIN_DURATION_S:g} s, got {duration:g}")
    if not math.isfinite(duration):
        raise ConfigError(f"duration must be finite, got {duration:g}")
    if round(duration * CANONICAL_RATE) > MAX_WAV_FRAMES:
        raise ConfigError(
            f"duration must be at most {MAX_WAV_FRAMES // CANONICAL_RATE} s, the longest 16-bit mono WAV "
            f"file at {CANONICAL_RATE} Hz, got {duration:g}"
        )
    families = tuple(FixtureFamily(f.genre, f.kind, f.bpm, per_genre) for f in DEFAULT_FAMILIES)
    return write_fixture_set(out_dir, families=families, duration=duration, seed=seed)
