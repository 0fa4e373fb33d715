import codecs
import csv
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from conftest import count_calls, make_blobs, write_clip
from edm_atlas import audio, cluster, features, metrics, parallel, pipeline, tempogram, trees
from edm_atlas.audio import (
    CANONICAL_RATE,
    FRAME_BLOCK,
    N_MEL_BANDS,
    STFT_HOP,
    STFT_WINDOW,
    AudioClip,
    load_wav,
    read_wav_header,
    stream_wav,
)
from edm_atlas.cluster import select_natural_k
from edm_atlas.cli import build_parser
from edm_atlas.cli import main as cli_main
from edm_atlas.features import band_beat_emphasis, fundamental_feature_vector
from edm_atlas.fixtures import DEFAULT_FAMILIES, FixtureFamily, synth_click_track, write_fixture_set
from edm_atlas.pipeline import (
    ConfigError,
    RunConfig,
    build_config,
    cmd_cluster,
    cmd_extract,
    cmd_fixtures,
    cmd_plot,
    cmd_profile,
    cmd_sweep,
    extract_track,
    load_config_file,
    stage_seed,
)
from edm_atlas.plots import pca_project, radar_svg, scatter_svg
from edm_atlas.table import (
    MANIFEST_COLUMNS,
    FeatureMatrix,
    TrackRecord,
    load_labels,
    load_manifest,
    load_matrix,
    save_labels,
    save_matrix,
)
from edm_atlas.tempogram import (
    ANALYSIS_HOP_S,
    ANALYSIS_WINDOW_S,
    N_SCALE_BINS,
    TEMPO_AXIS,
    analyze_track,
    tempogram_feature_vector,
)
from edm_atlas.types import row_blocks


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """One shared 20-track fixture set with extraction + clustering done."""
    base = tmp_path_factory.mktemp("pipeline")
    manifest = cmd_fixtures(base / "audio", per_genre=5, duration=12.0, seed=0)
    cfg = RunConfig(
        manifest=str(manifest), out=str(base / "run"), seed=7,
        k=4, k_min=2, k_max=8, method="both", workers=1,
    )
    cmd_extract(cfg)
    cmd_cluster(cfg)
    return cfg


class TestFixtures:
    def test_default_set_counts(self, tmp_path):
        manifest = cmd_fixtures(tmp_path, per_genre=10, duration=10.0, seed=0)
        records = load_manifest(manifest)
        assert len(records) == 40
        assert len(list(Path(tmp_path).glob("*.wav"))) == 40

    def test_distinct_catalog_bpms(self, tmp_path):
        manifest = cmd_fixtures(tmp_path, per_genre=2, duration=10.0, seed=0)
        records = load_manifest(manifest)
        assert {r.bpm for r in records} == {128.0, 174.0, 70.0, 140.0}

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_fixtures(a, per_genre=2, duration=10.0, seed=3)
        cmd_fixtures(b, per_genre=2, duration=10.0, seed=3)
        for path_a in sorted(a.iterdir()):
            path_b = b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


class TestExtract:
    def test_matrix_shape(self, fixture_run):
        matrix = load_matrix(Path(fixture_run.out) / "features.csv")
        assert matrix.shape == (20, 164)  # 92 + 64 + 6 + bpm + length_s
        groups = matrix.col_groups
        assert groups.count("tempogram") == 64
        assert groups.count("meta") == 2

    def test_unreadable_file_skipped_with_warning(self, tmp_path, caplog):
        manifest = cmd_fixtures(tmp_path / "audio", per_genre=5, duration=11.0, seed=1)
        (tmp_path / "audio" / "kick_house_00.wav").write_bytes(b"not a wav file")
        cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "out"))
        with caplog.at_level("WARNING"):
            matrix, failed = cmd_extract(cfg)
        assert failed == ["kick_house_00"]
        assert matrix.shape[0] == 19
        assert "kick_house_00" in caplog.text

    def test_rerun_identical_csv(self, fixture_run, tmp_path):
        # the default worker count (the CPUs this process may use) must reproduce the sequential bytes
        cfg = RunConfig(manifest=fixture_run.manifest, out=str(tmp_path / "again"), seed=7)
        cmd_extract(cfg)
        original = (Path(fixture_run.out) / "features.csv").read_bytes()
        again = (tmp_path / "again" / "features.csv").read_bytes()
        assert original == again

    def test_parallel_workers_match_sequential(self, fixture_run, tmp_path):
        cfg = RunConfig(
            manifest=fixture_run.manifest, out=str(tmp_path / "par"), seed=7, workers=2
        )
        cmd_extract(cfg)
        seq = (Path(fixture_run.out) / "features.csv").read_bytes()
        par = (tmp_path / "par" / "features.csv").read_bytes()
        assert seq == par


def write_manifest(base: Path, durations: dict[str, float]) -> Path:
    lines = ["track_id,path,genre,bpm,key,length_s"]
    for track_id, seconds in durations.items():
        write_clip(synth_click_track(120, seconds), base / f"{track_id}.wav")
        lines.append(f"{track_id},{track_id}.wav,house,120,,")
    manifest = base / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


class TestOneAnalysisPerTrack:
    @pytest.fixture(scope="class")
    def track(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("one_analysis")
        manifest = cmd_fixtures(base, per_genre=1, duration=12.0, seed=0)
        return load_manifest(manifest)[0], base

    def test_each_layer_runs_once(self, track, monkeypatch):
        counts = {
            name: count_calls(monkeypatch, module, name)
            for module, name in (
                (audio, "stft"),
                (tempogram, "novelty_curve"),
                (tempogram, "fourier_tempogram"),
                (tempogram, "autocorr_tempogram"),
            )
        }
        extract_track(*track)
        assert {name: len(calls) for name, calls in counts.items()} == {
            "stft": 1,
            "novelty_curve": 1,  # the emphasis bands build their curves from their envelopes
            "fourier_tempogram": 1,
            "autocorr_tempogram": 1,
        }

    def test_vector_equals_public_wrappers(self, track):
        record, base = track
        vec = extract_track(record, base)
        clip = load_wav(base / record.path)
        parts = [
            fundamental_feature_vector(analyze_track(clip)),
            tempogram_feature_vector(analyze_track(clip)),
            band_beat_emphasis(analyze_track(clip).series),
        ]
        assert vec.names == [name for part in parts for name in part.names]
        assert vec.values.tobytes() == np.concatenate([part.values for part in parts]).tobytes()


class TestShortTracks:
    @pytest.mark.parametrize("seconds", [0.5, 1.0, 9.9])
    def test_rejected_before_analysis(self, tmp_path, monkeypatch, seconds):
        manifest = write_manifest(tmp_path, {"short": seconds})
        stft_calls = count_calls(monkeypatch, audio, "stft")
        with pytest.raises(ValueError, match="at least 10 s"):
            extract_track(load_manifest(manifest)[0], tmp_path)
        assert stft_calls == []

    @pytest.mark.parametrize("rate", [22050, 44100])
    def test_rejected_from_header(self, tmp_path, monkeypatch, rate):
        # the stream's length, known from the header, decides: the STFT never reads a sample
        write_clip(AudioClip(np.zeros(int(rate * 9.99)), rate), tmp_path / "short.wav")
        stft_calls = count_calls(monkeypatch, audio, "stft")
        with pytest.raises(ValueError, match=r"^track analysis needs at least 10 s of audio, got 9\.99 s$"):
            extract_track(TrackRecord("short", "short.wav", "house"), tmp_path)
        assert stft_calls == []

    def test_floor_applies_at_the_analysis_rate(self, tmp_path):
        # 479,999 frames at 48 kHz last 9.99998 s but resample to 220,500 samples: 10 s at 22050 Hz
        rng = np.random.default_rng(0)
        write_clip(AudioClip(0.5 * rng.uniform(-1.0, 1.0, 479_999), 48000), tmp_path / "edge.wav")
        assert len(extract_track(TrackRecord("edge", "edge.wav", "house"), tmp_path)) == 92 + 64 + 6

    def test_batch_continues(self, tmp_path, caplog):
        manifest = write_manifest(tmp_path, {"half_second": 0.5, "one_second": 1.0, "full": 11.0})
        cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "out"), workers=1)
        with caplog.at_level("WARNING"):
            matrix, failed = cmd_extract(cfg)
        assert failed == ["half_second", "one_second"]
        assert matrix.row_ids == ["full"]
        assert "track analysis needs at least 10 s of audio, got 0.50 s" in caplog.text


class TestExtractionMemory:
    def test_traced_peak_below_clip_and_half_a_spectrogram(self, tmp_path):
        # A 60 s 44.1 kHz track. Holding its whole magnitude spectrogram, or
        # its whole 44.1 kHz samples next to the clip, goes over the bound.
        rng = np.random.default_rng(0)
        write_clip(AudioClip(0.5 * rng.uniform(-1.0, 1.0, 60 * 44100), 44100), tmp_path / "long.wav")
        n = 60 * 22050
        clip_bytes = 8 * n
        spectrogram_bytes = 8 * (1 + (n - STFT_WINDOW) // STFT_HOP) * (STFT_WINDOW // 2 + 1)
        extract_track(TrackRecord("long", "long.wav", "house"), tmp_path)  # scipy.signal is imported untraced
        tracemalloc.start()
        try:
            extract_track(TrackRecord("long", "long.wav", "house"), tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < clip_bytes + spectrogram_bytes / 2

    def test_traced_peak_grows_slower_than_the_clip(self, tmp_path):
        # Only the per-frame series may grow with the track. A 22050 Hz clip
        # grows by 10.6 MB a minute; the traced peak must grow by less than half that.
        rng = np.random.default_rng(1)
        for seconds in (60, 120):
            write_clip(AudioClip(0.5 * rng.uniform(-1.0, 1.0, seconds * 44100), 44100), tmp_path / f"t{seconds}.wav")
        extract_track(TrackRecord("t60", "t60.wav", "house"), tmp_path)  # scipy.signal is imported untraced
        peaks = []
        for seconds in (60, 120):
            tracemalloc.start()
            try:
                extract_track(TrackRecord(f"t{seconds}", f"t{seconds}.wav", "house"), tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 8 * 60 * 22050

    def test_layer_peaks_at_60_and_600_s(self, tmp_path, monkeypatch):
        # tracemalloc.reset_peak around each layer of one extraction gives the
        # layer's own traced peak, here taken above what was held when it began
        # and what it returns. The STFT pass and the autocorrelation tempogram
        # hold only block-sized temporaries beyond that, so theirs is the same
        # at 60 s as at 600 s. The other layers keep whole-track arrays, each
        # bounded by a count of them in frames or analysis windows.
        layers = [(tempogram, "stft"), (tempogram, "autocorr_tempogram")]
        layers += [(features, "mfcc_features"), (features, "chroma_features")]
        layers += [(tempogram, "novelty_curve"), (tempogram, "fourier_tempogram")]
        layers += [(pipeline, "tempogram_feature_vector"), (pipeline, "band_beat_emphasis")]
        excess = {name: [] for _, name in layers}
        for module, name in layers:

            def traced(arg, _layer=getattr(module, name), _excess=excess[name]):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = _layer(arg)
                returned = sum(a.nbytes for a in vars(result).values() if isinstance(a, np.ndarray))
                _excess.append(tracemalloc.get_traced_memory()[1] - held - returned)
                return result

            monkeypatch.setattr(module, name, traced)
        families = (FixtureFamily("kick_house", "kick", 128.0, 1),)
        record = TrackRecord("kick_house_00", "kick_house_00.wav", "kick_house")
        for seconds in (60, 600):
            write_fixture_set(tmp_path / f"s{seconds}", families=families, duration=float(seconds), seed=0)
        extract_track(record, tmp_path / "s60")  # warm-up: imports and the cached Fourier kernel
        steady = {}
        # The STFT's helper thread allocates while the reduction does, so the
        # pass's peak depends on when their allocations meet. Ten 60 s passes
        # have as many frame blocks as one 600 s pass, and so as many chances
        # to meet; each layer's peak is the largest of its runs.
        for seconds, runs in ((60, 10), (600, 1)):
            for found in excess.values():
                found.clear()
            for _ in range(runs):
                tracemalloc.start()
                try:
                    extract_track(record, tmp_path / f"s{seconds}")
                finally:
                    tracemalloc.stop()
            assert all(len(found) == runs for found in excess.values()), excess
            peak = {name: max(found) for name, found in excess.items()}
            n = 1 + (seconds * CANONICAL_RATE - STFT_WINDOW) // STFT_HOP
            longest = max(stop - start for start, stop in row_blocks(n, FRAME_BLOCK))
            # per block: np.maximum, np.log and the DCT of its log mel energies;
            # np.std's reduction adds numpy's ufunc buffer
            temporaries = 8 * (3 * longest * N_MEL_BANDS + np.getbufsize())
            # the coefficients and one array of their shape (deviations or deltas)
            assert peak["mfcc_features"] <= 8 * 2 * 13 * n + temporaries, (seconds, peak)
            # the normalized chroma, its deviations, and two per-frame series
            assert peak["chroma_features"] <= 8 * (2 * 12 + 2) * n + temporaries, (seconds, peak)
            # besides their arrays, the Python objects around them: headers, feature names, results
            objects = 32 * 1024
            # the novelty curve's local sums, their counts, and its difference before rectification
            assert peak["novelty_curve"] <= 8 * 3 * n + objects, (seconds, peak)
            # per band: its envelope and its log compression, the curve and scaled
            # curve of the band before, and the five arrays of its local-mean removal
            assert peak["band_beat_emphasis"] <= 8 * 9 * n + objects, (seconds, peak)
            frame_rate = CANONICAL_RATE / STFT_HOP
            win = int(round(ANALYSIS_WINDOW_S * frame_rate))
            windows = 1 + (n - 1 - win) // int(round(ANALYSIS_HOP_S * frame_rate))
            # the complex product and the windows cast to complex for it, 16 bytes
            # a value each; the magnitudes returned do not exist yet at that peak
            assert peak["fourier_tempogram"] <= 8 * windows * (TEMPO_AXIS.size + 2 * win) + objects, (seconds, peak)
            # np.std's deviations of one tempogram next to both cyclic tempograms,
            # and numpy's ufunc buffer for its reduction
            summaries = 8 * (windows * (TEMPO_AXIS.size + 2 * N_SCALE_BINS) + np.getbufsize()) + objects
            assert peak["tempogram_feature_vector"] <= summaries, (seconds, peak)
            steady[seconds] = {name: peak[name] for name in ("stft", "autocorr_tempogram")}
        for name in steady[60]:
            assert abs(steady[600][name] - steady[60][name]) <= 500_000, (name, steady)


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.fixture
def recording_pool(monkeypatch):
    """Every pool the package starts is a _RecordingPool; returns its size log."""
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    for name in ("_worker_task", "_worker_shared"):  # the stand-in installs them in this process
        monkeypatch.setattr(parallel, name, None)
    return _RecordingPool.sizes


class TestExtractWorkers:
    @pytest.mark.parametrize(("tracks", "expected"), [(1, []), (2, [2])])
    def test_pool_no_larger_than_job_count(self, tmp_path, recording_pool, tracks, expected):
        manifest = write_manifest(tmp_path, {f"t{i}": 10.0 for i in range(tracks)})
        cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "out"), workers=8)
        matrix, failed = cmd_extract(cfg)
        assert _RecordingPool.sizes == expected
        assert matrix.shape[0] == tracks and failed == []

    def test_one_process_leaves_only_the_main_thread(self, tmp_path):
        # the later stages fork pools from this process, and forking a
        # multi-threaded process warns on Python 3.12
        manifest = write_manifest(tmp_path, {"t0": 10.0, "t1": 10.0})
        matrix, failed = cmd_extract(RunConfig(manifest=str(manifest), out=str(tmp_path / "out"), workers=1))
        assert matrix.shape[0] == 2 and failed == []
        assert threading.enumerate() == [threading.main_thread()]


def forest_case(seed=5):
    """A small labelled matrix of noise, which the forests split many times."""
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, (30, 6)), np.repeat(np.arange(3), 10)


class TestAnalysisWorkers:
    """The forests, the bootstrap and the sweep size their pools as extraction does."""

    @pytest.mark.parametrize(("workers", "expected"), [(1, []), (3, [3]), (500, [trees.N_TREES])])
    def test_forest_pool_size(self, recording_pool, workers, expected):
        data, truth = forest_case()
        for mode in ("random_forest", "extra_trees"):
            trees.forest_gini_importance(data, truth, mode=mode, seed=1, workers=workers)
        assert recording_pool == expected * 2

    def test_selection_pool_sizes(self, fixture_run, recording_pool):
        matrix, genres = pipeline._load_features(fixture_run)
        cfg = replace(fixture_run, workers=2)
        selected, _ = pipeline.prepare_selected(cfg, matrix, pipeline._class_indices(genres))
        assert recording_pool == [2, 2]  # one pool per forest
        want = load_matrix(Path(fixture_run.out) / "selected.csv")  # cluster's, at one worker
        assert (selected.row_ids, selected.col_names) == (want.row_ids, want.col_names)
        assert selected.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize(
        ("workers", "B", "expected"), [(1, 6, []), (8, 1, []), (8, 6, [6]), (3, 6, [3])]
    )
    def test_bootstrap_pool_size(self, recording_pool, workers, B, expected):
        data = np.repeat(np.arange(4.0), 5)[:, None]
        clusterer = partial(pipeline._fit, method="kmeans", k=4, restarts=pipeline.BOOTSTRAP_RESTARTS)
        metrics.cophenetic_bootstrap(metrics.Distances.of(data), clusterer, B=B, seed=0, workers=workers)
        assert recording_pool == expected

    @pytest.mark.parametrize(
        ("workers", "k_range", "expected"), [(1, (2, 5), []), (8, (3, 3), []), (8, (2, 5), [4]), (3, (2, 5), [3])]
    )
    def test_sweep_pool_size(self, recording_pool, workers, k_range, expected):
        data = np.repeat(np.arange(4.0), 5)[:, None]
        select_natural_k(metrics.Distances.of(data), k_range, seed=0, restarts=2, workers=workers)
        assert recording_pool == expected

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_any_start_method_matches_in_process(self, monkeypatch, method):
        # workers start from a fresh import under spawn/forkserver: nothing may rest on fork
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context))
        data = make_blobs(3, 8, dim=2, seed=5)[0]
        clusterer = partial(pipeline._fit, method="divisive", k=3, restarts=pipeline.BOOTSTRAP_RESTARTS)
        distances = metrics.Distances.of(data)
        pooled = metrics.cophenetic_bootstrap(distances, clusterer, B=4, seed=2, workers=2)
        assert pooled == metrics.cophenetic_bootstrap(distances, clusterer, B=4, seed=2, workers=1)
        pooled = select_natural_k(distances, (2, 4), seed=2, restarts=2, workers=2)
        single = select_natural_k(distances, (2, 4), seed=2, restarts=2, workers=1)
        assert pooled.consensus.tobytes() == single.consensus.tobytes()
        data, truth = forest_case()
        for mode in ("random_forest", "extra_trees"):
            pooled = trees.forest_gini_importance(data, truth, mode=mode, seed=2, workers=2)
            single = trees.forest_gini_importance(data, truth, mode=mode, seed=2, workers=1)
            assert pooled.tobytes() == single.tobytes()

    def test_tasks_and_clusterers_pickle(self):
        data = np.arange(20.0)[:, None]
        for task in (metrics._resample, cluster._sweep_point, pipeline._extract_worker, trees._grow_tree):
            assert pickle.loads(pickle.dumps(task)) is task  # sent by import path
        child = np.random.SeedSequence(3).spawn(1)[0]
        distances = metrics.Distances.of(data)
        for method in pipeline._METHODS:
            clusterer = partial(pipeline._fit, method=method, k=4, restarts=pipeline.BOOTSTRAP_RESTARTS)
            shared, item = pickle.loads(pickle.dumps(((clusterer, distances), (child, 4))))
            idx, labels = metrics._resample(shared, item)
            want_idx, want_labels = metrics._resample((clusterer, distances), (child, 4))
            assert np.array_equal(idx, want_idx) and np.array_equal(labels, want_labels)


class TestCluster:
    def test_distances_computed_once_per_stage(self, fixture_run, tmp_path, monkeypatch):
        # at one worker every bootstrap resample runs here, so a recomputation anywhere would count
        cfg = replace(fixture_run, out=str(tmp_path / "run"), method="both", restarts=3, workers=1)
        Path(cfg.out).mkdir()
        (Path(cfg.out) / "features.csv").write_bytes((Path(fixture_run.out) / "features.csv").read_bytes())
        n = len(load_matrix(Path(cfg.out) / "features.csv").row_ids)
        original = metrics.Distances.of
        rows = []

        def of(data):
            rows.append(np.shape(data)[0])
            return original(data)

        monkeypatch.setattr(metrics.Distances, "of", staticmethod(of))
        cmd_cluster(cfg)
        assert rows.count(n) == 1  # the others are davies_bouldin's centroids
        rows.clear()
        cmd_sweep(cfg)
        assert rows == [n]

    def test_four_families_perfect_recovery(self, fixture_run):
        report = json.loads((Path(fixture_run.out) / "report_kmeans.json").read_text())
        assert report["external"]["ari"] == 1.0
        assert report["external"]["nmi"] == 1.0

    def test_method_both_writes_two_reports(self, fixture_run):
        out = Path(fixture_run.out)
        assert (out / "report_kmeans.json").exists()
        assert (out / "report_divisive.json").exists()
        assert (out / "labels_kmeans.csv").exists()
        assert (out / "model_divisive.json").exists()

    def test_divisive_sidecar_has_split_tree(self, fixture_run):
        sidecar = json.loads((Path(fixture_run.out) / "model_divisive.json").read_text())
        assert sidecar["method"] == "divisive"
        assert sidecar["split_tree"]["children"] is not None
        assert sidecar["schema_version"] == 1

    def test_reentrant_without_audio(self, fixture_run, tmp_path):
        # cluster works from the cached matrix even if the audio disappears
        moved = tmp_path / "moved_manifest.csv"
        records = Path(fixture_run.manifest).read_text()
        moved.write_text(records)
        out = tmp_path / "run"
        out.mkdir()
        (out / "features.csv").write_bytes((Path(fixture_run.out) / "features.csv").read_bytes())
        cfg = RunConfig(
            manifest=str(moved), out=str(out), seed=7, k=4, method="kmeans"
        )
        reports = cmd_cluster(cfg)
        assert reports["kmeans"].external["ari"] == 1.0

    def test_embeddings_skip_selection(self, fixture_run, tmp_path):
        records = load_manifest(fixture_run.manifest)
        rng = np.random.default_rng(0)
        dims = 16
        lines = ["track_id," + ",".join(f"e{i}" for i in range(dims))]
        for j, rec in enumerate(records):
            center = j // 5
            vals = rng.normal(center * 10, 0.2, dims)
            lines.append(rec.track_id + "," + ",".join(repr(float(v)) for v in vals))
        emb_path = tmp_path / "embeddings.csv"
        emb_path.write_text("\n".join(lines) + "\n")
        cfg = RunConfig(
            manifest=fixture_run.manifest, out=str(tmp_path / "emb_run"),
            seed=7, k=4, embeddings=str(emb_path),
        )
        reports = cmd_cluster(cfg)
        assert reports["kmeans"].context["selection"] == "skipped"
        assert reports["kmeans"].external["ari"] == 1.0

    def test_selection_artifacts_written(self, fixture_run):
        out = Path(fixture_run.out)
        report_lines = (out / "selection_report.csv").read_text().splitlines()
        selected = load_matrix(out / "selected.csv")
        assert selected.shape == (20, 100)
        assert sum(line.endswith(",1") for line in report_lines[1:]) == 100


class TestOneSelectionWriter:
    """Only cluster selects and writes the selection files; sweep and plot read selected.csv."""

    FILES = ("selected.csv", "selection_report.csv")

    def clustered(self, fixture_run, tmp_path) -> Path:
        """A run directory as cluster (seed 7) left it."""
        out = tmp_path / "run"
        out.mkdir()
        for name in ("features.csv", "labels_kmeans.csv", *self.FILES):
            (out / name).write_bytes((Path(fixture_run.out) / name).read_bytes())
        return out

    def selection_bytes(self, out: Path) -> dict:
        return {name: (out / name).read_bytes() for name in self.FILES if (out / name).exists()}

    @pytest.mark.parametrize("flags", [["--top-k", "50"], ["--seed", "3"]], ids=["top_k", "seed"])
    def test_sweep_leaves_selection_files(self, fixture_run, tmp_path, flags):
        out = self.clustered(fixture_run, tmp_path)
        before = self.selection_bytes(out)
        argv = ["sweep", "--manifest", fixture_run.manifest, "--out", str(out), "--seed", "7", "--workers", "1"]
        assert cli_main([*argv, "--k-min", "2", "--k-max", "4", "--restarts", "2", *flags]) == 0
        assert (out / "sweep.csv").exists()
        assert self.selection_bytes(out) == before

    def test_plot_without_selected_csv_writes_none(self, fixture_run, tmp_path, capsys):
        out = self.clustered(fixture_run, tmp_path)
        (out / "selected.csv").unlink()
        before = self.selection_bytes(out)
        argv = ["plot", "--manifest", fixture_run.manifest, "--out", str(out), "--seed", "7", "--workers", "1"]
        assert cli_main(argv) == 2
        assert f"{out / 'selected.csv'} not found; run the cluster stage first" in capsys.readouterr().err
        assert not (out / "scatter.svg").exists()
        assert self.selection_bytes(out) == before  # selected.csv stays absent

    def test_selection_of_an_earlier_extraction_exits_two(self, fixture_run, tmp_path, capsys):
        # cluster ran on 20 tracks; extract then rewrites features.csv from a 15-track manifest
        out = self.clustered(fixture_run, tmp_path)
        audio_dir = Path(fixture_run.manifest).parent
        header, *records = csv.reader(Path(fixture_run.manifest).read_text(encoding="utf-8").splitlines())
        manifest = write_rows(
            tmp_path / "manifest.csv", [header, *([tid, audio_dir / wav, *rest] for tid, wav, *rest in records[:15])]
        )
        common = ["--manifest", str(manifest), "--out", str(out), "--workers", "1"]
        assert cli_main(["extract", *common]) == 0
        assert load_matrix(out / "features.csv").shape[0] == 15
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for argv in (["sweep", *common, "--k-min", "2", "--k-max", "4", "--restarts", "2"], ["plot", *common]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"{out / 'selected.csv'} holds 20 tracks, not the 15 tracks of {out / 'features.csv'}" in err
            assert "run the cluster stage again" in err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_one_selection_per_run(self, fixture_run, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        (out / "features.csv").write_bytes((Path(fixture_run.out) / "features.csv").read_bytes())
        calls = count_calls(monkeypatch, pipeline, "prepare_selected")
        common = ["--manifest", fixture_run.manifest, "--out", str(out), "--workers", "1"]
        assert cli_main(["cluster", *common, "--k", "4", "--restarts", "2"]) == 0
        assert cli_main(["sweep", *common, "--k-min", "2", "--k-max", "4", "--restarts", "2"]) == 0
        assert cli_main(["plot", *common]) == 0
        assert calls == ["prepare_selected"]

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_sweep_equals_sweep_of_in_memory_selection(self, fixture_run, tmp_path, seed):
        # selected.csv read back column-major sweeps bit for bit as the selection cluster computed on
        cfg = replace(fixture_run, out=str(tmp_path / "run"), seed=seed, method="kmeans", restarts=3)
        Path(cfg.out).mkdir()
        (Path(cfg.out) / "features.csv").write_bytes((Path(fixture_run.out) / "features.csv").read_bytes())
        cmd_cluster(cfg)
        got = cmd_sweep(cfg)
        matrix, genres = pipeline._load_features(cfg)
        selected, _ = pipeline.prepare_selected(cfg, matrix, pipeline._class_indices(genres))
        want = select_natural_k(
            metrics.Distances.of(selected.data),
            (cfg.k_min, cfg.k_max),
            seed=stage_seed(seed, "sweep"),
            restarts=cfg.restarts,
            workers=1,
        )
        assert got.chosen_k == want.chosen_k
        for f in fields(want):
            if f.name != "chosen_k":
                assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name

    def test_sweep_without_selected_csv_exits_two_unless_embeddings(self, fixture_run, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "features.csv").write_bytes((Path(fixture_run.out) / "features.csv").read_bytes())
        argv = ["sweep", "--manifest", fixture_run.manifest, "--out", str(out), "--workers", "1"]
        argv += ["--k-min", "2", "--k-max", "4", "--restarts", "2"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert f"{out / 'selected.csv'} not found; run the cluster stage first or pass --embeddings" in err
        assert sorted(p.name for p in out.iterdir()) == ["features.csv"]

        rng = np.random.default_rng(0)
        ids = load_matrix(out / "features.csv").row_ids
        emb = write_rows(
            tmp_path / "emb.csv",
            [["track_id", "e0", "e1"], *([tid, *rng.normal(j // 5, 0.3, 2)] for j, tid in enumerate(ids))],
        )
        assert cli_main([*argv, "--embeddings", str(emb)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["features.csv", "sweep.csv"]


class TestLabelsOfAnotherClustering:
    """profile and plot refuse labels that hold tracks the matrix they analyse does not."""

    @pytest.mark.parametrize("stage", ["profile", "plot"])
    def test_fewer_tracks_extracted(self, fixture_run, tmp_path, capsys, stage):
        # a 15-track extraction into a directory whose labels came from the 20-track cluster
        out = tmp_path / "run"
        out.mkdir()
        for name in ("labels_kmeans.csv", "labels_divisive.csv"):
            (out / name).write_bytes((Path(fixture_run.out) / name).read_bytes())
        for name in ("features.csv", "selected.csv"):
            m = load_matrix(Path(fixture_run.out) / name)
            save_matrix(FeatureMatrix(m.row_ids[:15], m.col_names, m.col_groups, m.data[:15]), out / name)
        argv = [stage, "--manifest", fixture_run.manifest, "--out", str(out), "--workers", "1"]
        assert cli_main(argv) == 2
        extra = load_matrix(Path(fixture_run.out) / "features.csv").row_ids[15:]
        err = capsys.readouterr().err
        assert f"{out / 'labels_kmeans.csv'}: labels for tracks {extra} not among the 15 analysed" in err
        assert not list(out.glob("*.svg")) and not (out / "profiles.csv").exists()


class TestFeaturesOfAnotherManifest:
    """cluster and profile refuse a features.csv that holds tracks the manifest lacks."""

    @pytest.mark.parametrize("stage", ["cluster", "profile"])
    def test_exits_two_naming_both_files(self, fixture_run, tmp_path, capsys, stage):
        # the 20-track extraction beside a manifest cut to its first 12 tracks
        out = tmp_path / "run"
        out.mkdir()
        for name in ("features.csv", "labels_kmeans.csv"):
            (out / name).write_bytes((Path(fixture_run.out) / name).read_bytes())
        lines = Path(fixture_run.manifest).read_text(encoding="utf-8").splitlines(keepends=True)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("".join(lines[:13]), encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli_main([stage, "--manifest", str(manifest), "--out", str(out), "--workers", "1"]) == 2
        kept = {line.split(",")[0] for line in lines[1:13]}
        extra = [tid for tid in load_matrix(out / "features.csv").row_ids if tid not in kept]
        assert capsys.readouterr().err == (
            f"configuration error: {out / 'features.csv'} holds 8 tracks not in the manifest {manifest} "
            f"(first: {', '.join(extra[:5])}); run the extract stage again\n"
        )
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestStaleOutputs:
    """cluster and profile remove the files of their own output family that the run did not write."""

    CLUSTERED = (
        "features.csv", "selected.csv", "selection_report.csv",
        "labels_kmeans.csv", "model_kmeans.json", "report_kmeans.json",
        "labels_divisive.csv", "model_divisive.json", "report_divisive.json",
    )

    def clustered(self, fixture_run, tmp_path) -> Path:
        """A run directory as ``cluster --k 4 --method both`` (seed 7) left it."""
        out = tmp_path / "run"
        out.mkdir()
        for name in self.CLUSTERED:
            (out / name).write_bytes((Path(fixture_run.out) / name).read_bytes())
        return out

    @staticmethod
    def radars(out: Path) -> list[str]:
        return sorted(p.name for p in out.glob("profile_cluster_*.svg"))

    def test_recluster_then_profile(self, fixture_run, tmp_path):
        # cluster --k 4 --method both and profile, then cluster --k 3 --method divisive and profile
        out = self.clustered(fixture_run, tmp_path)
        # the profile's own input, and names profile never gives a radar, stay as they are
        kept = {"dimension_map.json": b"{}\n", "profile_cluster_01.svg": b"", "profile_cluster_x.svg": b""}
        (out / "sweep.csv").write_bytes(b"k\n")
        for name, data in kept.items():
            (out / name).write_bytes(data)
        common = ["--manifest", fixture_run.manifest, "--out", str(out), "--seed", "7", "--workers", "1"]
        assert cli_main(["profile", *common]) == 0
        others = ["profile_cluster_01.svg", "profile_cluster_x.svg"]
        assert self.radars(out) == sorted([f"profile_cluster_{i}.svg" for i in range(4)] + others)

        # a cluster run that fails removes nothing
        before = sorted(p.name for p in out.iterdir())
        assert cli_main(["cluster", *common, "--k", "20", "--method", "divisive"]) == 2
        assert sorted(p.name for p in out.iterdir()) == before

        assert cli_main(["cluster", *common, "--k", "3", "--method", "divisive", "--restarts", "3"]) == 0
        assert not [p.name for p in out.glob("*_kmeans.*")]
        # the sweep, profiles and radars of the old labels go with them
        assert not (out / "sweep.csv").exists() and not (out / "profiles.csv").exists()
        assert self.radars(out) == others
        assert cli_main(["profile", *common]) == 0
        assert self.radars(out) == sorted([f"profile_cluster_{i}.svg" for i in range(3)] + others)
        with (out / "profiles.csv").open(newline="", encoding="utf-8") as fh:
            assert [row["cluster"] for row in csv.DictReader(fh)] == ["#schema_version:1", "0", "1", "2"]
        assert {name: (out / name).read_bytes() for name in kept} == kept

    def test_embeddings_remove_the_selection(self, fixture_run, tmp_path, capsys):
        out = self.clustered(fixture_run, tmp_path)
        rng = np.random.default_rng(0)
        ids = load_matrix(out / "features.csv").row_ids
        emb = write_rows(
            tmp_path / "emb.csv",
            [["track_id", "e0", "e1"], *([tid, *rng.normal(j // 5, 0.3, 2)] for j, tid in enumerate(ids))],
        )
        common = ["--manifest", fixture_run.manifest, "--out", str(out), "--workers", "1"]
        # every later stage's output reads the matrix and labels the next cluster rewrites
        assert cli_main(["sweep", *common, "--k-min", "2", "--k-max", "4", "--restarts", "2"]) == 0
        assert cli_main(["profile", *common]) == 0
        assert cli_main(["plot", *common]) == 0
        later = {"sweep.csv", "profiles.csv", "scatter.svg", *(f"profile_cluster_{i}.svg" for i in range(4))}
        assert later <= {p.name for p in out.iterdir()}
        assert cli_main(["cluster", *common, "--k", "4", "--restarts", "3", "--embeddings", str(emb)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["features.csv", "labels_kmeans.csv", "model_kmeans.json", "report_kmeans.json"]
        capsys.readouterr()
        assert cli_main(["plot", *common]) == 2
        assert f"{out / 'selected.csv'} not found; run the cluster stage first" in capsys.readouterr().err
        assert not (out / "scatter.svg").exists()


class TestSweep:
    def test_sweep_rows_and_chosen_k(self, fixture_run, capsys):
        result = cmd_sweep(fixture_run)
        assert result.chosen_k == 4
        out = capsys.readouterr().out
        assert "chosen_k=4" in out
        lines = (Path(fixture_run.out) / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + (fixture_run.k_max - fixture_run.k_min + 1)

    def test_rerun_same_chosen_k(self, fixture_run):
        a = cmd_sweep(fixture_run)
        b = cmd_sweep(fixture_run)
        assert a.chosen_k == b.chosen_k
        assert np.array_equal(a.consensus, b.consensus)


class TestProfileAndPlot:
    def test_profiles_csv_and_svgs(self, fixture_run):
        profiles = cmd_profile(fixture_run)
        out = Path(fixture_run.out)
        assert len(profiles) == 4
        svgs = sorted(out.glob("profile_cluster_*.svg"))
        assert len(svgs) == 4
        for svg in svgs:
            ET.fromstring(svg.read_text())  # well-formed XML
        lines = (out / "profiles.csv").read_text().splitlines()
        assert len(lines) == 6  # header + schema line + 4 clusters
        for line in lines[2:]:
            for cell in line.split(",")[4:]:
                if cell:
                    assert 0.0 <= float(cell) <= 100.0

    def test_high_tempo_cluster_maximal(self, tmp_path):
        # two beat-driven families far apart in tempo; labels follow genre
        families = (
            FixtureFamily("slow_kick", "kick", 85.0, n_tracks=3),
            FixtureFamily("fast_click", "click", 174.0, n_tracks=3),
        )
        manifest = write_fixture_set(tmp_path / "audio", families=families, duration=11.0, seed=0)
        cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "run"), seed=0)
        matrix, _ = cmd_extract(cfg)
        labels_path = tmp_path / "run" / "labels_genre.csv"
        lines = ["track_id,label"] + [
            f"{rid},{int(rid.startswith('fast'))}" for rid in matrix.row_ids
        ]
        labels_path.write_text("\n".join(lines) + "\n")
        cfg.labels = str(labels_path)
        profiles = cmd_profile(cfg)
        fast = next(p for p in profiles if p.majority_genre == "fast_click")
        assert fast.dimensions["tempo"] == 100.0

    def test_dimension_map_override(self, fixture_run):
        # a user mapping file in the out dir replaces the built-in rules
        override = {
            "energy": [["mfcc_00"], []],
            "danceability": [["danceability"], []],
            "tempo": [["bpm"], []],
            "harmonic": [["chroma"], []],
            "rhythmic": [[], ["tempogram"]],
            "electronic": [["spectral_"], []],
        }
        path = Path(fixture_run.out) / "dimension_map.json"
        path.write_text(json.dumps(override))
        try:
            profiles = cmd_profile(fixture_run)
            assert all(p.dimensions["energy"] is not None for p in profiles)
        finally:
            path.unlink()

    def test_scatter_svg(self, fixture_run):
        path = cmd_plot(fixture_run)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")

    def test_pca_variance_ordering(self, fixture_run):
        matrix = load_matrix(Path(fixture_run.out) / "selected.csv")
        points, variances = pca_project(matrix.data)
        assert variances[0] >= variances[1]

    def test_pca_separates_far_blobs(self):
        rng = np.random.default_rng(0)
        data = np.vstack([rng.normal(0, 1, (40, 5)), rng.normal(50, 1, (40, 5))])
        points, _ = pca_project(data)
        gap = abs(points[:40, 0].mean() - points[40:, 0].mean())
        within = max(points[:40, 0].std(), points[40:, 0].std())
        assert gap > 5 * within


class TestConfig:
    def test_file_and_flag_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("k=12\nseed=5\nmethod=divisive\n# comment\n\nworkers=2\n")
        cfg = build_config(str(conf), {"seed": 9, "k": None})
        assert cfg.k == 12  # from file
        assert cfg.seed == 9  # flag overrides
        assert cfg.method == "divisive"
        assert cfg.workers == 2

    def test_default_workers_follow_affinity(self, monkeypatch):
        # a process pinned to 2 of 64 CPUs must not start 64 workers
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {3, 7}, raising=False)
        assert RunConfig().workers == 2
        monkeypatch.delattr(pipeline.os, "sched_getaffinity")
        assert RunConfig().workers == 64
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)
        assert RunConfig().workers == 1

    def test_unknown_key(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("wat=1\n")
        with pytest.raises(ConfigError, match="wat"):
            load_config_file(conf)

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet and Windows editors start a UTF-8 file with one
        conf = tmp_path / "run.conf"
        conf.write_bytes(codecs.BOM_UTF8 + b"seed=3\nmethod=both\n")
        assert load_config_file(conf) == {"seed": 3, "method": "both"}

    def test_non_integer_value(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("k=many\n")
        with pytest.raises(ConfigError, match="k"):
            load_config_file(conf)

    def test_every_field_is_flag_and_file_key(self, tmp_path):
        parser = build_parser()
        hints = get_type_hints(RunConfig)
        for f in fields(RunConfig):
            is_int = hints[f.name] is int
            text = {"method": "divisive"}.get(f.name, "3" if is_int else "some/path")
            expected = int(text) if is_int else text
            args = parser.parse_args(["cluster", "--" + f.name.replace("_", "-"), text])
            assert getattr(args, f.name) == expected, f.name
            conf = tmp_path / f"{f.name}.conf"
            conf.write_text(f"{f.name}={text}\n")
            assert load_config_file(conf) == {f.name: expected}
            if is_int:
                conf.write_text(f"{f.name}=many\n")
                with pytest.raises(ConfigError, match=f"{f.name} must be an integer"):
                    load_config_file(conf)

    def test_validate_rejects_bad_method(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("track_id,path,genre,bpm,key,length_s\na,a.wav,house,,,\n")
        cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "run"), method="agglomerative")
        with pytest.raises(ConfigError, match="method must be"):
            cfg.validate()

    def test_stage_seed_deterministic_and_distinct(self):
        assert stage_seed(7, "sweep") == stage_seed(7, "sweep")
        assert stage_seed(7, "sweep") != stage_seed(7, "select")
        assert stage_seed(7, "sweep") != stage_seed(8, "sweep")


class TestCliExitCodes:
    def test_log_level_env_mapping(self):
        from edm_atlas.cli import LOG_LEVELS

        assert set(LOG_LEVELS) == {"error", "warn", "info", "debug"}

    def test_full_cli_flow(self, tmp_path, capsys):
        audio = tmp_path / "audio"
        out = tmp_path / "run"
        assert cli_main(["fixtures", "--out", str(audio), "--tracks-per-genre", "5", "--seed", "0"]) == 0
        manifest = str(audio / "manifest.csv")
        assert cli_main(["extract", "--manifest", manifest, "--out", str(out)]) == 0
        assert cli_main(["cluster", "--manifest", manifest, "--out", str(out), "--k", "4"]) == 0
        assert cli_main(["sweep", "--manifest", manifest, "--out", str(out), "--k-min", "2", "--k-max", "6"]) == 0
        assert cli_main(["profile", "--manifest", manifest, "--out", str(out)]) == 0
        assert cli_main(["plot", "--manifest", manifest, "--out", str(out)]) == 0

    def test_info_logs_each_stage_with_its_time(self, tmp_path, caplog):
        audio = tmp_path / "audio"
        caplog.set_level(logging.INFO, logger="edm_atlas.cli")
        assert cli_main(["fixtures", "--out", str(audio), "--tracks-per-genre", "1", "--duration", "10"]) == 0
        argv = ["extract", "--manifest", str(audio / "manifest.csv"), "--out", str(tmp_path / "run"), "--workers", "1"]
        assert cli_main(argv) == 0
        assert cli_main(["cluster", "--manifest", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 2
        lines = [r.getMessage() for r in caplog.records if r.name == "edm_atlas.cli"]
        assert [line.split(":")[0] for line in lines] == ["stage fixtures", "stage extract", "stage cluster"]
        for line, code in zip(lines, (0, 0, 2)):
            assert re.fullmatch(rf"stage \w+: \d+\.\d{{3}} s, exit {code}", line), line

    def test_stage_log_goes_to_stderr_and_changes_no_output(self, tmp_path):
        audio = tmp_path / "audio"
        assert cli_main(["fixtures", "--out", str(audio), "--tracks-per-genre", "5", "--duration", "10"]) == 0
        path = os.pathsep.join(filter(None, [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
        runs = {}
        for level in ("info", "warn"):
            out = tmp_path / level
            stderr = []
            for stage in (["extract"], ["cluster", "--k", "2", "--restarts", "2"]):
                argv = [stage[0], "--manifest", str(audio / "manifest.csv"), "--out", str(out), "--workers", "1"]
                done = subprocess.run(
                    [sys.executable, "-c", "import sys; from edm_atlas.cli import main; sys.exit(main())", *argv, *stage[1:]],
                    capture_output=True, text=True, timeout=600,
                    env=dict(os.environ, PYTHONPATH=path, EDM_ATLAS_LOG=level),
                )
                assert done.returncode == 0, done.stderr
                assert "stage" not in done.stdout
                stderr.append(done.stderr)
            runs[level] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            timed = [line for line in "".join(stderr).splitlines() if line.startswith("INFO edm_atlas.cli: stage ")]
            assert len(timed) == (2 if level == "info" else 0)
        assert runs["info"] == runs["warn"]

    def test_missing_manifest_is_config_error(self, tmp_path):
        code = cli_main(["cluster", "--manifest", str(tmp_path / "none.csv"), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("method, extra", [("kmeans", 0), ("divisive", 0), ("both", 1)])
    def test_k_not_below_track_count(self, fixture_run, tmp_path, capsys, method, extra):
        out = tmp_path / "run"
        out.mkdir()
        matrix = load_matrix(Path(fixture_run.out) / "features.csv")
        save_matrix(matrix, out / "features.csv")
        n = matrix.shape[0]
        argv = ["cluster", "--manifest", fixture_run.manifest, "--out", str(out), "--method", method]
        assert cli_main([*argv, "--k", str(n + extra)]) == 2
        assert f"k={n + extra} must be below the number of tracks ({n})" in capsys.readouterr().err
        assert not list(out.glob("labels_*")) and not list(out.glob("model_*"))

    @pytest.mark.parametrize(
        "argv, inputs, message",
        [
            (["cluster", "--k", "20"], ["features.csv"], "k=20 must be below the number of tracks (20)"),
            (
                ["sweep", "--k-min", "2", "--k-max", "21"],
                ["features.csv", "selected.csv"],
                "k-max=21 exceeds 20 tracks",
            ),
        ],
        ids=["cluster_k", "sweep_k_max"],
    )
    def test_track_count_checked_before_selection(
        self, fixture_run, tmp_path, monkeypatch, capsys, argv, inputs, message
    ):
        out = tmp_path / "run"
        out.mkdir()
        for name in inputs:
            (out / name).write_bytes((Path(fixture_run.out) / name).read_bytes())
        engineered = []
        monkeypatch.setattr(pipeline, "engineer_features", engineered.append)
        command, *flags = argv
        assert cli_main([command, "--manifest", fixture_run.manifest, "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert engineered == []
        assert sorted(p.name for p in out.iterdir()) == inputs

    def test_too_few_tracks_for_the_bootstrap(self, tmp_path, capsys):
        # 8 embedded tracks at k=3: exit 3 before any clustering output is written
        ids = [f"t{j}" for j in range(8)]
        manifest = write_rows(
            tmp_path / "manifest.csv",
            [MANIFEST_COLUMNS, *([tid, f"{tid}.wav", f"g{j % 2}", "", "", ""] for j, tid in enumerate(ids))],
        )
        emb = write_rows(tmp_path / "emb.csv", [["track_id", "e0"], *([tid, j] for j, tid in enumerate(ids))])
        out = tmp_path / "run"
        argv = ["cluster", "--manifest", str(manifest), "--out", str(out), "--k", "3", "--embeddings", str(emb)]
        assert cli_main(argv) == 3
        assert f"needs at least {metrics.MIN_BOOTSTRAP_SAMPLES} tracks, got 8" in capsys.readouterr().err
        assert not out.exists()

    def test_single_leaf_divisive_model(self, tmp_path):
        # 24 identical embedded tracks: the divisive model stops at one leaf, reported by the single-cluster convention
        ids = [f"t{j:02d}" for j in range(24)]
        manifest = write_rows(
            tmp_path / "manifest.csv",
            [MANIFEST_COLUMNS, *([tid, f"{tid}.wav", f"g{j % 2}", "", "", ""] for j, tid in enumerate(ids))],
        )
        emb = write_rows(tmp_path / "emb.csv", [["track_id", "e0", "e1"], *([tid, 1, 2] for tid in ids)])
        out = tmp_path / "run"
        argv = ["cluster", "--manifest", str(manifest), "--out", str(out), "--k", "3", "--method", "divisive"]
        assert cli_main([*argv, "--embeddings", str(emb), "--workers", "1"]) == 0
        report = json.loads((out / "report_divisive.json").read_text())
        assert report["internal"] == {
            "silhouette": 0.0, "davies_bouldin": 0.0, "cophenetic": 1.0, "cophenetic_dendrogram": 1.0
        }
        assert sorted(path.name for path in out.iterdir()) == [
            "labels_divisive.csv", "model_divisive.json", "report_divisive.json"
        ]

    @pytest.mark.parametrize("source", ["embeddings", "selected"])
    def test_plot_of_one_column_exits_two(self, tmp_path, capsys, source):
        ids = [f"t{j:02d}" for j in range(12)]
        manifest = write_rows(
            tmp_path / "manifest.csv",
            [MANIFEST_COLUMNS, *([tid, f"{tid}.wav", f"g{j % 2}", "", "", ""] for j, tid in enumerate(ids))],
        )
        labels = tmp_path / "labels.csv"
        save_labels(labels, ids, np.arange(12) % 2)
        out = tmp_path / "run"
        argv = ["plot", "--manifest", str(manifest), "--out", str(out), "--labels", str(labels)]
        if source == "embeddings":  # a 1-column embeddings file
            matrix = write_rows(tmp_path / "emb.csv", [["track_id", "e0"], *([tid, j] for j, tid in enumerate(ids))])
            argv += ["--embeddings", str(matrix)]
        else:  # the selected.csv of cluster --top-k 1
            out.mkdir()
            matrix = out / "selected.csv"
            save_matrix(FeatureMatrix(ids, ["e0"], ["embedding"], np.arange(12.0)[:, None]), matrix)
        assert cli_main(argv) == 2
        assert f"{matrix}: the PCA scatter needs at least 2 feature columns, got 1" in capsys.readouterr().err
        assert not (out / "scatter.svg").exists()

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("missing", "cannot be read (No such file or directory)"),
            ("directory", "cannot be read (Is a directory)"),
            ("not_utf8", "line 2 is not UTF-8 text (byte 0xff)"),
        ],
    )
    def test_unreadable_config_file(self, tmp_path, capsys, kind, message):
        path = tmp_path / "run.conf"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"k=4\n# caf\xff\n")
        out = tmp_path / "run"
        argv = ["sweep", "--config", str(path), "--manifest", str(tmp_path / "manifest.csv"), "--out", str(out)]
        assert cli_main(argv) == 2
        assert f"configuration error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--manifest", "--embeddings", "--labels"])
    def test_directory_as_input_csv(self, fixture_run, tmp_path, capsys, flag):
        directory = tmp_path / "inputs"
        directory.mkdir()
        argv = {
            "--manifest": ["extract", "--manifest", str(directory), "--out", str(tmp_path / "run")],
            "--embeddings": ["cluster", "--manifest", fixture_run.manifest, "--out", str(tmp_path / "run"), "--k", "4"],
            "--labels": ["profile", "--manifest", fixture_run.manifest, "--out", fixture_run.out],
        }[flag]
        if flag != "--manifest":
            argv += [flag, str(directory)]
        assert cli_main(argv) == 2
        assert f"configuration error: {directory}: cannot be read (Is a directory)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_labels_is_config_error(self, fixture_run, tmp_path, capsys):
        labels = tmp_path / "missing.csv"
        argv = ["profile", "--manifest", fixture_run.manifest, "--out", fixture_run.out, "--labels", str(labels)]
        assert cli_main(argv) == 2
        assert f"labels file not found: {labels}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tracks-per-genre", "0"], "tracks-per-genre must be at least 1, got 0"),
            (["--duration", "4"], "duration must be at least 10 s, got 4"),
            (["--duration", "0"], "duration must be at least 10 s, got 0"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
            (["--duration", "nan"], "duration must be at least 10 s, got nan"),
            (["--duration", "inf"], "duration must be finite, got inf"),
            (["--duration", "1e12"], "duration must be at most 97391 s, the longest 16-bit mono WAV file at 22050 Hz"),
        ],
        ids=["no_tracks", "short", "zero_duration", "negative_seed", "nan_duration", "infinite_duration", "wav_too_long"],
    )
    def test_fixtures_rejects_unusable_catalog(self, tmp_path, capsys, flags, message):
        out = tmp_path / "audio"
        assert cli_main(["fixtures", "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fixtures_longest_duration_passes_the_check(self, tmp_path, monkeypatch):
        # 97391 s at 22050 Hz is 2,147,471,550 frames: RIFF size 36 + 2n still fits 32 bits
        calls = []
        monkeypatch.setattr(pipeline, "write_fixture_set", lambda *args, **kwargs: calls.append(kwargs))
        cmd_fixtures(tmp_path, per_genre=1, duration=97391.0, seed=0)
        assert [c["duration"] for c in calls] == [97391.0]

    def test_partial_extraction_exit_one(self, tmp_path):
        audio = tmp_path / "audio"
        cli_main(["fixtures", "--out", str(audio), "--tracks-per-genre", "2", "--seed", "0"])
        (audio / "pad_ambient_00.wav").write_bytes(b"broken")
        code = cli_main(["extract", "--manifest", str(audio / "manifest.csv"), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_all_failed_exit_three(self, tmp_path):
        audio = tmp_path / "audio"
        cli_main(["fixtures", "--out", str(audio), "--tracks-per-genre", "1", "--seed", "0"])
        for wav in audio.glob("*.wav"):
            wav.write_bytes(b"broken")
        code = cli_main(["extract", "--manifest", str(audio / "manifest.csv"), "--out", str(tmp_path / "out")])
        assert code == 3


class TestBadUserFiles:
    """Malformed labels and dimension-map files are configuration errors naming file and line."""

    def run_profile(self, fixture_run, *extra) -> int:
        return cli_main(["profile", "--manifest", fixture_run.manifest, "--out", fixture_run.out, *extra])

    def write_labels(self, tmp_path, rows: list[str]) -> Path:
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(["track_id,label", *rows]) + "\n")
        return path

    def test_non_integer_label(self, fixture_run, tmp_path, capsys):
        ids = load_matrix(Path(fixture_run.out) / "features.csv").row_ids
        rows = [f"{tid},0" for tid in ids]
        rows[2] = f"{ids[2]},house"
        path = self.write_labels(tmp_path, rows)
        assert self.run_profile(fixture_run, "--labels", str(path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 4 label must be an integer, got 'house'" in err

    def test_repeated_track_id(self, fixture_run, tmp_path, capsys):
        ids = load_matrix(Path(fixture_run.out) / "features.csv").row_ids
        rows = [f"{tid},{i % 4}" for i, tid in enumerate(ids)] + [f"{ids[0]},3"]
        path = self.write_labels(tmp_path, rows)
        assert self.run_profile(fixture_run, "--labels", str(path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: line {len(ids) + 2} repeats track '{ids[0]}'" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{\n  "energy": [["mfcc_00"], []],\n  "tempo": [["bpm"]\n}\n', "line 4 is not valid JSON"),
            ('[["bpm"], []]', "expected {dimension: [[name substrings], [column groups]]}"),
            ('{"tempo": [["bpm"]]}', "expected {dimension: [[name substrings], [column groups]]}"),
            ('{"energy": [[1], []]}', "expected {dimension: [[name substrings], [column groups]]}"),
            ('{"energy": [["mfcc_00"], [null]]}', "expected {dimension: [[name substrings], [column groups]]}"),
            (
                '{"energy": [["rms"], []], "bass": [["bass"], []]}',
                "unknown dimensions bass; known: energy, danceability, tempo, harmonic, rhythmic, electronic",
            ),
            (b'{\n  "energy": [["caf\xff"], []]\n}\n', "line 2 is not UTF-8 text (byte 0xff)"),
        ],
        ids=[
            "unparsable", "not_an_object", "one_list", "number_substring", "null_group", "unknown_dimension",
            "not_utf8",
        ],
    )
    def test_bad_dimension_map(self, fixture_run, capsys, text, message):
        path = Path(fixture_run.out) / "dimension_map.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        try:
            assert self.run_profile(fixture_run) == 2
        finally:
            path.unlink()
        assert f"{path}: {message}" in capsys.readouterr().err


class TestBadInputCsvs:
    """Every input CSV fails through cli.main with exit 2, naming file, line and column."""

    def corrupt(self, text: str, first: int, defect: str, column: int) -> tuple[str, str]:
        """Apply the defect to the data row on line ``first``; returns (text, expected)."""
        lines = text.splitlines()
        row = lines[first - 1]
        width = lines[0].count(",") + 1
        if defect == "ragged":
            lines[first - 1] = row + ",1"
            expected = f"ragged row at line {first} ({width + 1} cells, expected {width})"
        elif defect == "repeated_id":
            lines.append(row)
            expected = f"line {len(lines)} repeats track {row.split(',')[0]!r} from line {first}"
        else:
            cells = row.split(",")
            cells[column] = "nan"
            lines[first - 1] = ",".join(cells)
            name = lines[0].split(",")[column]
            if name == "label":
                expected = f"line {first} label must be an integer, got 'nan'"
            else:
                expected = f"line {first}, column {name!r}: 'nan' is not a finite number"
        return "\n".join(lines) + "\n", expected

    @pytest.mark.parametrize("defect", ["ragged", "repeated_id", "bad_number"])
    @pytest.mark.parametrize("source", ["manifest", "features", "selected", "embeddings", "labels"])
    def test_exit_two_naming_the_cell(self, fixture_run, tmp_path, monkeypatch, capsys, source, defect):
        manifest, run = Path(fixture_run.manifest), Path(fixture_run.out)
        out = tmp_path / "run"
        out.mkdir()
        extracted, engineered = [], []
        monkeypatch.setattr(pipeline, "extract_track", lambda *args: extracted.append(args))
        monkeypatch.setattr(pipeline, "engineer_features", engineered.append)
        common = ["--manifest", str(manifest), "--out", str(out)]
        if source == "manifest":
            path = tmp_path / "manifest.csv"
            text, first, column = manifest.read_text(), 2, 3
            argv = ["extract", "--manifest", str(path), "--out", str(out), "--workers", "1"]
        elif source in ("features", "selected"):
            path = out / f"{source}.csv"
            text, first, column = (run / f"{source}.csv").read_text(), 3, -1
            argv = ["cluster" if source == "features" else "plot", *common, "--k", "4"]
        elif source == "embeddings":
            path = tmp_path / "emb.csv"
            ids = [line.split(",")[0] for line in manifest.read_text().splitlines()[1:]]
            text = "\n".join(["track_id,e0,e1", *(f"{tid},{i},1.5" for i, tid in enumerate(ids))])
            first, column = 2, 2
            argv = ["cluster", *common, "--k", "4", "--embeddings", str(path)]
        else:
            path = tmp_path / "labels.csv"
            text, first, column = (run / "labels_kmeans.csv").read_text(), 2, 1
            argv = ["profile", "--manifest", str(manifest), "--out", str(run), "--labels", str(path)]
        text, expected = self.corrupt(text, first, defect, column)
        path.write_text(text)

        assert cli_main(argv) == 2
        assert f"configuration error: {path}: {expected}" in capsys.readouterr().err
        assert extracted == [] and engineered == []


    @pytest.mark.parametrize("source", ["manifest", "embeddings"])
    def test_not_utf8_exits_two_naming_the_line(self, fixture_run, tmp_path, capsys, source):
        manifest = Path(fixture_run.manifest)
        out = tmp_path / "run"
        if source == "manifest":
            path = tmp_path / "manifest.csv"
            lines = manifest.read_text().splitlines()
            argv = ["extract", "--manifest", str(path), "--out", str(out), "--workers", "1"]
        else:
            path = tmp_path / "emb.csv"
            ids = [line.split(",")[0] for line in manifest.read_text().splitlines()[1:]]
            lines = ["track_id,e0", *(f"{tid},{i}" for i, tid in enumerate(ids))]
            argv = ["cluster", "--manifest", str(manifest), "--out", str(out), "--k", "4", "--embeddings", str(path)]
        data = "\n".join(lines).encode() + b"\n"
        third = data.index(b"\n", data.index(b"\n") + 1) + 1
        path.write_bytes(data[:third] + b"caf\xe9" + data[third:])  # Latin-1 e-acute in line 3

        assert cli_main(argv) == 2
        assert f"configuration error: {path}: line 3 is not UTF-8 text (byte 0xe9)" in capsys.readouterr().err


class TestDegenerateCatalogs:
    """Catalogs the selection stage cannot score fail before any engineering."""

    def run_cluster(self, fixture_run, tmp_path, monkeypatch, matrix, genre_of):
        manifest = tmp_path / "manifest.csv"
        lines = Path(fixture_run.manifest).read_text().splitlines()
        rows = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[2] = genre_of.get(cells[0], cells[2])
            rows.append(",".join(cells))
        manifest.write_text("\n".join(rows) + "\n")
        out = tmp_path / "run"
        out.mkdir()
        save_matrix(matrix, out / "features.csv")
        engineered = []
        monkeypatch.setattr(pipeline, "engineer_features", engineered.append)
        code = cli_main(["cluster", "--manifest", str(manifest), "--out", str(out), "--k", "2"])
        assert engineered == []
        return code

    def test_single_track_genres_named(self, fixture_run, tmp_path, monkeypatch, capsys):
        matrix = load_matrix(Path(fixture_run.out) / "features.csv")
        solo = {matrix.row_ids[0]: "solo_a", matrix.row_ids[-1]: "solo_b"}
        assert self.run_cluster(fixture_run, tmp_path, monkeypatch, matrix, solo) == 3
        err = capsys.readouterr().err
        assert "at least 2 tracks per genre" in err
        assert "solo_a, solo_b" in err

    def test_fewer_than_twenty_tracks(self, fixture_run, tmp_path, monkeypatch, capsys):
        full = load_matrix(Path(fixture_run.out) / "features.csv")
        keep = [i for i in range(full.shape[0]) if i % 5 < 3]  # 3 tracks of each genre
        matrix = FeatureMatrix(
            [full.row_ids[i] for i in keep], full.col_names, full.col_groups, full.data[keep]
        )
        assert self.run_cluster(fixture_run, tmp_path, monkeypatch, matrix, {}) == 3
        err = capsys.readouterr().err
        assert "at least 20 tracks" in err
        assert "got 12" in err


class TestEndToEndDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        def run(base: Path) -> dict:
            manifest = cmd_fixtures(base / "audio", per_genre=5, duration=11.0, seed=1)
            cfg = RunConfig(
                manifest=str(manifest), out=str(base / "run"), seed=3,
                k=4, k_min=2, k_max=6, method="kmeans", restarts=20,
            )
            cmd_extract(cfg)
            cmd_cluster(cfg)
            cmd_sweep(cfg)
            cmd_profile(cfg)
            cmd_plot(cfg)
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((base / "run").iterdir())
            }

        first = run(tmp_path / "one")
        second = run(tmp_path / "two")
        assert first == second

    @staticmethod
    def tree_bytes(root: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    @pytest.mark.parametrize("source", ["selected", "embeddings"])
    def test_worker_count_changes_no_byte(self, fixture_run, tmp_path, source):
        # cluster --method both and sweep through the CLI, in-process and pooled
        manifest = fixture_run.manifest
        extra = []
        if source == "embeddings":
            rng = np.random.default_rng(2)
            lines = ["track_id,e0,e1,e2"]
            for j, rec in enumerate(load_manifest(manifest)):
                vals = rng.normal(j // 5, 0.3, 3)
                lines.append(rec.track_id + "," + ",".join(repr(float(v)) for v in vals))
            emb = tmp_path / "emb.csv"
            emb.write_text("\n".join(lines) + "\n")
            extra = ["--embeddings", str(emb)]
        trees = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers_{workers}"
            out.mkdir()
            if source == "selected":
                (out / "features.csv").write_bytes((Path(fixture_run.out) / "features.csv").read_bytes())
            common = ["--manifest", manifest, "--out", str(out), "--seed", "5", "--workers", workers, *extra]
            assert cli_main(["cluster", *common, "--k", "4", "--method", "both", "--restarts", "3"]) == 0
            assert cli_main(["sweep", *common, "--k-min", "2", "--k-max", "7", "--restarts", "3"]) == 0
            trees.append(self.tree_bytes(out))
        assert "report_divisive.json" in trees[0] and "sweep.csv" in trees[0]
        assert trees[0] == trees[1]


def write_rows(path: Path, rows) -> Path:
    """An input CSV quoted by the standard library's writer."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def assert_outputs_read_back(out: Path) -> None:
    """Every CSV re-reads at its header's width ('#' lines aside); every SVG parses."""
    for path in sorted(out.glob("*.csv")):
        with path.open(newline="", encoding="utf-8") as fh:
            rows = [cells for cells in csv.reader(fh) if not cells[0].startswith("#")]
        assert {len(cells) for cells in rows} == {len(rows[0])}, path.name
    for path in sorted(out.glob("*.svg")):
        ET.parse(path)


class TestNamesNeedingQuotes:
    """Track ids and genres holding ',', '"' or '&' run through every stage and read back."""

    ODD_ID = "Artist A, Artist B - Title"
    ODD_GENRE = "Drum & Bass, Deep"

    def test_every_stage(self, fixture_run, tmp_path):
        records = load_manifest(fixture_run.manifest)
        audio = Path(fixture_run.manifest).parent
        rows = [MANIFEST_COLUMNS]
        for i, r in enumerate(records):
            genre = self.ODD_GENRE if r.genre == records[0].genre else r.genre
            tid = self.ODD_ID if i == 0 else r.track_id
            rows.append([tid, audio / r.path, genre, f"{r.bpm:g}", "", f"{r.length_s:g}"])
        manifest = write_rows(tmp_path / "manifest.csv", rows)
        out = tmp_path / "run"
        common = ["--manifest", str(manifest), "--out", str(out), "--workers", "1"]
        assert cli_main(["extract", *common]) == 0
        assert cli_main(["cluster", *common, "--k", "4", "--method", "both", "--restarts", "3"]) == 0
        assert cli_main(["sweep", *common, "--k-min", "2", "--k-max", "6", "--restarts", "3"]) == 0
        assert cli_main(["profile", *common]) == 0
        assert cli_main(["plot", *common]) == 0

        assert_outputs_read_back(out)
        assert load_matrix(out / "features.csv").row_ids[0] == self.ODD_ID
        ids = load_matrix(out / "features.csv").row_ids
        assert load_labels(out / "labels_divisive.csv", ids).shape == (len(ids),)
        with (out / "profiles.csv").open(newline="", encoding="utf-8") as fh:
            assert self.ODD_GENRE in [row["majority_genre"] for row in csv.DictReader(fh)]
        titles = [ET.parse(svg).getroot().find("{*}text").text for svg in out.glob("profile_cluster_*.svg")]
        assert any(self.ODD_GENRE in title for title in titles)

    def test_embeddings_then_plot(self, tmp_path):
        ids = [f'Artist {i}, "Guest" - Title' for i in range(12)]
        manifest = write_rows(
            tmp_path / "manifest.csv",
            [MANIFEST_COLUMNS, *([tid, f"{i}.wav", f"genre {i // 4}", "", "", ""] for i, tid in enumerate(ids))],
        )
        rng = np.random.default_rng(0)
        emb = write_rows(
            tmp_path / "emb.csv",
            [["track_id", "e0", "e1", "e2"], *([tid, *rng.normal(10 * (i // 4), 0.3, 3)] for i, tid in enumerate(ids))],
        )
        out = tmp_path / "run"
        common = ["--manifest", str(manifest), "--out", str(out), "--workers", "1", "--embeddings", str(emb)]
        assert cli_main(["cluster", *common, "--k", "3", "--restarts", "3"]) == 0
        assert cli_main(["plot", *common]) == 0
        # plot creates a fresh --out, as extract, cluster and sweep do
        fresh = tmp_path / "fresh"
        argv = ["plot", "--manifest", str(manifest), "--out", str(fresh), "--embeddings", str(emb)]
        assert cli_main([*argv, "--labels", str(out / "labels_kmeans.csv")]) == 0
        ET.parse(fresh / "scatter.svg")

        assert_outputs_read_back(out)
        labels = load_labels(out / "labels_kmeans.csv", ids)
        assert len(set(labels[::4])) == 3  # the three genre blobs


class TestSvgText:
    def test_radar_and_scatter_text_escaped(self):
        radar = ET.fromstring(radar_svg("Cluster 1 (Drum & Bass)", [("<Energy>", 50.0), ("R&B", 20.0), ("x", 1.0)]))
        texts = [t.text for t in radar.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["Cluster 1 (Drum & Bass)", "<Energy>", "R&B", "x"]
        scatter = ET.fromstring(scatter_svg(np.eye(3, 2), np.array([0, 1, 1]), title="A & B"))
        assert scatter.find("{http://www.w3.org/2000/svg}text").text == "A & B"


class TestEmptyClusterWarnings:
    """A model whose clusters ran empty is logged once, not once per bootstrap resample."""

    def test_one_warning_per_model_and_sweep(self, tmp_path, caplog):
        # 24 tracks over 4 distinct rows: k=6 must refill 2 clusters
        ids = [f"t{j:02d}" for j in range(24)]
        manifest = write_rows(
            tmp_path / "manifest.csv",
            [MANIFEST_COLUMNS, *([tid, f"{tid}.wav", f"g{j % 4}", "", "", ""] for j, tid in enumerate(ids))],
        )
        emb = write_rows(
            tmp_path / "emb.csv",
            [["track_id", "e0", "e1"], *([tid, 10.0 * (j % 4), j % 2] for j, tid in enumerate(ids))],
        )
        out = tmp_path / "run"
        common = ["--manifest", str(manifest), "--out", str(out), "--workers", "1", "--embeddings", str(emb)]
        with caplog.at_level("WARNING"):
            assert cli_main(["cluster", *common, "--k", "6", "--method", "both", "--restarts", "5"]) == 0
        messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert messages == [
            "kmeans: 2 of k=6 clusters were empty after k-means and each took one point from a larger cluster; "
            "the data may have fewer than k distinct rows",
            "divisive: all heterogeneity scores 0 at k=4; cannot reach k_target=6",
        ]
        sidecar = json.loads((out / "model_kmeans.json").read_text())
        assert sidecar["warning"] == messages[0].removeprefix("kmeans: ")

        caplog.clear()
        with caplog.at_level("WARNING"):
            assert cli_main(["sweep", *common, "--k-min", "2", "--k-max", "6", "--restarts", "5"]) == 0
        messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert messages == [
            "k-means refilled empty clusters at k=5, 6; the data may have fewer than k distinct rows"
        ]
