"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here, not configurable."""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs
from edm_atlas import metrics
from edm_atlas.audio import stft
from edm_atlas.cluster import divisive_cluster, heterogeneity, kmeans, select_natural_k
from edm_atlas.features import fundamental_feature_vector
from edm_atlas.fixtures import synth_click_track
from edm_atlas.pipeline import RunConfig, cmd_cluster, cmd_extract, cmd_fixtures, cmd_profile, cmd_sweep
from edm_atlas.selection import (
    METHOD_WEIGHTS,
    NORMALIZE_WEIGHTS,
    ensemble_normalize,
    ensemble_select,
    power_scale,
    robust_scale,
    standard_scale,
)
from edm_atlas.table import FeatureMatrix
from edm_atlas.tempogram import (
    analyze_track,
    autocorr_tempogram,
    cyclic_tempogram,
    fourier_tempogram,
    novelty_curve,
    tempogram_feature_vector,
)
from test_metrics import ari_pair_counting, nmi_entropy_route


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


class TestCriterion1TempogramCorrectness:
    def test_click_tracks(self):
        worst_err = 0.0
        worst_runtime = 0.0
        subharmonics_found = True
        for bpm in (80, 120, 128, 174):
            start = time.monotonic()
            clip = synth_click_track(bpm, 10)
            nov = novelty_curve(stft(clip))
            ftg = fourier_tempogram(nov)
            atg = autocorr_tempogram(nov)
            worst_runtime = max(worst_runtime, time.monotonic() - start)

            estimate = ftg.axis[np.argmax(ftg.magnitudes.mean(axis=0))]
            worst_err = max(worst_err, abs(estimate - bpm))

            profile = atg.magnitudes.mean(axis=0)
            peaks = [
                atg.axis[i]
                for i in range(1, profile.size - 1)
                if profile[i] >= profile[i - 1] and profile[i] >= profile[i + 1] and profile[i] > 0
            ]
            if not any(abs(p - bpm / 2) <= 2.0 for p in peaks):
                subharmonics_found = False
        report(
            "criterion 1: tempogram correctness",
            worst_err <= 1.0 and subharmonics_found and worst_runtime < 5.0,
            f"fourier err {worst_err:.2f} BPM, subharmonics {subharmonics_found}, "
            f"max runtime {worst_runtime:.2f}s",
        )


class TestCriterion2OctaveInvariance:
    def test_cyclic_argmax_shared(self):
        argmax_bins = []
        for bpm in (60, 120):
            nov = novelty_curve(stft(synth_click_track(bpm, 10)))
            cyc = cyclic_tempogram(fourier_tempogram(nov))
            argmax_bins.append(int(np.argmax(cyc.magnitudes.mean(axis=0))))
        delta = abs(argmax_bins[0] - argmax_bins[1])
        report(
            "criterion 2: octave invariance (cyclic tempogram)",
            delta <= 1,
            f"argmax scale bins {argmax_bins} (15-bin axis)",
        )


class TestCriterion3MetricOracles:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(1234)
        worst_ari = worst_nmi = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            pred = rng.integers(0, rng.integers(1, 8) + 1, n)
            true = rng.integers(0, rng.integers(1, 8) + 1, n)
            worst_ari = max(worst_ari, abs(metrics.ari(pred, true) - ari_pair_counting(pred, true)))
            worst_nmi = max(worst_nmi, abs(metrics.nmi(pred, true) - nmi_entropy_route(pred, true)))
        identical_one = metrics.ari([0, 1, 1, 2, 0], [5, 4, 4, 3, 5]) == 1.0
        rng2 = np.random.default_rng(99)
        mean_abs = np.mean(
            [abs(metrics.ari(rng2.integers(0, 2, 1000), rng2.integers(0, 2, 1000))) for _ in range(20)]
        )
        report(
            "criterion 3: ARI/NMI vs brute force",
            worst_ari <= 1e-12 and worst_nmi <= 1e-12 and identical_one and mean_abs < 0.05,
            f"max |dARI| {worst_ari:.2e}, max |dNMI| {worst_nmi:.2e}, "
            f"identical ARI 1: {identical_one}, random mean |ARI| {mean_abs:.4f}",
        )


class TestCriterion4BalanceArithmetic:
    def test_balance_pairing(self):
        derived = 3.3115 / np.log(35)
        labels = np.repeat(np.arange(35), 100)
        balance, normalized = metrics.balance_metrics(labels)
        uniform_ok = abs(balance - np.log(35)) < 1e-12 and normalized == 1.0
        report(
            "criterion 4: balance / normalized-balance pairing (nats)",
            abs(derived - 0.9314) <= 0.001 and uniform_ok,
            f"3.3115/ln(35) = {derived:.4f}",
        )


class TestCriterion5ClusteringRecovery:
    def test_blob_recovery_and_sweep(self):
        start = time.monotonic()
        data3, truth3 = make_blobs(3, 100, dim=4, seed=5)
        data20, truth20 = make_blobs(20, 30, dim=8, seed=1)
        distances3, distances20 = metrics.Distances.of(data3), metrics.Distances.of(data20)
        ari_values = {
            "kmeans3": metrics.ari(kmeans(data3, 3, seed=0).labels, truth3),
            "divisive3": metrics.ari(divisive_cluster(distances3, 3, seed=0).labels, truth3),
            "kmeans20": metrics.ari(kmeans(data20, 20, seed=0).labels, truth20),
            "divisive20": metrics.ari(divisive_cluster(distances20, 20, seed=0).labels, truth20),
        }
        sweep = select_natural_k(distances20, (15, 40), seed=0)
        elapsed = time.monotonic() - start
        report(
            "criterion 5: clustering recovery + natural k",
            all(v == 1.0 for v in ari_values.values())
            and sweep.chosen_k in (19, 20, 21)
            and elapsed < 60.0,
            f"ARI {ari_values}, chosen_k {sweep.chosen_k}, {elapsed:.1f}s",
        )


class TestCriterion6HeterogeneityScore:
    def test_guards_and_factor_product(self):
        constant, singleton = np.ones((50, 3)), np.zeros((1, 3))
        constant_zero = heterogeneity(metrics.Distances.of(constant)) == 0.0
        singleton_zero = heterogeneity(metrics.Distances.of(singleton)) == 0.0

        rng = np.random.default_rng(42)
        cluster = np.vstack([rng.normal(0, 1, (60, 4)), rng.normal(12, 1, (40, 4))])
        distances = metrics.Distances.of(cluster)
        h = heterogeneity(distances, seed=3)
        variance = float(((cluster - cluster.mean(axis=0)) ** 2).sum(axis=1).mean())
        split = kmeans(cluster, 2, restarts=5, seed=3)
        sil = metrics.silhouette(distances, split.labels)
        expected = variance * (1.0 + sil) * np.log(cluster.shape[0] + 1)
        report(
            "criterion 6: heterogeneity H = var * (1+sil) * log(n+1)",
            constant_zero and singleton_zero and abs(h - expected) <= 1e-9,
            f"|H - product| = {abs(h - expected):.2e}",
        )


class TestCriterion7SelectionEnsemble:
    def test_planted_feature_top_ranked(self):
        n, d, n_classes, n_runs = 500, 100, 4, 20
        # the forests over every CPU this process may use, as the CLI's default;
        # the selection does not depend on the worker count
        workers = RunConfig().workers
        hits = 0
        weights_ok = abs(sum(METHOD_WEIGHTS.values()) - 1.0) < 1e-12
        normalized_ok = True
        for run in range(n_runs):
            rng = np.random.default_rng(1000 + run)
            y = rng.integers(0, n_classes, n)
            data = rng.normal(0, 1, (n, d))
            planted = int(rng.integers(0, d))
            data[:, planted] = y + 0.05 * rng.normal(0, 1, n)
            m = FeatureMatrix(
                [f"t{i}" for i in range(n)],
                [f"f{i:03d}" for i in range(d)],
                ["spectral"] * d,
                data,
            )
            _, rep = ensemble_select(m, y, top_k=10, seed=run, workers=workers)
            if int(np.argmax(rep.ensemble)) == planted:
                hits += 1
            for scores in rep.normalized.values():
                if scores.min() < 0 or scores.max() > 1:
                    normalized_ok = False
        report(
            "criterion 7: selection ensemble plants the signal first",
            hits >= int(0.95 * n_runs) and weights_ok and normalized_ok,
            f"planted ranked #1 in {hits}/{n_runs} runs",
        )


class TestCriterion8EnsembleNormalization:
    def test_weights_and_guards(self):
        rng = np.random.default_rng(7)
        col = rng.exponential(2.0, 400)
        m = FeatureMatrix(
            [f"t{i}" for i in range(400)],
            ["skewed", "flat"],
            ["spectral", "spectral"],
            np.column_stack([col, np.full(400, 3.0)]),
        )
        out = ensemble_normalize(m)
        w_r, w_p, w_z = NORMALIZE_WEIGHTS
        expected = w_r * robust_scale(col) + w_p * power_scale(col) + w_z * standard_scale(col)
        weights_exact = np.array_equal(out.data[:, 0], expected) and (w_r, w_p, w_z) == (0.5, 0.3, 0.2)
        constant_zero = np.all(out.data[:, 1] == 0.0)
        ints = rng.integers(0, 1000, 300).astype(float)
        shift_ok = np.array_equal(robust_scale(ints), robust_scale(ints + 4096.0))
        report(
            "criterion 8: normalization ensemble weights (0.5, 0.3, 0.2)",
            weights_exact and constant_zero and shift_ok,
            f"recomposition exact {weights_exact}, constant zeros {constant_zero}, "
            f"robust shift-equivariant {shift_ok}",
        )


class TestCriterion9EndToEndDeterminism:
    def test_pipeline_twice(self, tmp_path):
        start = time.monotonic()

        def run(base: Path) -> dict:
            manifest = cmd_fixtures(base / "audio", per_genre=10, duration=12.0, seed=0)
            cfg = RunConfig(
                manifest=str(manifest), out=str(base / "run"), seed=11,
                k=4, k_min=2, k_max=10, method="kmeans",
            )
            cmd_extract(cfg)
            cmd_cluster(cfg)
            cmd_sweep(cfg)
            cmd_profile(cfg)
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((base / "run").iterdir())
                if p.suffix in (".csv", ".json")
            }

        first = run(tmp_path / "one")
        second = run(tmp_path / "two")
        elapsed = time.monotonic() - start
        report(
            "criterion 9: end-to-end determinism on the 40-track fixture set",
            first == second and len(first) >= 8 and elapsed < 180.0,
            f"{len(first)} primary outputs byte-identical, both runs in {elapsed:.0f}s",
        )


class TestCriterion10FeatureSchema:
    def test_dimension_ledger(self):
        clip = synth_click_track(128, 12)
        fundamental = fundamental_feature_vector(analyze_track(clip))
        tempogram_block = tempogram_feature_vector(analyze_track(clip))
        ok = (
            len(fundamental) == 92
            and len(set(fundamental.names)) == 92
            and len(tempogram_block) == 64
            and len(set(tempogram_block.names)) == 64
        )
        report(
            "criterion 10: feature schema (92 fundamental + 64 tempogram)",
            ok,
            f"fundamental {len(fundamental)}, tempogram {len(tempogram_block)}",
        )


# The paper's claim at small scale: F acoustic families under G > F genre
# labels. Four families hold two genres each and one holds one; genres of
# one family share its centre, so only the families are there to be found.
# Seeds, centre scale and bound were fixed before the first run.
GENRE_FAMILY = (0, 0, 1, 1, 2, 2, 3, 3, 4)
GENRE_SIZES = (24, 8, 16, 12, 20, 6, 10, 14, 18)
N_FAMILIES = 5
CLAIM_COLUMNS = 12
CLAIM_EMBEDDING_DIM = 64
CLAIM_CENTRE_SCALE = 6.0
CLAIM_SEEDS = range(10)


def planted_families(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(feature rows, embedding rows, family labels, genre labels) for one seed.

    Feature rows are their family's centre, drawn at CLAIM_CENTRE_SCALE, plus
    unit noise. Embedding rows are a fixed random linear lift of the feature
    rows to CLAIM_EMBEDDING_DIM dimensions, plus unit noise of their own.
    """
    rng = np.random.default_rng(seed)
    genres = np.repeat(np.arange(len(GENRE_SIZES)), GENRE_SIZES)
    families = np.array(GENRE_FAMILY)[genres]
    centres = rng.normal(0.0, CLAIM_CENTRE_SCALE, (N_FAMILIES, CLAIM_COLUMNS))
    features = centres[families] + rng.normal(0.0, 1.0, (genres.size, CLAIM_COLUMNS))
    lift = rng.normal(0.0, 1.0 / np.sqrt(CLAIM_COLUMNS), (CLAIM_COLUMNS, CLAIM_EMBEDDING_DIM))
    embeddings = features @ lift + rng.normal(0.0, 1.0, (genres.size, CLAIM_EMBEDDING_DIM))
    return features, embeddings, families, genres


class TestCriterion11FewerFamiliesThanGenres:
    def test_natural_k_finds_families_in_both_spaces(self):
        # per sweep: (seed, space, chosen k, ARI against families, ARI against genres)
        sweeps = []
        for seed in CLAIM_SEEDS:
            features, embeddings, families, genres = planted_families(seed)
            for space, points in (("features", features), ("embeddings", embeddings)):
                chosen = select_natural_k(metrics.Distances.of(points), (2, 12), seed=seed).chosen_k
                labels = kmeans(points, chosen, seed=seed).labels
                sweeps.append((seed, space, chosen, metrics.ari(labels, families), metrics.ari(labels, genres)))
        misses = [sweep for sweep in sweeps if sweep[2] != N_FAMILIES or not sweep[3] > sweep[4]]
        report(
            f"criterion 11: {N_FAMILIES} families under {len(GENRE_SIZES)} genres found in both spaces",
            not misses,
            f"{len(sweeps) - len(misses)} of {len(sweeps)} sweeps; ARI against families "
            f"{min(s[3] for s in sweeps):.2f}-{max(s[3] for s in sweeps):.2f}, against genres "
            f"{min(s[4] for s in sweeps):.2f}-{max(s[4] for s in sweeps):.2f}; misses {misses}",
        )
