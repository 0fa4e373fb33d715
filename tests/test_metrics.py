import json
import pickle
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.stats import rankdata

from conftest import make_blobs, silhouette_reference
from edm_atlas import metrics, pipeline
from edm_atlas.cluster import SplitNode, divisive_cluster, kmeans
from edm_atlas.table import FeatureMatrix


def ari_pair_counting(pred, true):
    """All-pairs brute force: agreement table over the C(n,2) pairs."""
    pred, true = np.asarray(pred), np.asarray(true)
    n = pred.size
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = true[i] == true[j]
            if same_p and same_t:
                a += 1
            elif same_p:
                b += 1
            elif same_t:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / denom


def nmi_entropy_route(pred, true):
    """Independent NMI: entropies via explicit contingency loops."""
    pred, true = np.asarray(pred), np.asarray(true)
    n = pred.size
    p_classes, t_classes = np.unique(pred), np.unique(true)
    table = np.zeros((p_classes.size, t_classes.size))
    for i in range(n):
        table[np.where(p_classes == pred[i])[0][0], np.where(t_classes == true[i])[0][0]] += 1

    def entropy(counts):
        probs = counts[counts > 0] / n
        return -(probs * np.log(probs)).sum()

    identical = np.all((table > 0).sum(axis=0) == 1) and np.all((table > 0).sum(axis=1) == 1)
    if identical:
        return 1.0
    h_p = entropy(table.sum(axis=1))
    h_t = entropy(table.sum(axis=0))
    if h_p == 0 or h_t == 0:
        return 0.0
    h_joint = entropy(table.ravel())
    return (h_p + h_t - h_joint) / np.sqrt(h_p * h_t)


class TestNmi:
    def test_identical(self):
        assert metrics.nmi([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_identical_up_to_relabeling(self):
        assert metrics.nmi([0, 0, 1, 1], [5, 5, 3, 3]) == 1.0

    def test_constant_pred(self):
        assert metrics.nmi([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0

    def test_independent_cross(self):
        assert metrics.nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, 200)
        true = rng.integers(0, 3, 200)
        relabeled = (pred + 2) % 4
        assert metrics.nmi(pred, true) == pytest.approx(metrics.nmi(relabeled, true), abs=1e-12)

    def test_matches_entropy_route(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 50))
            pred = rng.integers(0, 5, n)
            true = rng.integers(0, 5, n)
            assert metrics.nmi(pred, true) == pytest.approx(nmi_entropy_route(pred, true), abs=1e-12)


class TestAri:
    def test_identical(self):
        assert metrics.ari([0, 1, 0, 2], [0, 1, 0, 2]) == 1.0

    def test_cross_case_frozen(self):
        # brute-force pair counting: a=0, b=2, c=2, d=2 -> 2(0-4)/16 = -0.5
        assert metrics.ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-12)
        assert ari_pair_counting([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            pred = rng.integers(0, rng.integers(1, 6) + 1, n)
            true = rng.integers(0, rng.integers(1, 6) + 1, n)
            assert metrics.ari(pred, true) == pytest.approx(ari_pair_counting(pred, true), abs=1e-12)

    def test_random_labelings_near_zero(self):
        rng = np.random.default_rng(3)
        values = [
            metrics.ari(rng.integers(0, 2, 1000), rng.integers(0, 2, 1000)) for _ in range(20)
        ]
        assert np.mean(np.abs(values)) < 0.05

    def test_all_singletons_vs_itself(self):
        assert metrics.ari([0, 1, 2, 3], [3, 2, 1, 0]) == 1.0


class TestPurity:
    def test_perfect(self):
        assert metrics.purity([1, 0, 2, 1], [5, 3, 7, 5]) == 1.0

    def test_single_cluster_two_classes(self):
        assert metrics.purity([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    def test_hand_count(self):
        assert metrics.purity([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


class TestMiScore:
    def test_identical_balanced(self):
        labels = np.repeat(np.arange(4), 25)
        assert metrics.mi_score(labels, labels) == pytest.approx(np.log(4))

    def test_shuffled_near_zero(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, 2000)
        b = rng.permutation(a)
        assert metrics.mi_score(a, b) < 0.02

    def test_35_class_ceiling(self):
        labels = np.repeat(np.arange(35), 10)
        assert metrics.mi_score(labels, labels) == pytest.approx(3.5553, abs=1e-3)


class TestSilhouette:
    def test_two_far_blobs(self):
        data, truth = make_blobs(2, 40, dim=3, sigma=0.5, seed=5)
        assert metrics.silhouette(metrics.Distances.of(data), truth) > 0.9

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(6)
        data = rng.normal(0, 1, (200, 4))
        labels = rng.integers(0, 3, 200)
        assert abs(metrics.silhouette(metrics.Distances.of(data), labels)) < 0.1

    def test_duplicate_pairs_score_one(self):
        base = np.random.default_rng(7).normal(0, 1, (10, 3))
        data = np.repeat(base, 2, axis=0)
        labels = np.repeat(np.arange(10), 2)
        assert metrics.silhouette(metrics.Distances.of(data), labels) == 1.0

    def test_needs_two_clusters(self):
        with pytest.raises(ValueError):
            metrics.silhouette(metrics.Distances.of(np.ones((5, 2))), np.zeros(5, dtype=int))


class TestDaviesBouldin:
    def test_far_tight_blobs_near_zero(self):
        data, truth = make_blobs(2, 40, dim=3, sigma=0.1, spread=200, seed=8)
        assert metrics.davies_bouldin(data, truth) < 0.05

    def test_interleaved_split_large(self):
        rng = np.random.default_rng(9)
        data = rng.normal(0, 1, (200, 3))
        labels = rng.integers(0, 2, 200)
        assert metrics.davies_bouldin(data, labels) > 1.0

    def test_zero_spread_distinct_centroids(self):
        data = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0]]), 5, axis=0)
        labels = np.repeat([0, 1], 5)
        assert metrics.davies_bouldin(data, labels) == 0.0

    def test_all_coincident_error(self):
        data = np.ones((10, 2))
        labels = np.repeat([0, 1], 5)
        with pytest.raises(ValueError):
            metrics.davies_bouldin(data, labels)

    def test_opposite_of_silhouette_on_fixture_pair(self):
        good_data, good_labels = make_blobs(2, 40, dim=3, sigma=0.1, spread=200, seed=8)
        rng = np.random.default_rng(10)
        bad_data = rng.normal(0, 1, (80, 3))
        bad_labels = rng.integers(0, 2, 80)
        assert metrics.silhouette(metrics.Distances.of(good_data), good_labels) > metrics.silhouette(
            metrics.Distances.of(bad_data), bad_labels
        )
        assert metrics.davies_bouldin(good_data, good_labels) < metrics.davies_bouldin(
            bad_data, bad_labels
        )


class TestCalinskiHarabasz:
    def test_separated_blobs_large(self):
        data, truth = make_blobs(3, 30, dim=3, seed=11)
        assert metrics.calinski_harabasz(data, truth) > 1000

    def test_zero_within_infinite(self):
        data = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0]]), 5, axis=0)
        labels = np.repeat([0, 1], 5)
        assert metrics.calinski_harabasz(data, labels) == np.inf


def kmeans_clusterer(k):
    def clusterer(distances, seed):
        x = distances.points
        return kmeans(x, min(k, x.shape[0]), restarts=5, seed=seed).labels

    return clusterer


def divisive_clusterer(k):
    def clusterer(distances, seed):
        return divisive_cluster(distances, min(k, distances.points.shape[0]), seed=seed).labels

    return clusterer


class TestCopheneticBootstrap:
    def test_separated_blobs_stable(self):
        data, _ = make_blobs(3, 30, dim=4, seed=12)
        value = metrics.cophenetic_bootstrap(metrics.Distances.of(data), kmeans_clusterer(3), B=30, seed=0)
        assert value > 0.95

    def test_random_data_less_stable(self):
        data, _ = make_blobs(3, 30, dim=4, seed=12)
        stable = metrics.cophenetic_bootstrap(metrics.Distances.of(data), kmeans_clusterer(3), B=30, seed=0)
        rng = np.random.default_rng(13)
        noise = rng.uniform(0, 1, (90, 4))
        unstable = metrics.cophenetic_bootstrap(metrics.Distances.of(noise), kmeans_clusterer(5), B=30, seed=0)
        assert stable - unstable > 0.3

    def test_identity_resample_perfect(self):
        # a fixed labelling rule reproduces the full-data co-assignment in every resample
        data, _ = make_blobs(3, 20, dim=3, seed=14)
        cut = np.median(data[:, 0])
        value = metrics.cophenetic_bootstrap(
            metrics.Distances.of(data), lambda d, seed: (d.points[:, 0] > cut).astype(int), B=1, seed=0
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_needs_ten_samples(self):
        data = np.ones((5, 2))
        with pytest.raises(ValueError):
            metrics.cophenetic_bootstrap(metrics.Distances.of(data), kmeans_clusterer(2))


class TestCopheneticDendrogram:
    def test_blob_tree_correlates(self):
        data, _ = make_blobs(3, 30, dim=4, seed=15)
        distances = metrics.Distances.of(data)
        model = divisive_cluster(distances, 3, seed=0)
        value = metrics.cophenetic_dendrogram(distances, model.split_tree)
        assert 0.5 < value <= 1.0


class TestBalance:
    def test_uniform_35(self):
        balance, normalized = metrics.balance_metrics(np.repeat(np.arange(35), 4))
        assert balance == pytest.approx(np.log(35))
        assert normalized == 1.0

    def test_giant_cluster_near_zero(self):
        labels = np.r_[np.zeros(995, dtype=int), np.arange(1, 6)]
        _, normalized = metrics.balance_metrics(labels)
        assert normalized < 0.05

    def test_reported_pairing_consistency(self):
        assert 3.3115 / np.log(35) == pytest.approx(0.9314, abs=0.001)

    def test_single_cluster_convention(self):
        balance, normalized = metrics.balance_metrics(np.zeros(10, dtype=int))
        assert balance == 0.0
        assert normalized == 1.0


class TestEvaluateAll:
    def test_perfect_fixture(self):
        data, truth = make_blobs(3, 30, dim=4, seed=16)
        model = kmeans(data, 3, seed=0)
        report = metrics.evaluate_all(
            metrics.Distances.of(data), model.labels, truth, kmeans_clusterer(3), B=10, seed=0,
            context={"method": "kmeans", "k": 3, "seed": 0},
        )
        assert report.external["nmi"] == 1.0
        assert report.external["ari"] == 1.0
        assert report.external["purity"] == 1.0
        assert report.internal["silhouette"] > 0.9

    def test_constant_pred_conventions(self):
        data, truth = make_blobs(2, 20, dim=3, seed=17)
        labels = np.zeros(40, dtype=int)
        report = metrics.evaluate_all(metrics.Distances.of(data), labels, truth, kmeans_clusterer(2), B=5, seed=0)
        assert report.external["purity"] == 0.5
        assert abs(report.external["ari"]) < 1e-9
        assert report.internal["silhouette"] == 0.0

    def test_json_round_trip(self, tmp_path):
        data, truth = make_blobs(2, 20, dim=3, seed=18)
        model = kmeans(data, 2, seed=0)
        report = metrics.evaluate_all(
            metrics.Distances.of(data), model.labels, truth, kmeans_clusterer(2), B=5, seed=0,
            context={"method": "kmeans", "k": 2, "seed": 0},
        )
        report.save(tmp_path / "report.json")
        back = json.loads((tmp_path / "report.json").read_text())
        assert set(back) == {"schema_version", "context", "external", "internal", "distribution"}
        assert back["schema_version"] == metrics.SCHEMA_VERSION
        assert back["external"] == report.external
        assert back["internal"] == report.internal
        assert back["distribution"] == report.distribution
        assert back["context"] == report.context

    def test_divisive_adds_dendrogram_key(self):
        data, truth = make_blobs(3, 25, dim=3, seed=19)
        distances = metrics.Distances.of(data)
        model = divisive_cluster(distances, 3, seed=0)
        report = metrics.evaluate_all(
            distances, model.labels, truth, divisive_clusterer(3), B=5, seed=0, split_tree=model.split_tree
        )
        assert "cophenetic_dendrogram" in report.internal

    def test_single_leaf_tree_conventions(self):
        # identical rows: the divisive model stops at one cluster, whose tree splits no pair
        data, truth = np.ones((24, 2)), np.repeat([0, 1], 12)
        distances = metrics.Distances.of(data)
        model = divisive_cluster(distances, 3, seed=0)
        assert model.split_tree.children is None
        report = metrics.evaluate_all(
            distances, model.labels, truth, divisive_clusterer(3), B=5, seed=0, split_tree=model.split_tree
        )
        assert report.internal == {
            "silhouette": 0.0, "davies_bouldin": 0.0, "cophenetic": 1.0, "cophenetic_dendrogram": 1.0
        }


class TestClusterProfiles:
    def profile_matrix(self):
        rng = np.random.default_rng(20)
        n = 60
        bpm = np.r_[np.full(30, 174.0), np.full(30, 90.0)]
        chroma = np.r_[rng.uniform(0, 0.2, 30), rng.uniform(0.8, 1.0, 30)]
        spectral = rng.uniform(0, 1, n)
        return FeatureMatrix(
            [f"t{i}" for i in range(n)],
            ["bpm", "chroma_a_mean", "spectral_centroid_mean"],
            ["meta", "harmonic", "spectral"],
            np.column_stack([bpm, chroma, spectral]),
        )

    def test_two_cluster_percentiles(self):
        m = self.profile_matrix()
        labels = np.repeat([0, 1], 30)
        profiles = metrics.cluster_profiles(m, labels, ["dnb"] * 30 + ["downtempo"] * 30)
        fast, slow = profiles[0], profiles[1]
        assert fast.dimensions["tempo"] == 100.0
        assert slow.dimensions["tempo"] == 0.0
        assert fast.dimensions["harmonic"] == 0.0
        assert slow.dimensions["harmonic"] == 100.0

    def test_high_tempo_cluster_tempo_exceeds_harmonic(self):
        m = self.profile_matrix()
        labels = np.repeat([0, 1], 30)
        profiles = metrics.cluster_profiles(m, labels, ["dnb"] * 30 + ["downtempo"] * 30)
        assert profiles[0].dimensions["tempo"] > profiles[0].dimensions["harmonic"]

    def test_identical_clusters_mid_rank(self):
        rng = np.random.default_rng(21)
        base = rng.uniform(0, 1, (30, 2))
        data = np.vstack([base, base])
        m = FeatureMatrix(
            [f"t{i}" for i in range(60)], ["bpm", "chroma_a_mean"], ["meta", "harmonic"], data
        )
        labels = np.repeat([0, 1], 30)
        profiles = metrics.cluster_profiles(m, labels, ["x"] * 60)
        assert profiles[0].dimensions["tempo"] == 50.0
        assert profiles[1].dimensions["tempo"] == 50.0

    def test_absent_dimension_reported_none(self, caplog):
        m = self.profile_matrix()
        labels = np.repeat([0, 1], 30)
        with caplog.at_level("WARNING"):
            profiles = metrics.cluster_profiles(m, labels, ["a"] * 30 + ["b"] * 30)
        assert profiles[0].dimensions["energy"] is None
        assert "energy" in caplog.text

    def test_dimensions_left_out_of_the_rules_are_logged(self, caplog, tmp_path):
        # rules that name only energy blank the other five dimensions, and say so
        rng = np.random.default_rng(22)
        m = FeatureMatrix(
            [f"t{i}" for i in range(60)],
            ["mfcc_00", "bpm", "chroma_00_mean"],
            ["timbral", "meta", "harmonic"],
            np.column_stack([np.r_[np.full(30, 5.0), np.full(30, 1.0)], rng.uniform(0, 1, (60, 2))]),
        )
        labels = np.repeat([0, 1], 30)
        with caplog.at_level("WARNING", logger=metrics.logger.name):
            profiles = metrics.cluster_profiles(m, labels, ["a"] * 60, rules={"energy": (("mfcc_00",), ())})
        assert [r.getMessage() for r in caplog.records] == [
            f"no columns matched profile dimension {dim!r}; reported absent"
            for dim in metrics.PROFILE_DIMENSIONS
            if dim != "energy"
        ]
        metrics.profiles_to_csv(profiles, tmp_path / "profiles.csv")
        rows = (tmp_path / "profiles.csv").read_text().splitlines()[2:]
        assert [row.split(",", 4)[4] for row in rows] == ["100.0,,,,,", "0.0,,,,,"]

    def test_purity_and_majority(self):
        m = self.profile_matrix()
        labels = np.repeat([0, 1], 30)
        genres = ["dnb"] * 25 + ["house"] * 5 + ["downtempo"] * 30
        profiles = metrics.cluster_profiles(m, labels, genres)
        assert profiles[0].majority_genre == "dnb"
        assert profiles[0].purity == pytest.approx(25 / 30)

    def test_csv_values_in_range(self, tmp_path):
        m = self.profile_matrix()
        labels = np.repeat([0, 1], 30)
        profiles = metrics.cluster_profiles(m, labels, ["a"] * 30 + ["b"] * 30)
        metrics.profiles_to_csv(profiles, tmp_path / "profiles.csv")
        lines = (tmp_path / "profiles.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[1] == "#schema_version:1"
        for line in lines[2:]:
            cells = line.split(",")
            for cell in cells[4:]:
                if cell:
                    assert 0.0 <= float(cell) <= 100.0


# ---------------------------------------------------------------------------
# The array passes in silhouette, davies_bouldin and the profile mid-ranks
# replaced per-sample and per-pair loops. The loops are kept here as the
# reference; the array code must reproduce them bit for bit.


def silhouette_loop(data, labels):
    x = np.asarray(data, dtype=np.float64)
    classes, y_idx = np.unique(np.asarray(labels).ravel(), return_inverse=True)
    k = classes.size
    n = x.shape[0]
    dist = squareform(pdist(x))
    counts = np.bincount(y_idx)
    sums = np.zeros((n, k))
    for c in range(k):
        sums[:, c] = dist[:, y_idx == c].sum(axis=1)
    scores = np.zeros(n)
    for i in range(n):
        c = y_idx[i]
        if counts[c] == 1:
            continue
        a = sums[i, c] / (counts[c] - 1)
        b = np.inf
        for other in range(k):
            if other != c:
                b = min(b, sums[i, other] / counts[other])
        top = max(a, b)
        scores[i] = (b - a) / top if top > 0 else 0.0
    return float(scores.mean())


def davies_bouldin_loop(data, labels):
    x = np.asarray(data, dtype=np.float64)
    classes, y_idx = np.unique(np.asarray(labels).ravel(), return_inverse=True)
    k = classes.size
    centroids = np.vstack([x[y_idx == c].mean(axis=0) for c in range(k)])
    scatter = np.array(
        [np.linalg.norm(x[y_idx == c] - centroids[c], axis=1).mean() for c in range(k)]
    )
    sep = cdist(centroids, centroids)
    ratios = np.zeros(k)
    any_valid = False
    for i in range(k):
        best = 0.0
        for j in range(k):
            if j == i or sep[i, j] == 0.0:
                continue
            any_valid = True
            best = max(best, (scatter[i] + scatter[j]) / sep[i, j])
        ratios[i] = best
    if not any_valid:
        raise ValueError("all cluster centroids coincide; Davies-Bouldin undefined")
    return float(ratios.mean())


def midrank_loop(values):
    k = values.size
    if k == 1:
        return np.array([50.0])
    order = np.argsort(values, kind="stable")
    ranks = np.empty(k)
    i = 0
    sorted_vals = values[order]
    while i < k:
        j = i
        while j + 1 < k and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return 100.0 * ranks / (k - 1)


def outcome(fn, *args):
    """The result's bytes, or the error message, so that both can be compared."""
    try:
        return "value", np.asarray(fn(*args), dtype=np.float64).tobytes()
    except ValueError as exc:
        return "error", str(exc)


# small integers make tied distances, duplicate rows and coincident
# centroids common; wide floats cover the general case
coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def labeled_points(draw, max_n=24):
    n = draw(st.integers(3, max_n))
    d = draw(st.integers(1, 3))
    n_distinct = draw(st.integers(1, n))
    base = np.array(
        draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=n_distinct, max_size=n_distinct))
    )
    x = base[draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))]
    k = draw(st.one_of(st.just(2), st.integers(2, n)))
    labels = np.array(range(k), dtype=np.int64)
    labels = np.r_[labels, draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))]
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return x, labels[order]


EXPLICIT_CASES = {
    "k2": (np.array([[0.0], [1.0], [5.0], [6.0], [6.5]]), np.array([0, 0, 1, 1, 1])),
    "singleton": (np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0], [2.0, 1.0]]), np.array([0, 0, 1, 0])),
    "all_singletons": (np.array([[0.0], [1.0], [3.0]]), np.array([0, 1, 2])),
    "duplicate_rows": (np.repeat(np.array([[1.0, 2.0], [3.0, 4.0]]), 3, axis=0), np.array([0, 1, 0, 1, 0, 1])),
    "zero_spread": (np.repeat(np.array([[0.0, 0.0], [10.0, 0.0]]), 5, axis=0), np.repeat([0, 1], 5)),
    "coincident_all": (np.ones((6, 2)), np.array([0, 1, 2, 0, 1, 2])),
    "coincident_some": (
        np.array([[0.0], [2.0], [1.0], [1.0], [7.0], [9.0]]), np.array([0, 0, 1, 1, 2, 2])
    ),
}


class TestArrayPassesMatchLoops:
    @pytest.mark.parametrize("case", sorted(EXPLICIT_CASES))
    def test_explicit_cases(self, case):
        x, labels = EXPLICIT_CASES[case]
        assert outcome(metrics.silhouette, metrics.Distances.of(x), labels) == outcome(silhouette_loop, x, labels)
        if np.unique(labels).size < x.shape[0]:
            assert outcome(metrics.davies_bouldin, x, labels) == outcome(
                davies_bouldin_loop, x, labels
            )

    def test_coincident_centroids_still_raise(self):
        x, labels = EXPLICIT_CASES["coincident_all"]
        with pytest.raises(ValueError, match="all cluster centroids coincide"):
            metrics.davies_bouldin(x, labels)

    @settings(max_examples=200, deadline=None)
    @given(labeled_points())
    def test_silhouette_bitwise(self, case):
        x, labels = case
        assert outcome(metrics.silhouette, metrics.Distances.of(x), labels) == outcome(silhouette_loop, x, labels)

    @settings(max_examples=200, deadline=None)
    @given(labeled_points())
    def test_davies_bouldin_bitwise(self, case):
        x, labels = case
        if np.unique(labels).size >= x.shape[0]:
            labels = labels.copy()
            labels[labels == labels.max()] = labels.min()  # k < n
        assert outcome(metrics.davies_bouldin, x, labels) == outcome(
            davies_bouldin_loop, x, labels
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-2, 2).map(float),
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_midranks_bitwise(self, values):
        values = np.array(values)
        assert metrics._midrank_percentiles(values).tobytes() == midrank_loop(values).tobytes()

    def test_midranks_ties(self):
        values = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        assert metrics._midrank_percentiles(values).tolist() == [87.5, 12.5, 87.5, 50.0, 12.5]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, 1.0, -1.5]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=2,
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    def test_midranks_match_rankdata(self, values, rnd):
        values = values + rnd.sample(values, len(values) // 2)  # forced ties
        rnd.shuffle(values)
        values = np.array(values)
        want = 100.0 * (rankdata(values) - 1.0) / (values.size - 1)
        got = metrics._midrank_percentiles(values)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_midranks_signed_zero_tie(self):
        assert metrics._midrank_percentiles(np.array([0.0, -0.0, 1.0])).tolist() == [25.0, 25.0, 100.0]

    def test_midranks_lone_value(self):
        assert metrics._midrank_percentiles(np.array([-3.0])).tolist() == [50.0]


# ---------------------------------------------------------------------------
# The bootstrap votes were two n x n float64 matrices filled with an np.ix_
# scatter per resample; they are now condensed integer counts. The old loop
# is kept here as the reference, and the result must match it bit for bit.
# It hands each clustering the distances of its own points, computed afresh,
# where the package hands it a subset of one Distances.


def cophenetic_bootstrap_loop(data, clusterer, B, seed):
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    if n < 10:
        raise ValueError("bootstrap stability needs at least 10 samples")
    base = np.asarray(clusterer(metrics.Distances.of(x), seed), dtype=np.int64)
    votes = np.zeros((n, n))
    seen = np.zeros((n, n))
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(B)):
        rng = np.random.default_rng(child)
        idx = np.unique(rng.integers(0, n, n))
        labels = np.asarray(clusterer(metrics.Distances.of(x[idx]), seed + b + 1), dtype=np.int64)
        same = (labels[:, None] == labels[None, :]).astype(np.float64)
        votes[np.ix_(idx, idx)] += same
        seen[np.ix_(idx, idx)] += 1.0
    iu = np.triu_indices(n, k=1)
    mask = seen[iu] >= min(metrics.PAIR_MIN_OBSERVATIONS, B)
    if mask.sum() < 2:
        raise ValueError("too few pairs observed in bootstrap resamples")
    a_vals = (base[iu[0]] == base[iu[1]]).astype(np.float64)[mask]
    ahat = (votes[iu][mask]) / (seen[iu][mask])
    if a_vals.std() == 0.0:
        raise ValueError("co-assignment matrix is constant; correlation undefined")
    if ahat.std() == 0.0:
        return 0.0
    return float(np.corrcoef(a_vals, ahat)[0, 1])


def seeded_labels(distances, seed):
    """Labels that depend on the seed only: votes vary from resample to resample."""
    return np.random.default_rng(seed).integers(0, 3, distances.points.shape[0])


def bootstrap(x, clusterer, B, seed, workers=1):
    """``metrics.cophenetic_bootstrap`` over the distances of ``x``."""
    return metrics.cophenetic_bootstrap(metrics.Distances.of(x), clusterer, B, seed, workers)


def median_split(distances, seed):
    """Labels that depend on the rows only: duplicate rows always share a cluster."""
    x = distances.points
    return (x[:, 0] > np.median(x[:, 0])).astype(int)


@st.composite
def bootstrap_cases(draw):
    n = draw(st.integers(10, 30))
    d = draw(st.integers(1, 3))
    n_distinct = draw(st.integers(1, n))
    base = np.array(
        draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=n_distinct, max_size=n_distinct))
    )
    x = base[draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))]
    clusterer = draw(st.sampled_from([seeded_labels, median_split, kmeans_clusterer(3), divisive_clusterer(3)]))
    B = draw(st.one_of(st.integers(1, 4), st.integers(5, 12)))  # below and above the 5-sighting floor
    return x, clusterer, B, draw(st.integers(0, 2**32))


class TestBootstrapVotesMatchLoop:
    @settings(max_examples=150, deadline=None)
    @given(bootstrap_cases())
    def test_bitwise(self, case):
        x, clusterer, B, seed = case
        assert outcome(bootstrap, x, clusterer, B, seed) == outcome(
            cophenetic_bootstrap_loop, x, clusterer, B, seed
        )

    @pytest.mark.parametrize("B", [1, 3, 30])
    def test_duplicate_rows(self, B):
        x = np.repeat(make_blobs(3, 5, dim=2, seed=21)[0], 3, axis=0)
        for clusterer in (median_split, kmeans_clusterer(3), divisive_clusterer(3)):
            assert outcome(bootstrap, x, clusterer, B, 4) == outcome(
                cophenetic_bootstrap_loop, x, clusterer, B, 4
            )

    def test_vote_count_limit(self):
        with pytest.raises(ValueError, match="uint16"):
            bootstrap(np.arange(20.0)[:, None], median_split, B=70000, seed=0)

    @pytest.mark.parametrize("B", [0, -1])
    def test_needs_one_resample(self, B):
        with pytest.raises(ValueError, match=f"^B={B} resamples: the bootstrap needs at least 1$"):
            bootstrap(np.arange(20.0)[:, None], median_split, B=B, seed=0)


# Each resample's votes were filled from triu_indices over all the pairs it
# drew (int64 index arrays of about (0.63 n)^2 / 2 entries); _add_votes fills
# them one drawn row at a time. The old fill is kept here as the reference,
# and the counts must match it exactly.


def add_votes_triu(votes, seen, idx, labels, n):
    left, right = np.triu_indices(idx.size, k=1)
    pair = metrics._pair_index(idx[left], idx[right], n)
    seen[pair] += 1
    votes[pair] += labels[left] == labels[right]


@st.composite
def resample_rounds(draw):
    n = draw(st.integers(2, 40))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
        labels = np.array(draw(st.lists(st.integers(0, 3), min_size=idx.size, max_size=idx.size)))
        rounds.append((idx, labels))
    return n, rounds


class TestAddVotesMatchesTriuFill:
    @settings(max_examples=200, deadline=None)
    @given(resample_rounds())
    def test_exact(self, case):
        n, rounds = case
        got = np.zeros((2, n * (n - 1) // 2), dtype=np.uint16)
        want = np.zeros_like(got)
        for idx, labels in rounds:
            metrics._add_votes(got[0], got[1], idx, labels, n)
            add_votes_triu(want[0], want[1], idx, labels, n)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# silhouette took its distances from one n x n squareform(pdist(x)); it now
# takes them from row blocks of cdist(x[rows], x). The dense version is kept
# here as the reference, and the result must match it bit for bit at any
# block size.


def silhouette_dense(data, labels):
    x = np.asarray(data, dtype=np.float64)
    classes, y_idx = np.unique(np.asarray(labels).ravel(), return_inverse=True)
    k = classes.size
    if k < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    n = x.shape[0]
    dist = squareform(pdist(x))
    counts = np.bincount(y_idx)
    sums = np.zeros((n, k))
    for c in range(k):
        sums[:, c] = dist[:, y_idx == c].sum(axis=1)
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


@st.composite
def wide_labeled_points(draw):
    """Points, labels and a block size: any size up to n + 1, or 2, 3 or 4 with n just above a multiple of it."""
    if draw(st.booleans()):
        block = draw(st.sampled_from([2, 3, 4]))
        n = block * draw(st.integers(1, 300 // block)) + draw(st.integers(1, 2))
    else:
        n = draw(st.integers(3, 300))
        block = draw(st.integers(2, n + 1))
    d = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    x = rng.normal(0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (n, d))
    if draw(st.booleans()):  # duplicate rows
        x = x[rng.integers(0, max(1, n // 3), n)]
    k = draw(st.integers(2, min(n, 40)))
    labels = np.r_[np.arange(k), rng.integers(0, k, n - k)]
    return x, rng.permutation(labels), block


class TestSilhouetteBlocksMatchDense:
    @settings(max_examples=100, deadline=None)
    @given(wide_labeled_points())
    def test_bitwise_at_any_block(self, case):
        x, labels, block = case
        want = outcome(silhouette_dense, x, labels)
        assert outcome(metrics.silhouette, metrics.Distances.of(x), labels) == want
        with mock.patch.object(metrics, "SILHOUETTE_BLOCK", block):
            assert outcome(metrics.silhouette, metrics.Distances.of(x), labels) == want

    @settings(max_examples=100, deadline=None)
    @given(labeled_points(), st.integers(2, 5))
    def test_small_blocks_with_ties(self, case, block):
        x, labels = case
        with mock.patch.object(metrics, "SILHOUETTE_BLOCK", block):
            assert outcome(metrics.silhouette, metrics.Distances.of(x), labels) == outcome(
                silhouette_dense, x, labels
            )


# ---------------------------------------------------------------------------
# cophenetic_dendrogram filled an n x n height matrix and read its upper
# triangle; it now writes each split's height straight into condensed
# order. The dense version is kept here as the reference.


def cophenetic_dendrogram_dense(data, split_tree):
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    coph = np.zeros((n, n))

    def fill(node):
        if node.children is None:
            return
        left, right = node.children
        coph[np.ix_(left.indices, right.indices)] = node.h
        coph[np.ix_(right.indices, left.indices)] = node.h
        fill(left)
        fill(right)

    fill(split_tree)
    iu = np.triu_indices(n, k=1)
    euclid = pdist(x)
    heights = coph[iu]
    if heights.std() == 0.0 or euclid.std() == 0.0:
        raise ValueError("degenerate distances; cophenetic correlation undefined")
    return float(np.corrcoef(euclid, heights)[0, 1])


def random_split_tree(indices, heights, rng, next_id=0):
    """A random binary split tree over ``indices``; internal nodes draw their h from ``heights``."""
    node = SplitNode(next_id, indices)
    if indices.size >= 2 and rng.random() < 0.8:
        shuffled = rng.permutation(indices)
        cut = int(rng.integers(1, indices.size))
        left = random_split_tree(np.sort(shuffled[:cut]), heights, rng, 2 * next_id + 1)
        right = random_split_tree(np.sort(shuffled[cut:]), heights, rng, 2 * next_id + 2)
        node.h = float(rng.choice(heights))
        node.children = (left, right)
    return node


class TestDendrogramMatchesDense:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 4), st.integers(0, 2**32))
    def test_random_trees_bitwise(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, (n, d)).astype(np.float64)  # ties and duplicate rows
        heights = np.r_[0.0, rng.normal(0, 1, 3), rng.uniform(0, 1e3, 3)]
        tree = random_split_tree(np.arange(n), heights, rng)
        assert outcome(metrics.cophenetic_dendrogram, metrics.Distances.of(x), tree) == outcome(
            cophenetic_dendrogram_dense, x, tree
        )

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_divisive_trees_bitwise(self, k):
        data, _ = make_blobs(4, 25, dim=6, seed=k)
        distances = metrics.Distances.of(data)
        tree = divisive_cluster(distances, k, seed=1).split_tree
        assert outcome(metrics.cophenetic_dendrogram, distances, tree) == outcome(
            cophenetic_dendrogram_dense, data, tree
        )


# ---------------------------------------------------------------------------
# Every distance came from scipy's cdist and pdist, computed again at each
# call; they now come from one numpy kernel, computed once per clustering
# input and gathered by index. scipy, and silhouette as it was, stay the
# reference, bit for bit.


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@st.composite
def distance_inputs(draw):
    """Two matrices over the same columns: down to 1 row and 1 column, duplicate rows, C or F order, scales 1e-2 to 1e2."""
    m, k, d = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-2, 2))
    a, b = rng.normal(0, scale, (m, d)), rng.normal(0, scale, (k, d))
    if draw(st.booleans()):  # duplicate rows, within a and shared with b
        a = a[rng.integers(0, max(1, m // 2), m)]
        b[: min(m, k)] = a[: min(m, k)]
    if draw(st.booleans()):
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    return a, b


def kernel_outputs(a, b) -> tuple[bytes, bytes]:
    """``Distances.of(a).condensed`` and the block of ``Distances.of(vstack(a, b))`` from a's rows to b's, as bytes."""
    stacked = np.vstack([a, b])
    if not a.flags.c_contiguous:
        stacked = np.asfortranarray(stacked)
    m = a.shape[0]
    return bits(metrics.Distances.of(a).condensed), bits(metrics.Distances.of(stacked)(0, m)[:, m:])


class TestKernelMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(distance_inputs(), st.integers(1, 64))
    def test_cdist_and_pdist(self, case, tile):
        a, b = case
        want = bits(pdist(a)), bits(cdist(a, b))
        assert kernel_outputs(a, b) == want
        # tiles of any row count
        with mock.patch.object(metrics, "DISTANCE_TILE", tile):
            assert kernel_outputs(a, b) == want

    @pytest.mark.parametrize("d", [1, 9, 300])
    def test_single_pair(self, d):
        # the squares of a lone pair form one contiguous column, which numpy's sum would add pairwise
        rng = np.random.default_rng(d)
        a, b = rng.normal(0, 1e3, (1, d)), rng.normal(0, 1e-3, (1, d))
        assert kernel_outputs(a, b)[1] == bits(cdist(a, b))
        assert bits(metrics.Distances.of(np.vstack([a, b])).condensed) == bits(pdist(np.vstack([a, b])))

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError, match="expected a 2-D data matrix"):
            metrics.Distances.of(np.ones(3))


@st.composite
def davies_bouldin_cases(draw):
    """Points in C or F order with k = 2..n-1 labels; the clusters moved onto one integer point share a centroid."""
    n = draw(st.integers(3, 40))
    k = draw(st.integers(2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0, 10.0 ** draw(st.integers(-2, 2)), (n, draw(st.integers(1, 60))))
    labels = rng.permutation(np.r_[np.arange(k), rng.integers(0, k, n - k)])
    # integer rows sum exactly, so each such cluster's centroid is the point itself; all k moved coincide
    point = rng.integers(-3, 4, x.shape[1]).astype(np.float64)
    for c in range(draw(st.integers(0, k))):
        x[labels == c] = point
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return x, labels


class TestDaviesBouldinMatchesCdist:
    """davies_bouldin reads its centroid separations from Distances.of; the cdist loop stays the reference."""

    @settings(max_examples=300, deadline=None)
    @given(davies_bouldin_cases(), st.integers(1, 64))
    def test_bitwise(self, case, tile):
        x, labels = case
        want = outcome(davies_bouldin_loop, x, labels)
        assert outcome(metrics.davies_bouldin, x, labels) == want
        with mock.patch.object(metrics, "DISTANCE_TILE", tile):
            assert outcome(metrics.davies_bouldin, x, labels) == want


class TestGatheredBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 64))
    def test_block_equals_kernel_on_gathered_rows(self, n, d, seed, repeat, tile):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (n, d))[rng.integers(0, n, n)]  # duplicate rows
        # any order; with ``repeat``, a view may hold one point twice, and the two are at distance 0
        outer = rng.choice(n, rng.integers(1, 2 * n if repeat else n + 1), replace=repeat)
        inner = rng.choice(outer.size, rng.integers(1, outer.size + 1), replace=repeat)
        distances = metrics.Distances.of(x)
        for view, points in [
            (distances, x),
            (distances.subset(outer), x[outer]),
            (distances.subset(outer).subset(inner), x[outer][inner]),
        ]:
            m = points.shape[0]
            start = int(rng.integers(0, m))
            stop = int(rng.integers(start + 1, m + 1))
            with mock.patch.object(metrics, "DISTANCE_TILE", tile):  # gathers of any row count
                block = view(start, stop)
            assert block.flags.c_contiguous
            assert bits(block) == bits(cdist(points[start:stop], points))
            assert bits(view.pairs()) == bits(pdist(points))

    @settings(max_examples=100, deadline=None)
    @given(wide_labeled_points(), st.integers(0, 2**32 - 1))
    def test_silhouette_of_own_and_gathered_distances(self, case, seed):
        x, labels, block = case
        want = outcome(silhouette_reference, metrics.Distances.of(x), labels)
        with mock.patch.object(metrics, "SILHOUETTE_BLOCK", block):
            assert outcome(metrics.silhouette, metrics.Distances.of(x), labels) == want
            # the same points as a subset of a larger matrix's distances
            rng = np.random.default_rng(seed)
            larger = np.vstack([x, rng.normal(0, 1, (int(rng.integers(1, 20)), x.shape[1]))])
            order = rng.permutation(larger.shape[0])
            rows = np.argsort(order)[: x.shape[0]]  # where x's rows went
            view = metrics.Distances.of(larger[order]).subset(rows)
            assert outcome(metrics.silhouette, view, labels) == want


class TestSharedDistancesMatchReference:
    """evaluate_all and cophenetic_dendrogram against silhouette_reference and the pdist dendrogram."""

    @staticmethod
    def report(data, labels, truth, clusterer, split_tree):
        report = metrics.evaluate_all(
            metrics.Distances.of(data), labels, truth, clusterer, B=6, seed=3, split_tree=split_tree
        )
        return report.external, report.internal, report.distribution

    @pytest.mark.parametrize("seed", range(3))
    def test_evaluate_all(self, monkeypatch, seed):
        data, truth = make_blobs(4, 12, dim=5, seed=seed)
        data = data[np.random.default_rng(seed).integers(0, 48, 48)]  # duplicate rows
        model = divisive_cluster(metrics.Distances.of(data), 5, seed=seed)
        got = self.report(data, model.labels, truth, divisive_clusterer(4), model.split_tree)
        monkeypatch.setattr(metrics, "silhouette", silhouette_reference)
        monkeypatch.setattr(
            metrics, "cophenetic_dendrogram", lambda d, tree: cophenetic_dendrogram_dense(d.points, tree)
        )
        assert got == self.report(data, model.labels, truth, divisive_clusterer(4), model.split_tree)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32))
    def test_dendrogram_with_shared_distances(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, (n, d)).astype(np.float64)
        heights = np.r_[0.0, rng.normal(0, 1, 3), rng.uniform(0, 1e3, 3)]
        tree = random_split_tree(np.arange(n), heights, rng)
        distances = metrics.Distances.of(x)
        assert outcome(metrics.cophenetic_dendrogram, distances, tree) == outcome(
            cophenetic_dendrogram_dense, x, tree
        )


# ---------------------------------------------------------------------------
# The bootstrap always passes its clusterer the distances of the points it
# clusters, from the one Distances of the data it is given. Given as the
# points' own or as a subset of a larger matrix's, they must change no bit.


@st.composite
def clustered_points(draw):
    """Points with duplicate rows in C or F order, a clusterer's name, its k, and a seed."""
    n, d = draw(st.integers(10, 30)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0, 1, (n, d))[rng.integers(0, n, n)]
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return x, draw(st.sampled_from(["kmeans", "divisive"])), draw(st.integers(2, 4)), draw(st.integers(0, 2**32))


class TestGivenDistancesChangeNoBit:
    @staticmethod
    def views(x, seed):
        """The distances of ``x``, and those of ``x`` as a subset of a larger matrix's."""
        rng = np.random.default_rng(seed)
        larger = np.vstack([x, rng.normal(0, 1, (int(rng.integers(1, 10)), x.shape[1]))])
        order = rng.permutation(larger.shape[0])
        rows = np.argsort(order)[: x.shape[0]]  # where x's rows went
        return [metrics.Distances.of(x), metrics.Distances.of(larger[order]).subset(rows)]

    @settings(max_examples=40, deadline=None)
    @given(clustered_points())
    def test_bootstrap_and_evaluate_all(self, case):
        x, method, k, seed = case
        truth = np.arange(x.shape[0]) % 2
        if method == "kmeans":
            model, clusterer = kmeans(x, k, restarts=3, seed=seed), kmeans_clusterer(k)
        else:
            model = divisive_cluster(metrics.Distances.of(x), k, seed=seed)
            clusterer = divisive_clusterer(k)
        got = []
        for distances in self.views(x, seed):
            coefficient = outcome(metrics.cophenetic_bootstrap, distances, clusterer, 4, seed, 1)
            try:
                report = metrics.evaluate_all(
                    distances, model.labels, truth, clusterer, B=4, seed=seed, split_tree=model.split_tree
                )
                internal = json.dumps(report.internal)
            except ValueError as exc:  # a degenerate bootstrap, as the coefficient's outcome records
                internal = str(exc)
            got.append((coefficient, internal))
        assert got[1:] == got[:1]


# ---------------------------------------------------------------------------
# Every function that reads a data matrix checks it with types.as_matrix, so
# a 1-D array fails the same way wherever it is passed. The readers of
# distances take their points from Distances.of, which checks them there.

ONE_D_READERS = ["davies_bouldin", "calinski_harabasz", "kmeans", "Distances.of"]


@pytest.mark.parametrize("name", ONE_D_READERS)
def test_one_dimensional_data_is_rejected(name):
    x, labels = np.arange(12.0), np.arange(12) % 2
    calls = {
        "davies_bouldin": lambda: metrics.davies_bouldin(x, labels),
        "calinski_harabasz": lambda: metrics.calinski_harabasz(x, labels),
        "kmeans": lambda: kmeans(x, 2),
        "Distances.of": lambda: metrics.Distances.of(x),
    }
    with pytest.raises(ValueError, match="^expected a 2-D data matrix$"):
        calls[name]()


@pytest.mark.parametrize("name", ["silhouette", "davies_bouldin", "calinski_harabasz", "evaluate_all"])
def test_labels_must_match_points(name):
    x = make_blobs(2, 15, dim=3, seed=22)[0]
    labels = np.arange(29) % 2  # one short of the 30 points
    distances = metrics.Distances.of(x)
    calls = {
        "silhouette": lambda: metrics.silhouette(distances, labels),
        "davies_bouldin": lambda: metrics.davies_bouldin(x, labels),
        "calinski_harabasz": lambda: metrics.calinski_harabasz(x, labels),
        "evaluate_all": lambda: metrics.evaluate_all(distances, labels, labels, kmeans_clusterer(2), B=2),
    }
    with pytest.raises(ValueError, match="^29 labels for 30 points; expected one label per point$"):
        calls[name]()


# ---------------------------------------------------------------------------
# A Distances carries its points: a subset view holds the same rows, in the
# same layout, as the gather x[rows].


class TestSubsetPoints:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_points_equal_the_gather(self, order):
        rng = np.random.default_rng(23)
        x = np.asarray(rng.normal(0, 1, (30, 5)), order=order)
        outer = rng.integers(0, 30, 25)  # with repeats
        inner = rng.integers(0, 25, 12)
        distances = metrics.Distances.of(x)
        assert distances.points.flags["F_CONTIGUOUS"] == (order == "F")
        for got, want in [
            (distances.points, x),
            (distances.subset(outer).points, x[outer]),
            (distances.subset(outer).subset(inner).points, x[outer][inner]),
        ]:
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.flags.f_contiguous == want.flags.f_contiguous

    @pytest.mark.parametrize("method", ["kmeans", "divisive"])
    def test_pickled_view_resamples_the_same(self, method):
        x = np.asfortranarray(make_blobs(3, 10, dim=4, seed=24)[0])
        view = metrics.Distances.of(x).subset(np.arange(1, 30))
        shared = (partial(pipeline._fit, method=method, k=3, restarts=2), view)
        task = (np.random.SeedSequence(5).spawn(1)[0], 6)
        want = metrics._resample(shared, task)
        got = metrics._resample(pickle.loads(pickle.dumps(shared)), task)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestDistancesIdentity:
    def test_equal_only_to_itself_and_hashable(self):
        x = np.arange(12.0).reshape(6, 2)
        a, b = metrics.Distances.of(x), metrics.Distances.of(x)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        assert a.subset(None) != a
