import json

import numpy as np
import pytest

from conftest import make_blobs
from edm_atlas import metrics
from edm_atlas.cluster import divisive_cluster, heterogeneity, kmeans, select_natural_k


class TestKmeans:
    def test_three_blob_recovery(self):
        data, truth = make_blobs(3, 100, dim=2, sigma=0.1, spread=30, seed=0)
        model = kmeans(data, 3, seed=0)
        assert metrics.ari(model.labels, truth) == 1.0

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0, 1, (12, 3))
        model = kmeans(data, 12, seed=0)
        assert model.inertia == 0.0

    def test_same_seed_identical(self):
        data, _ = make_blobs(4, 25, seed=2)
        a = kmeans(data, 4, seed=9)
        b = kmeans(data, 4, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_more_restarts_never_worse(self):
        # the first 5 spawned restart seeds are shared, so best-of-50 <= best-of-5
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, (100, 4))
        few = kmeans(data, 6, restarts=5, seed=0)
        many = kmeans(data, 6, restarts=50, seed=0)
        assert many.inertia <= few.inertia

    def test_duplicate_points_nonempty_clusters(self):
        data = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]), 10, axis=0)
        model = kmeans(data, 4, seed=0)
        assert np.bincount(model.labels, minlength=4).min() >= 1

    @pytest.mark.parametrize(
        "data, k",
        [
            (np.zeros((10, 3)), 3),
            (np.repeat(np.array([[0.0, 1.0, 2.0], [4.0, 4.0, 4.0]]), 5, axis=0), 4),
        ],
        ids=["constant", "two_distinct_rows"],
    )
    def test_k_above_distinct_rows_warns(self, data, k):
        model = kmeans(data, k, seed=0)
        assert np.bincount(model.labels, minlength=k).min() >= 1
        assert model.inertia == 0.0
        assert "distinct rows" in model.warning

    def test_well_separated_data_no_warning(self):
        data, _ = make_blobs(3, 30, seed=4)
        assert kmeans(data, 3, seed=0).warning is None

    def test_k_bounds(self):
        data = np.random.default_rng(0).normal(0, 1, (10, 2))
        with pytest.raises(ValueError):
            kmeans(data, 1)
        with pytest.raises(ValueError):
            kmeans(data, 11)

    def test_label_permutation_leaves_metrics_unchanged(self):
        data, _ = make_blobs(3, 30, seed=4)
        model = kmeans(data, 3, seed=0)
        permuted = (model.labels + 1) % 3
        assert metrics.silhouette(data, model.labels) == pytest.approx(
            metrics.silhouette(data, permuted)
        )


class TestHeterogeneity:
    def test_identical_points_zero(self):
        assert heterogeneity(np.ones((10, 3))) == 0.0

    def test_small_cluster_zero(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            assert heterogeneity(rng.normal(0, 1, (n, 3))) == 0.0

    def test_factor_product_oracle(self):
        rng = np.random.default_rng(6)
        points = np.vstack([rng.normal(0, 1, (50, 3)), rng.normal(10, 1, (50, 3))])
        h = heterogeneity(points, seed=11)
        variance = float(((points - points.mean(axis=0)) ** 2).sum(axis=1).mean())
        split = kmeans(points, 2, restarts=5, seed=11)
        sil = metrics.silhouette(points, split.labels)
        expected = variance * (1.0 + sil) * np.log(101)
        assert abs(h - expected) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert heterogeneity(rng.normal(0, 1, (20, 4)), seed=0) >= 0.0


class TestDivisive:
    def test_four_blob_recovery(self):
        data, truth = make_blobs(4, 40, dim=4, seed=8)
        model = divisive_cluster(data, 4, seed=0)
        assert metrics.ari(model.labels, truth) == 1.0
        assert model.method == "divisive"

    def test_k2_single_root_split(self):
        data, _ = make_blobs(2, 30, dim=3, seed=9)
        model = divisive_cluster(data, 2, seed=0)
        tree = model.split_tree
        assert tree.children is not None
        assert tree.h > 0
        assert all(child.children is None for child in tree.children)

    def test_identical_rows_stop_with_warning(self):
        model = divisive_cluster(np.ones((20, 3)), 3, seed=0)
        assert model.k == 1
        assert model.warning is not None

    def test_split_tree_records_h(self):
        data, _ = make_blobs(3, 30, seed=10)
        model = divisive_cluster(data, 3, seed=0)
        payload = model.split_tree.to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["h"] > 0
        assert len(payload["children"]) == 2

    def test_exact_k_on_distinct_data(self):
        rng = np.random.default_rng(12)
        data = rng.normal(0, 1, (40, 3))
        model = divisive_cluster(data, 7, seed=0)
        assert model.k == 7
        assert np.bincount(model.labels).min() >= 1


class TestSelectNaturalK:
    def test_twenty_blobs(self):
        data, _ = make_blobs(20, 30, dim=8, seed=1)
        result = select_natural_k(data, (15, 40), seed=0)
        assert result.chosen_k in (19, 20, 21)

    def test_single_blob_prefers_two(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (300, 32))
        result = select_natural_k(data, (2, 10), seed=0, restarts=10)
        assert result.chosen_k == 2
        assert int(result.ks[np.argmax(result.silhouette)]) in (2, 3)

    def test_normalized_curves_span_unit_interval(self):
        data, _ = make_blobs(20, 30, dim=8, seed=1)
        result = select_natural_k(data, (15, 40), seed=0, restarts=10)
        for curve in (result.sil_norm, result.ch_norm, result.elbow_norm):
            assert curve.min() == 0.0
            assert curve.max() == 1.0
        assert np.all((result.consensus >= 0) & (result.consensus <= 1))

    def test_degenerate_range(self):
        data = np.random.default_rng(0).normal(0, 1, (30, 3))
        with pytest.raises(ValueError):
            select_natural_k(data, (10, 5))
        with pytest.raises(ValueError):
            select_natural_k(data, (2, 50))

    def test_csv_row_count(self, tmp_path):
        data, _ = make_blobs(5, 20, dim=4, seed=14)
        result = select_natural_k(data, (2, 10), seed=0, restarts=5)
        result.write_csv(tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 9  # header + one row per k in [2, 10]
