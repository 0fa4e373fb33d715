import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_blobs
from edm_atlas import metrics
from edm_atlas.cluster import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    _lloyd,
    _plus_plus_init,
    divisive_cluster,
    heterogeneity,
    kmeans,
    select_natural_k,
)


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


# ---------------------------------------------------------------------------
# _lloyd groups the rows once per iteration (bincount plus a stable argsort)
# and squares x once per call. The per-cluster mask loop it replaced is kept
# here as the reference, and the result must match it bit for bit.


def assign_reference(x, centroids):
    d2 = (x**2).sum(axis=1)[:, None] - 2.0 * x @ centroids.T + (centroids**2).sum(axis=1)[None, :]
    np.clip(d2, 0.0, None, out=d2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(x.shape[0]), labels]


def lloyd_reference(x, centroids):
    k = centroids.shape[0]
    for _ in range(KMEANS_MAX_ITER):
        labels, d2 = assign_reference(x, centroids)
        new_centroids = centroids.copy()
        for c in range(k):
            mask = labels == c
            if np.any(mask):
                new_centroids[c] = x[mask].mean(axis=0)
        for c in range(k):
            if not np.any(labels == c):
                far = int(np.argmax(d2))
                new_centroids[c] = x[far]
                labels[far] = c
                d2[far] = 0.0
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    labels, d2 = assign_reference(x, centroids)
    counts = np.bincount(labels, minlength=k)
    refilled = 0
    for c in range(k):
        if counts[c] == 0:
            far = int(np.argmax(np.where(counts[labels] >= 2, d2, -1.0)))
            counts[labels[far]] -= 1
            counts[c] = 1
            labels[far] = c
            d2[far] = 0.0
            centroids[c] = x[far]
            refilled += 1
    inertia = float(((x - centroids[labels]) ** 2).sum())
    return labels, inertia, refilled


def same_lloyd(x, centroids):
    got_labels, got_inertia, got_refilled = _lloyd(x, centroids.copy())
    want_labels, want_inertia, want_refilled = lloyd_reference(x, centroids.copy())
    return (
        got_labels.tobytes() == want_labels.tobytes()
        and np.float64(got_inertia).tobytes() == np.float64(want_inertia).tobytes()
        and got_refilled == want_refilled
    )


# small integers make duplicate rows and tied distances common
lloyd_coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def lloyd_cases(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    n_distinct = draw(st.integers(1, n))
    base = np.array(
        draw(st.lists(st.lists(lloyd_coordinate, min_size=d, max_size=d), min_size=n_distinct, max_size=n_distinct))
    )
    x = base[draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))]
    k = draw(st.integers(2, n))
    start = draw(st.sampled_from(["plus_plus", "rows", "far"]))
    if start == "plus_plus":
        centroids = _plus_plus_init(x, k, np.random.default_rng(draw(st.integers(0, 2**32))))
    elif start == "rows":  # repeated starting rows tie, so some clusters start empty
        centroids = x[draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))].copy()
    else:  # centroids far outside the data, which no point is nearest to
        centroids = x[:1].repeat(k, axis=0) + 1e5 * np.arange(k)[:, None]
    return x, centroids


class TestLloydMatchesMaskLoop:
    @settings(max_examples=300, deadline=None)
    @given(lloyd_cases())
    def test_bitwise(self, case):
        x, centroids = case
        assert same_lloyd(x, centroids)

    @pytest.mark.parametrize("seed", range(5))
    def test_blobs_with_refills(self, seed):
        # 60 rows of 3 distinct points at k=6: empty clusters every iteration
        x = np.repeat(make_blobs(3, 1, dim=5, seed=seed)[0], 20, axis=0)
        for k in (3, 6, 60):
            centroids = _plus_plus_init(x, k, np.random.default_rng(seed))
            assert same_lloyd(x, centroids)
        assert kmeans(x, 6, restarts=3, seed=seed).warning is not None

    def test_wide_blobs(self):
        x = make_blobs(8, 15, dim=40, seed=3)[0]
        for seed in range(5):
            assert same_lloyd(x, _plus_plus_init(x, 8, np.random.default_rng(seed)))
