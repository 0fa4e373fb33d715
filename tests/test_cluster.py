import json
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_blobs, silhouette_reference
from edm_atlas import cluster, metrics
from edm_atlas.cluster import (
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    KMEANS_TOL,
    ClusterModel,
    _d2_draws,
    _lockstep_lloyd,
    _plus_plus_seeds,
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

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            kmeans(np.eye(4), 2, restarts=restarts)

    def test_overflowing_distances(self):
        # squared distances of 1e200 coordinates are inf: numpy's choice, which
        # seeding used to call, raised "Probabilities contain NaN" here
        data = np.array([[0.0], [1e200], [2e200], [3e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                kmeans(data, 2)
            with pytest.raises(ValueError):
                kmeans_reference(data, 2)

    def test_label_permutation_leaves_metrics_unchanged(self):
        data, _ = make_blobs(3, 30, seed=4)
        model = kmeans(data, 3, seed=0)
        permuted = (model.labels + 1) % 3
        distances = metrics.Distances.of(data)
        assert metrics.silhouette(distances, model.labels) == pytest.approx(
            metrics.silhouette(distances, permuted)
        )


class TestModelReadsAsLabels:
    def test_array_protocol(self, monkeypatch):
        """``np.asarray(model)`` is its labels, also as numpy 1.x calls ``__array__``.

        numpy 1.x passes no ``copy`` argument, and its ``np.array`` rejects
        ``copy=None``; the stand-in below behaves so.
        """
        model = kmeans(make_blobs(3, 10, seed=2)[0], 3, seed=0)
        real_array = np.array

        def numpy1_array(obj, *args, copy=True, **kwargs):
            if copy is None:
                raise ValueError("NoneType copy mode not allowed")
            return real_array(obj, *args, copy=copy, **kwargs)

        monkeypatch.setattr(np, "array", numpy1_array)
        for labels in (model.__array__(), model.__array__(np.int64), np.asarray(model, dtype=np.int64)):
            assert labels.dtype == np.int64 and np.array_equal(labels, model.labels)
        assert np.array_equal(model.__array__(np.float64), model.labels.astype(np.float64))
        copied = model.__array__(copy=True)
        copied += 1
        assert np.array_equal(copied - 1, model.labels)


class TestHeterogeneity:
    def test_identical_points_zero(self):
        points = np.ones((10, 3))
        assert heterogeneity(metrics.Distances.of(points)) == 0.0

    def test_small_cluster_zero(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            points = rng.normal(0, 1, (n, 3))
            assert heterogeneity(metrics.Distances.of(points)) == 0.0

    def test_factor_product_oracle(self):
        rng = np.random.default_rng(6)
        points = np.vstack([rng.normal(0, 1, (50, 3)), rng.normal(10, 1, (50, 3))])
        distances = metrics.Distances.of(points)
        h = heterogeneity(distances, seed=11)
        variance = float(((points - points.mean(axis=0)) ** 2).sum(axis=1).mean())
        split = kmeans(points, 2, restarts=5, seed=11)
        sil = metrics.silhouette(distances, split.labels)
        expected = variance * (1.0 + sil) * np.log(101)
        assert abs(h - expected) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            points = rng.normal(0, 1, (20, 4))
            assert heterogeneity(metrics.Distances.of(points), seed=0) >= 0.0


class TestDivisive:
    def test_four_blob_recovery(self):
        data, truth = make_blobs(4, 40, dim=4, seed=8)
        model = divisive_cluster(metrics.Distances.of(data), 4, seed=0)
        assert metrics.ari(model.labels, truth) == 1.0
        assert model.method == "divisive"

    def test_k2_single_root_split(self):
        data, _ = make_blobs(2, 30, dim=3, seed=9)
        model = divisive_cluster(metrics.Distances.of(data), 2, seed=0)
        tree = model.split_tree
        assert tree.children is not None
        assert tree.h > 0
        assert all(child.children is None for child in tree.children)

    def test_identical_rows_stop_with_warning(self):
        data = np.ones((20, 3))
        model = divisive_cluster(metrics.Distances.of(data), 3, seed=0)
        assert model.k == 1
        assert model.warning is not None

    def test_split_tree_records_h(self):
        data, _ = make_blobs(3, 30, seed=10)
        model = divisive_cluster(metrics.Distances.of(data), 3, seed=0)
        payload = model.split_tree.to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["h"] > 0
        assert len(payload["children"]) == 2

    def test_exact_k_on_distinct_data(self):
        rng = np.random.default_rng(12)
        data = rng.normal(0, 1, (40, 3))
        model = divisive_cluster(metrics.Distances.of(data), 7, seed=0)
        assert model.k == 7
        assert np.bincount(model.labels).min() >= 1


class TestSelectNaturalK:
    def test_twenty_blobs(self):
        data, _ = make_blobs(20, 30, dim=8, seed=1)
        result = select_natural_k(metrics.Distances.of(data), (15, 40), seed=0)
        assert result.chosen_k in (19, 20, 21)

    def test_single_blob_prefers_two(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (300, 32))
        result = select_natural_k(metrics.Distances.of(data), (2, 10), seed=0, restarts=10)
        assert result.chosen_k == 2
        assert int(result.ks[np.argmax(result.silhouette)]) in (2, 3)

    def test_normalized_curves_span_unit_interval(self):
        data, _ = make_blobs(20, 30, dim=8, seed=1)
        result = select_natural_k(metrics.Distances.of(data), (15, 40), seed=0, restarts=10)
        for curve in (result.sil_norm, result.ch_norm, result.elbow_norm):
            assert curve.min() == 0.0
            assert curve.max() == 1.0
        assert np.all((result.consensus >= 0) & (result.consensus <= 1))

    def test_degenerate_range(self):
        data = np.random.default_rng(0).normal(0, 1, (30, 3))
        distances = metrics.Distances.of(data)
        with pytest.raises(ValueError):
            select_natural_k(distances, (10, 5))
        with pytest.raises(ValueError):
            select_natural_k(distances, (2, 50))

    def test_csv_row_count(self, tmp_path):
        data, _ = make_blobs(5, 20, dim=4, seed=14)
        result = select_natural_k(metrics.Distances.of(data), (2, 10), seed=0, restarts=5)
        result.write_csv(tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 9  # header + one row per k in [2, 10]


# ---------------------------------------------------------------------------
# kmeans runs the restarts of a call in lockstep: one D^2 draw pass per seed
# (_plus_plus_seeds), then one stacked assign and one grouped update per Lloyd
# iteration (_lockstep_lloyd). The per-restart kmeans it replaced is kept
# here as the reference, on the per-cluster mask loop, and every result must
# match it bit for bit.


def _plus_plus_init(x, k, rng):
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all points coincide with chosen centroids
        centroids[i] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[i]) ** 2).sum(axis=1))
    return centroids


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


def kmeans_reference(data, k, restarts=KMEANS_RESTARTS, seed=0):
    x = np.asarray(data, dtype=np.float64)
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        result = lloyd_reference(x, _plus_plus_init(x, k, np.random.default_rng(child)))
        if best is None or result[1] < best[1]:
            best = result
    labels, inertia, refilled = best
    warning = None
    if refilled:
        warning = (
            f"{refilled} of k={k} clusters were empty after k-means and each took one point "
            "from a larger cluster; the data may have fewer than k distinct rows"
        )
    return ClusterModel(labels, k, inertia, method="kmeans", seed=seed, warning=warning)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_model(got, want):
    return (
        same_bits(got.labels, want.labels)
        and same_bits(np.float64(got.inertia), np.float64(want.inertia))
        and got.warning == want.warning
    )


def same_lloyd(x, starts):
    """``_lockstep_lloyd`` on a (restarts, k, d) stack against the mask loop from each start."""
    labels, inertia, refilled = _lockstep_lloyd(x, (x**2).sum(axis=1), starts.copy())
    for r, start in enumerate(starts):
        want_labels, want_inertia, want_refilled = lloyd_reference(x, start.copy())
        if not (
            same_bits(labels[r], want_labels)
            and same_bits(np.float64(inertia[r]), np.float64(want_inertia))
            and refilled[r] == want_refilled
        ):
            return False
    return True


# small integers make duplicate rows and tied distances common
lloyd_coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def point_sets(draw, max_n=40):
    """Rows drawn from fewer distinct rows, so that duplicates and constant sets are common."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 4))
    n_distinct = draw(st.integers(1, n))
    base = np.array(
        draw(st.lists(st.lists(lloyd_coordinate, min_size=d, max_size=d), min_size=n_distinct, max_size=n_distinct))
    )
    return base[draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))]


@st.composite
def lloyd_cases(draw):
    x = draw(point_sets())
    n = x.shape[0]
    k = draw(st.integers(2, n))
    starts = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.sampled_from(["plus_plus", "rows", "far"]))
        if start == "plus_plus":
            starts.append(_plus_plus_init(x, k, np.random.default_rng(draw(st.integers(0, 2**32)))))
        elif start == "rows":  # repeated starting rows tie, so some clusters start empty
            starts.append(x[draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))])
        else:  # centroids far outside the data, which no point is nearest to
            starts.append(x[:1].repeat(k, axis=0) + 1e5 * np.arange(k)[:, None])
    return x, np.stack(starts)


class TestLloydMatchesMaskLoop:
    @settings(max_examples=300, deadline=None)
    @given(lloyd_cases())
    def test_bitwise(self, case):
        x, starts = case
        assert same_lloyd(x, starts)

    @pytest.mark.parametrize("seed", range(5))
    def test_blobs_with_refills(self, seed):
        # 60 rows of 3 distinct points at k=6: empty clusters every iteration
        x = np.repeat(make_blobs(3, 1, dim=5, seed=seed)[0], 20, axis=0)
        for k in (3, 6, 60):
            starts = np.stack([_plus_plus_init(x, k, np.random.default_rng(seed + r)) for r in range(3)])
            assert same_lloyd(x, starts)
        assert kmeans(x, 6, restarts=3, seed=seed).warning is not None

    def test_wide_blobs(self):
        x = make_blobs(8, 15, dim=40, seed=3)[0]
        starts = np.stack([_plus_plus_init(x, 8, np.random.default_rng(seed)) for seed in range(5)])
        assert same_lloyd(x, starts)


class TestSeedsMatchPerRestart:
    @settings(max_examples=200, deadline=None)
    @given(point_sets(), st.integers(1, 6), st.integers(0, 2**32), st.data())
    def test_bitwise(self, x, restarts, seed, data):
        k = data.draw(st.integers(2, x.shape[0]))
        children = np.random.SeedSequence(seed).spawn(restarts)
        got = _plus_plus_seeds(x, k, [np.random.default_rng(child) for child in children])
        want = np.stack([_plus_plus_init(x, k, np.random.default_rng(child)) for child in children])
        assert same_bits(got, want)


class TestD2DrawMatchesChoice:
    """The inline draw must stay what numpy's ``Generator.choice(n, p=...)`` draws."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        ),
        st.integers(0, 2**32),
    )
    def test_bitwise(self, rows, seed):
        d2 = np.array(rows)
        n = d2.shape[1]
        children = np.random.SeedSequence(seed).spawn(d2.shape[0])
        got_rngs = [np.random.default_rng(child) for child in children]
        want_rngs = [np.random.default_rng(child) for child in children]
        got = _d2_draws(d2, got_rngs)
        for r, rng in enumerate(want_rngs):
            total = d2[r].sum()
            want = rng.choice(n, p=d2[r] / total) if total > 0 else rng.integers(n)
            assert got[r] == want
        # each row used up as many random numbers as choice did
        assert [rng.random() for rng in got_rngs] == [rng.random() for rng in want_rngs]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_on_a_step(self, seed):
        # choice counts the steps at or below its random number
        # (searchsorted side="right"): a number on a step draws the next index
        u = np.random.default_rng(seed).random()
        d2 = np.array([u, 1.0 - u])
        assert d2.sum() == 1.0
        want = np.random.default_rng(seed).choice(2, p=d2)
        assert want == 1
        assert _d2_draws(d2[None], [np.random.default_rng(seed)]).tolist() == [want]

    def test_zero_entries_never_drawn(self):
        d2 = np.array([[0.0, 2.0, 0.0, 0.0, 1.0, 0.0]] * 200)
        draws = _d2_draws(d2, [np.random.default_rng(s) for s in range(200)])
        assert set(draws.tolist()) == {1, 4}


@st.composite
def kmeans_cases(draw):
    x = draw(point_sets(max_n=30))
    n = x.shape[0]
    k = draw(st.one_of(st.just(n), st.integers(2, n)))
    return x, k, draw(st.integers(1, 12)), draw(st.integers(0, 2**32))


class TestKmeansMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(kmeans_cases(), st.booleans())
    def test_bitwise(self, case, one_per_block):
        x, k, restarts, seed = case
        block = 1 if one_per_block else cluster.KMEANS_BLOCK
        with mock.patch.object(cluster, "KMEANS_BLOCK", block):
            got = kmeans(x, k, restarts=restarts, seed=seed)
        assert same_model(got, kmeans_reference(x, k, restarts=restarts, seed=seed))

    @pytest.mark.parametrize(
        "x, k",
        [
            (np.zeros((10, 3)), 3),
            (np.repeat(np.array([[0.0, 1.0], [4.0, 4.0], [9.0, 0.0]]), 7, axis=0), 5),
            (np.random.default_rng(0).normal(0, 1, (30, 1)), 4),
            (np.random.default_rng(1).normal(0, 1, (12, 3)), 12),
        ],
        ids=["constant", "refills", "one_column", "k_equals_n"],
    )
    @pytest.mark.parametrize("block", [1, 7, None])
    def test_edge_cases(self, x, k, block):
        block = cluster.KMEANS_BLOCK if block is None else block
        with mock.patch.object(cluster, "KMEANS_BLOCK", block):
            got = kmeans(x, k, restarts=12, seed=5)
        assert same_model(got, kmeans_reference(x, k, restarts=12, seed=5))

    def test_divisive_cluster(self, monkeypatch):
        data = make_blobs(4, 15, dim=6, seed=5)[0]
        distances = metrics.Distances.of(data)
        got = divisive_cluster(distances, 6, seed=3)
        monkeypatch.setattr(cluster, "kmeans", kmeans_reference)
        want = divisive_cluster(distances, 6, seed=3)
        assert same_model(got, want)
        assert got.split_tree.to_dict() == want.split_tree.to_dict()

    def test_select_natural_k(self, monkeypatch):
        data = make_blobs(5, 12, dim=4, seed=6)[0]
        distances = metrics.Distances.of(data)
        got = select_natural_k(distances, (2, 8), seed=1, restarts=6)
        monkeypatch.setattr(cluster, "kmeans", kmeans_reference)
        want = select_natural_k(distances, (2, 8), seed=1, restarts=6)
        for f in fields(got):
            assert same_bits(getattr(got, f.name), getattr(want, f.name)), f.name


# ---------------------------------------------------------------------------
# divisive_cluster no longer scores the two children of its last split: once
# k_target leaves exist no leaf is chosen again, and leaves carry h=None. The
# old loop, which scored them, is kept here as the reference.


def divisive_reference(data, k_target, seed=0):
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    ss = np.random.SeedSequence(seed)

    def next_seed():
        return int(ss.spawn(1)[0].generate_state(1)[0])

    root = cluster.SplitNode(0, np.arange(n))
    h_scores = {0: heterogeneity(metrics.Distances.of(x), seed=next_seed())}
    leaves = {0: root}
    next_id = 1
    warning = None
    while len(leaves) < k_target:
        candidates = [(nid, h_scores[nid]) for nid in sorted(leaves)]
        best_id, best_h = max(candidates, key=lambda t: (t[1], leaves[t[0]].size, -t[0]))
        if best_h <= 0:
            warning = f"all heterogeneity scores 0 at k={len(leaves)}; cannot reach k_target={k_target}"
            break
        node = leaves.pop(best_id)
        split = kmeans(x[node.indices], 2, restarts=cluster.SPLIT_RESTARTS, seed=next_seed())
        left = cluster.SplitNode(next_id, node.indices[split.labels == 0])
        right = cluster.SplitNode(next_id + 1, node.indices[split.labels == 1])
        next_id += 2
        node.h = best_h
        node.children = (left, right)
        for child in (left, right):
            leaves[child.node_id] = child
            members = x[child.indices]  # scored over its own distances, not a subset view
            h_scores[child.node_id] = heterogeneity(metrics.Distances.of(members), seed=next_seed())
    labels = np.empty(n, dtype=np.int64)
    ordered = [leaves[nid] for nid in sorted(leaves)]
    inertia = 0.0
    for c, leaf in enumerate(ordered):
        labels[leaf.indices] = c
        members = x[leaf.indices]
        inertia += float(((members - members.mean(axis=0)) ** 2).sum())
    return ClusterModel(labels, len(ordered), inertia, method="divisive", seed=seed, split_tree=root, warning=warning)


class TestDivisiveMatchesReference:
    @pytest.mark.parametrize("k", [2, 3, 6, 10])
    def test_heterogeneity_calls(self, k):
        data = np.random.default_rng(k).normal(0, 1, (60, 4))
        with mock.patch.object(cluster, "heterogeneity", wraps=heterogeneity) as spy:
            model = divisive_cluster(metrics.Distances.of(data), k, seed=0)
        assert model.k == k and model.warning is None
        assert spy.call_count == 2 * k - 3

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "data, k",
        [
            (make_blobs(4, 15, dim=5, seed=7)[0], 7),
            (np.random.default_rng(2).normal(0, 1, (40, 3)), 10),
            (np.repeat(np.random.default_rng(3).normal(0, 1, (6, 2)), 4, axis=0), 9),
            (np.ones((20, 3)), 3),
        ],
        ids=["blobs", "noise", "duplicates", "constant"],
    )
    def test_same_model_and_tree(self, data, k, seed):
        got = divisive_cluster(metrics.Distances.of(data), k, seed=seed)
        want = divisive_reference(data, k, seed=seed)
        assert same_model(got, want)
        assert got.split_tree.to_dict() == want.split_tree.to_dict()


# ---------------------------------------------------------------------------
# divisive_cluster and select_natural_k read the one Distances of their input
# they are given, and every silhouette reads them; each silhouette computed its own with
# scipy's cdist. silhouette_reference is that silhouette, and every result
# must match it bit for bit.

CASES = [
    (make_blobs(4, 15, dim=5, seed=7)[0], 7),
    (np.random.default_rng(2).normal(0, 1, (40, 3)), 10),
    (np.repeat(np.random.default_rng(3).normal(0, 1, (6, 2)), 4, axis=0), 9),
    (np.asfortranarray(np.random.default_rng(4).normal(0, 1e3, (30, 12))), 5),
]
CASE_IDS = ["blobs", "noise", "duplicates", "fortran"]


class TestSharedDistancesMatchReference:
    @pytest.mark.parametrize("data, k", CASES, ids=CASE_IDS)
    def test_divisive_cluster(self, monkeypatch, data, k):
        distances = metrics.Distances.of(data)
        got = [divisive_cluster(distances, k, seed=seed) for seed in range(3)]
        monkeypatch.setattr(metrics, "silhouette", silhouette_reference)
        want = [divisive_cluster(distances, k, seed=seed) for seed in range(3)]
        for g, w in zip(got, want):
            assert same_model(g, w)
            assert g.split_tree.to_dict() == w.split_tree.to_dict()

    @pytest.mark.parametrize("data, k", CASES, ids=CASE_IDS)
    def test_heterogeneity_of_a_subset(self, monkeypatch, data, k):
        rows = np.random.default_rng(k).permutation(data.shape[0])[: data.shape[0] // 2 + 3]
        distances = metrics.Distances.of(data).subset(rows)
        got = [heterogeneity(distances, seed=seed) for seed in range(4)]
        monkeypatch.setattr(metrics, "silhouette", silhouette_reference)
        want = [heterogeneity(distances, seed=seed) for seed in range(4)]
        assert same_bits(got, want)

    @pytest.mark.parametrize("data, k", CASES, ids=CASE_IDS)
    def test_select_natural_k(self, monkeypatch, data, k):
        distances = metrics.Distances.of(data)
        got = select_natural_k(distances, (2, k), seed=1, restarts=4)
        monkeypatch.setattr(metrics, "silhouette", silhouette_reference)
        want = select_natural_k(distances, (2, k), seed=1, restarts=4)
        for f in fields(got):
            assert same_bits(getattr(got, f.name), getattr(want, f.name)), f.name
