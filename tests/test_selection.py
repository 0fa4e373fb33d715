from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edm_atlas.selection import (
    METHOD_WEIGHTS,
    MI_BINS,
    YJ_LAMBDA_GRID,
    SelectionReport,
    _yeo_johnson_grid,
    anova_f,
    cluster_separation_score,
    engineer_features,
    ensemble_normalize,
    ensemble_select,
    mutual_info,
    power_scale,
    robust_scale,
    standard_scale,
    variance_score,
)
from edm_atlas.table import FeatureMatrix
from edm_atlas.types import min_max
from edm_atlas import trees
from edm_atlas.trees import _best_split_random, _best_split_scan, _gini


def matrix_of(data, groups=None, names=None):
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    names = names or [f"f{i:03d}" for i in range(d)]
    groups = groups or ["spectral"] * d
    return FeatureMatrix([f"t{i}" for i in range(n)], names, groups, data)


class TestEngineerFeatures:
    def test_square_column_values(self):
        rng = np.random.default_rng(0)
        m = matrix_of(rng.normal(0, 1, (30, 3)))
        out = engineer_features(m)
        for col in m.col_names:
            sq = out.column(f"sq_{col}")
            assert np.array_equal(sq, m.column(col) ** 2)

    def test_constant_column_excluded_from_log(self):
        rng = np.random.default_rng(1)
        data = np.column_stack([rng.exponential(1, 40), np.full(40, 5.0)])
        out = engineer_features(matrix_of(data, names=["a", "b"]))
        assert "log_a" in out.col_names
        assert "log_b" not in out.col_names

    def test_counting_rule(self):
        # 158 input columns with all five audio groups -> +20 +20 +10 = 208
        rng = np.random.default_rng(2)
        d = 158
        groups = (
            ["spectral"] * 30 + ["timbral"] * 40 + ["harmonic"] * 30
            + ["rhythmic"] * 20 + ["tempogram"] * 36 + ["meta"] * 2
        )
        m = matrix_of(rng.normal(0, 1, (60, d)) * rng.uniform(0.5, 5, d), groups=groups)
        out = engineer_features(m)
        assert out.shape[1] == 208
        assert out.col_groups.count("engineered") == 50

    def test_interactions_named_by_source_columns(self):
        rng = np.random.default_rng(3)
        groups = ["spectral", "timbral", "harmonic", "rhythmic", "tempogram"]
        m = matrix_of(rng.normal(0, 1, (25, 5)), groups=groups, names=list("abcde"))
        out = engineer_features(m)
        inters = [n for n in out.col_names if n.startswith("x_")]
        assert len(inters) == 10
        assert "x_a_b" in inters
        assert np.array_equal(out.column("x_a_b"), m.column("a") * m.column("b"))


class TestEnsembleNormalize:
    def test_standard_normal_recentered(self):
        rng = np.random.default_rng(4)
        m = matrix_of(rng.normal(0, 1, (10000, 1)))
        out = ensemble_normalize(m)
        assert abs(np.median(out.data[:, 0])) < 0.05

    def test_constant_column_zeros(self):
        m = matrix_of(np.column_stack([np.full(50, 3.0), np.arange(50.0)]))
        out = ensemble_normalize(m)
        assert np.all(out.data[:, 0] == 0.0)

    def test_weights_applied_exactly(self):
        rng = np.random.default_rng(5)
        col = rng.exponential(2, 300)
        m = matrix_of(col[:, None])
        out = ensemble_normalize(m)
        expected = 0.5 * robust_scale(col) + 0.3 * power_scale(col) + 0.2 * standard_scale(col)
        assert np.array_equal(out.data[:, 0], expected)

    def test_robust_component_shift_equivariant(self):
        # integer data + integer shift keeps the arithmetic exact
        rng = np.random.default_rng(6)
        col = rng.integers(0, 100, 200).astype(float)
        assert np.array_equal(robust_scale(col), robust_scale(col + 256.0))

    def test_power_scale_gaussianizes_skewed_data(self):
        rng = np.random.default_rng(7)
        col = rng.exponential(1, 5000)
        out = power_scale(col)
        centered = out - out.mean()
        skew = (centered**3).mean() / (centered**2).mean() ** 1.5
        raw_centered = col - col.mean()
        raw_skew = (raw_centered**3).mean() / (raw_centered**2).mean() ** 1.5
        assert abs(skew) < 0.3 * abs(raw_skew)


def yeo_johnson_reference(col, lam):
    """One Yeo-Johnson transform at one lambda (the scalar reference)."""
    out = np.empty_like(col)
    pos = col >= 0
    if abs(lam) < 1e-12:
        out[pos] = np.log1p(col[pos])
    else:
        out[pos] = (np.exp(lam * np.log1p(col[pos])) - 1.0) / lam
    neg = ~pos
    if np.any(neg):
        if abs(lam - 2.0) < 1e-12:
            out[neg] = -np.log1p(-col[neg])
        else:
            out[neg] = -(np.exp((2.0 - lam) * np.log1p(-col[neg])) - 1.0) / (2.0 - lam)
    return out


def power_scale_reference(col):
    """power_scale as one transform per grid lambda, ties to the lowest lambda."""
    if col.max() == col.min():
        return np.zeros_like(col)
    n = col.size
    penalty_sum = (np.sign(col) * np.log1p(np.abs(col))).sum()
    best_lam, best_ll = None, -np.inf
    with np.errstate(all="ignore"):
        for lam in YJ_LAMBDA_GRID:
            var = yeo_johnson_reference(col, float(lam)).var()
            if var <= 0 or not np.isfinite(var):
                continue
            ll = -0.5 * n * np.log(var) + (lam - 1.0) * penalty_sum
            if ll > best_ll:
                best_ll, best_lam = ll, float(lam)
    if best_lam is None:
        return np.zeros_like(col)
    t = yeo_johnson_reference(col, best_lam)
    std = t.std()
    return (t - t.mean()) / std if std > 0 else np.zeros_like(col)


@st.composite
def power_columns(draw):
    """Columns of every sign pattern and spread power_scale meets."""
    n = draw(st.one_of(st.integers(2, 4), st.integers(5, 60)))
    kind = draw(
        st.sampled_from(
            ["positive", "negative", "mixed", "lognormal", "near_constant", "constant"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0, 1e4]))
    if kind == "positive":
        return rng.exponential(scale, n)
    if kind == "negative":
        return -rng.exponential(scale, n)
    if kind == "mixed":
        return rng.normal(draw(st.floats(-2.0, 2.0)) * scale, scale, n)
    if kind == "lognormal":
        return rng.lognormal(0.0, draw(st.floats(0.1, 3.0)), n)
    if kind == "near_constant":
        return np.full(n, draw(st.floats(-1e3, 1e3))) + rng.normal(0.0, 1e-9, n)
    return np.full(n, draw(st.floats(-1e3, 1e3)))


class TestPowerScaleMatchesScalarLoop:
    @settings(max_examples=150, deadline=None)
    @given(col=power_columns())
    def test_bitwise_equal(self, col):
        assert power_scale(col).tobytes() == power_scale_reference(col).tobytes()

    def test_every_grid_row_including_log1p_branches(self):
        # lambda 0 and 2 take the log1p branches, which the likelihood
        # rarely picks, so compare every row of the grid transform
        col = np.array([-40.0, -3.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 3.0, 900.0])
        grid = _yeo_johnson_grid(col)
        assert grid.shape == (YJ_LAMBDA_GRID.size, col.size)
        for lam, row in zip(YJ_LAMBDA_GRID, grid):
            assert row.tobytes() == yeo_johnson_reference(col, float(lam)).tobytes()


def best_split_random_reference(x_sub, y_onehot, min_leaf, rng):
    """_best_split_random as a loop over the sampled features."""
    n, f = x_sub.shape
    lo = x_sub.min(axis=0)
    hi = x_sub.max(axis=0)
    spread = hi > lo
    if not np.any(spread):
        return None
    thresholds = rng.uniform(lo, hi)
    best = None
    for col in range(f):
        if not spread[col]:
            continue
        mask = x_sub[:, col] <= thresholds[col]
        n_left = int(mask.sum())
        if n_left < min_leaf or n - n_left < min_leaf:
            continue
        cl = y_onehot[mask].sum(axis=0)
        cr = y_onehot[~mask].sum(axis=0)
        weighted = (n_left * _gini(cl, n_left) + (n - n_left) * _gini(cr, n - n_left)) / n
        if best is None or weighted < best[2]:
            best = (col, float(thresholds[col]), weighted)
    return best


def one_hot(y, k):
    out = np.zeros((y.size, k))
    out[np.arange(y.size), y] = 1.0
    return out


class TestBestSplitRandomMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        f=st.integers(1, 15),
        k=st.integers(2, 12),
        min_leaf=st.integers(0, 4),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_split(self, n, f, k, min_leaf, ties, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (n, f))
        if ties:
            x = np.round(x)
        y_onehot = one_hot(rng.integers(0, k, n), k)
        found = _best_split_random(x, y_onehot, min_leaf, np.random.default_rng(seed + 1))
        expected = best_split_random_reference(x, y_onehot, min_leaf, np.random.default_rng(seed + 1))
        assert repr(found) == repr(expected)
        if found is not None:
            assert type(found[0]) is int and type(found[2]) is float

    def test_no_valid_split_is_none(self):
        # every threshold leaves fewer than min_leaf rows on one side
        x = np.array([[0.0, 5.0], [1.0, 6.0], [2.0, 7.0]])
        y_onehot = one_hot(np.array([0, 1, 0]), 2)
        assert _best_split_random(x, y_onehot, 2, np.random.default_rng(0)) is None
        assert best_split_random_reference(x, y_onehot, 2, np.random.default_rng(0)) is None

    def test_tie_goes_to_first_feature(self):
        # two copies of a perfect separator: any threshold in (0, 1) splits
        # both identically, so the weighted Gini ties and column 0 must win
        y = np.repeat([0, 1], 5)
        x = np.column_stack([y, y]).astype(float)
        y_onehot = one_hot(y, 2)
        found = _best_split_random(x, y_onehot, 2, np.random.default_rng(3))
        expected = best_split_random_reference(x, y_onehot, 2, np.random.default_rng(3))
        assert found[0] == 0 and found[2] == 0.0
        assert repr(found) == repr(expected)


def anova_oracle(col, y):
    """Brute-force one-way F from group means."""
    classes = np.unique(y)
    n, k = col.size, classes.size
    grand = col.mean()
    ssb = sum((col[y == c]).size * (col[y == c].mean() - grand) ** 2 for c in classes)
    ssw = sum(((col[y == c] - col[y == c].mean()) ** 2).sum() for c in classes)
    return (ssb / (k - 1)) / (ssw / (n - k))


class TestAnovaF:
    def test_identical_across_classes_zero(self):
        y = np.repeat([0, 1], 20)
        scores = anova_f(np.tile(np.arange(20.0), 2)[:, None], y)
        assert scores[0] == 0.0

    def test_perfect_separation_sentinel(self):
        rng = np.random.default_rng(8)
        y = np.repeat([0, 1], 50)
        data = np.column_stack([y.astype(float), rng.normal(0, 1, 100)])
        scores = anova_f(data, y)
        assert scores[0] >= 10 * scores[1]

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        y = np.repeat([0, 1], 100)
        col = np.concatenate([rng.normal(0, 1, 100), rng.normal(3, 1, 100)])
        scores = anova_f(col[:, None], y)
        expected = anova_oracle(col, y)
        assert scores[0] == pytest.approx(expected, rel=0.2)
        assert scores[0] == pytest.approx(expected, rel=1e-9)  # same formula, tight too

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            anova_f(np.arange(10.0)[:, None], np.zeros(10, dtype=int))


class TestMutualInfo:
    def test_shuffled_labels_near_zero(self):
        rng = np.random.default_rng(10)
        col = rng.normal(0, 1, 1000)
        y = rng.integers(0, 4, 1000)
        scores = mutual_info(col[:, None], y)
        assert scores[0] < 0.05

    def test_feature_equals_label_reaches_entropy(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 4, 1000)
        col = y + 0.001 * rng.normal(0, 1, 1000)
        scores = mutual_info(col[:, None], y)
        counts = np.bincount(y)
        h_label = -(counts / 1000 * np.log(counts / 1000)).sum()
        assert scores[0] == pytest.approx(h_label, rel=0.10)

    def test_constant_feature_zero(self):
        y = np.repeat([0, 1], 25)
        scores = mutual_info(np.full((50, 1), 2.0), y)
        assert scores[0] == 0.0


def discrete_mi_loop(a, b, n):
    """The selection module's former private MI, kept as the reference."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    joint = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(joint, (ai, bi), 1.0)
    pj = joint / n
    pa = pj.sum(axis=1, keepdims=True)
    pb = pj.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pj > 0, pj * np.log(pj / (pa * pb)), 0.0)
    return float(max(terms.sum(), 0.0))


def mutual_info_loop(x, y, bins=MI_BINS):
    n = x.shape[0]
    scores = np.empty(x.shape[1])
    for j in range(x.shape[1]):
        col = x[:, j]
        edges = np.unique(np.quantile(col, np.linspace(0, 1, bins + 1)[1:-1]))
        binned = np.searchsorted(edges, col, side="right")
        scores[j] = discrete_mi_loop(binned, y, n)
    return scores


class TestMutualInfoMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 4),
        k=st.integers(2, 6),
        bins=st.sampled_from([2, 4, MI_BINS]),
        data=st.data(),
    )
    def test_bitwise(self, n, d, k, bins, data):
        k = min(k, n)
        value = st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
        x = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)))
        # every class present; the rest drawn freely, including singleton classes
        y = np.r_[np.arange(k), data.draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))]
        y = y[np.array(data.draw(st.permutations(range(n))), dtype=np.int64)].astype(np.int64)
        assert mutual_info(x, y, bins=bins).tobytes() == mutual_info_loop(x, y, bins).tobytes()


def forest_reference(X, y, mode, seed):
    """The forest grown serially, each split added to the importances as it is made."""
    X = np.asarray(X, dtype=np.float64)
    classes, y_idx = np.unique(y, return_inverse=True)
    n, d = X.shape
    y_onehot = np.zeros((n, classes.size))
    y_onehot[np.arange(n), y_idx] = 1.0
    m_try = max(1, int(round(np.sqrt(d))))
    importance = np.zeros(d)
    for child in np.random.SeedSequence(seed).spawn(trees.N_TREES):
        rng = np.random.default_rng(child)
        stack = [(rng.integers(0, n, n) if mode == "random_forest" else np.arange(n), 0)]
        while stack:
            idx, depth = stack.pop()
            counts = y_onehot[idx].sum(axis=0)
            node_gini = _gini(counts, idx.size)
            if depth >= trees.MAX_DEPTH or idx.size < 2 * trees.MIN_LEAF or node_gini == 0.0:
                continue
            feats = rng.choice(d, size=m_try, replace=False)
            x_sub = X[np.ix_(idx, feats)]
            if mode == "random_forest":
                found = _best_split_scan(x_sub, y_onehot[idx], trees.MIN_LEAF)
            else:
                found = _best_split_random(x_sub, y_onehot[idx], trees.MIN_LEAF, rng)
            if found is None:
                continue
            col, threshold, weighted = found
            importance[feats[col]] += max((idx.size / n) * (node_gini - weighted), 0.0)
            mask = x_sub[:, col] <= threshold
            stack.append((idx[mask], depth + 1))
            stack.append((idx[~mask], depth + 1))
    total = importance.sum()
    return importance / total if total > 0 else importance


class TestForestImportance:
    def planted(self, seed=12, n=200, d=10):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, (n, d))
        y = (data[:, 4] > 0).astype(int)
        return data, y

    def test_importances_sum_to_one(self):
        data, y = self.planted()
        for mode in ("random_forest", "extra_trees"):
            scores = trees.forest_gini_importance(data, y, mode=mode, seed=0)
            assert scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_planted_signal_dominates(self):
        data, y = self.planted()
        for mode in ("random_forest", "extra_trees"):
            scores = trees.forest_gini_importance(data, y, mode=mode, seed=0)
            assert scores[4] > 0.5

    def test_duplicated_column_shares_importance(self):
        rng = np.random.default_rng(13)
        data = rng.normal(0, 1, (300, 6))
        y = (data[:, 0] > 0).astype(int)
        single = trees.forest_gini_importance(data, y, mode="random_forest", seed=1)
        dup = np.column_stack([data, data[:, 0]])
        shared = trees.forest_gini_importance(dup, y, mode="random_forest", seed=1)
        combined = shared[0] + shared[6]
        assert combined == pytest.approx(single[0], rel=0.3)

    @pytest.mark.parametrize("mode", ["random_forest", "extra_trees"])
    def test_tree_gains_add_as_the_serial_forest(self, mode):
        rng = np.random.default_rng(14)
        data = rng.normal(0, 1, (40, 9))
        y = np.repeat(np.arange(4), 10)
        got = trees.forest_gini_importance(data, y, mode=mode, seed=6)
        assert got.tobytes() == forest_reference(data, y, mode, 6).tobytes()

    def test_deterministic(self):
        data, y = self.planted()
        a = trees.forest_gini_importance(data, y, mode="random_forest", seed=3)
        b = trees.forest_gini_importance(data, y, mode="random_forest", seed=3)
        assert np.array_equal(a, b)

    def test_needs_enough_samples(self):
        data = np.random.default_rng(0).normal(0, 1, (10, 3))
        with pytest.raises(ValueError, match=f"at least {trees.MIN_SAMPLES} samples"):
            trees.forest_gini_importance(data, np.repeat([0, 1], 5), mode="random_forest")


class TestVarianceScore:
    def test_constant_zero(self):
        assert variance_score(np.full((30, 1), 9.0))[0] == 0.0

    def test_balanced_pm_one(self):
        col = np.tile([-1.0, 1.0], 50)
        assert variance_score(col[:, None])[0] == pytest.approx(1.0, rel=0.02)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(14)
        col = rng.normal(0, 1, 200)
        v1 = variance_score(col[:, None])[0]
        v2 = variance_score((2 * col)[:, None])[0]
        assert v2 == pytest.approx(4 * v1)


class TestClusterSeparation:
    def test_identical_across_classes_zero(self):
        y = np.repeat([0, 1], 20)
        assert cluster_separation_score(np.tile(np.arange(20.0), 2)[:, None], y)[0] == 0.0

    def test_perfect_separation_huge(self):
        rng = np.random.default_rng(15)
        n = 100
        y = np.repeat([0, 1], n // 2)
        col = y * 100.0 + rng.normal(0, 0.1, n)
        score = cluster_separation_score(col[:, None], y)[0]
        assert score > n

    def test_shuffled_labels_near_one(self):
        rng = np.random.default_rng(16)
        scores = []
        for trial in range(20):
            col = rng.normal(0, 1, 400)
            y = rng.integers(0, 4, 400)
            scores.append(cluster_separation_score(col[:, None], y)[0])
        assert 0.3 < np.mean(scores) < 3.0


class TestEnsembleSelect:
    def test_method_weights(self):
        assert METHOD_WEIGHTS == {
            "anova_f": 0.25,
            "mutual_info": 0.20,
            "rf_importance": 0.20,
            "et_importance": 0.15,
            "variance": 0.10,
            "cluster_sep": 0.10,
        }
        assert sum(METHOD_WEIGHTS.values()) == pytest.approx(1.0)

    def test_dominant_feature_scores_one(self):
        rng = np.random.default_rng(17)
        n = 200
        y = rng.integers(0, 4, n)
        # feature 0 dominates every criterion: label-aligned and largest variance
        data = np.column_stack([y * 10.0] + [0.01 * rng.normal(0, 1, n) for _ in range(5)])
        m = matrix_of(data)
        _, report = ensemble_select(m, y, top_k=3, seed=0)
        assert report.ensemble[0] == pytest.approx(1.0, abs=1e-12)

    def test_planted_feature_ranked_first(self):
        rng = np.random.default_rng(18)
        n, d = 300, 40
        y = rng.integers(0, 4, n)
        data = rng.normal(0, 1, (n, d))
        data[:, 17] = y + 0.05 * rng.normal(0, 1, n)
        m = matrix_of(data)
        selected, report = ensemble_select(m, y, top_k=5, seed=0)
        assert np.argmax(report.ensemble) == 17
        assert "f017" in selected.col_names

    def test_f_ratio_columns_equal_public_scores(self):
        rng = np.random.default_rng(23)
        y = rng.integers(0, 3, 60)
        m = matrix_of(rng.normal(0, 1, (60, 6)))
        _, report = ensemble_select(m, y, top_k=3, seed=0)
        assert np.array_equal(report.raw["anova_f"], report.raw["cluster_sep"])
        # scoring runs on a column-gathered copy, so sums may round differently
        assert report.raw["cluster_sep"] == pytest.approx(cluster_separation_score(m.data, y), rel=1e-12)

    def test_top_k_exceeds_d(self):
        m = matrix_of(np.random.default_rng(0).normal(0, 1, (30, 4)))
        with pytest.raises(ValueError):
            ensemble_select(m, np.repeat([0, 1], 15), top_k=5)

    def test_column_order_invariance(self):
        rng = np.random.default_rng(19)
        n, d = 100, 12
        y = rng.integers(0, 3, n)
        data = rng.normal(0, 1, (n, d))
        data[:, 3] = y * 2.0
        m = matrix_of(data)
        perm = rng.permutation(d)
        m_perm = FeatureMatrix(
            m.row_ids,
            [m.col_names[i] for i in perm],
            [m.col_groups[i] for i in perm],
            m.data[:, perm],
        )
        sel_a, _ = ensemble_select(m, y, top_k=4, seed=5)
        sel_b, _ = ensemble_select(m_perm, y, top_k=4, seed=5)
        assert set(sel_a.col_names) == set(sel_b.col_names)

    def test_row_order_invariance_of_selected_set(self):
        # scores shift slightly under row permutation (bootstrap indices move)
        # but a clear ranking keeps the selected set identical
        rng = np.random.default_rng(22)
        n, d = 200, 10
        y = rng.integers(0, 2, n)
        data = rng.normal(0, 1, (n, d))
        data[:, 2] = y * 5.0 + 0.1 * rng.normal(0, 1, n)
        data[:, 7] = y * 3.0 + 0.1 * rng.normal(0, 1, n)
        m = matrix_of(data)
        perm = rng.permutation(n)
        m_perm = FeatureMatrix(
            [m.row_ids[i] for i in perm], m.col_names, m.col_groups, m.data[perm]
        )
        sel_a, _ = ensemble_select(m, y, top_k=2, seed=1)
        sel_b, _ = ensemble_select(m_perm, y[perm], top_k=2, seed=1)
        assert set(sel_a.col_names) == set(sel_b.col_names) == {"f002", "f007"}

    def test_report_csv(self, tmp_path):
        rng = np.random.default_rng(20)
        y = rng.integers(0, 2, 60)
        m = matrix_of(rng.normal(0, 1, (60, 5)))
        _, report = ensemble_select(m, y, top_k=2, seed=0)
        report.write_csv(tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 6
        header = lines[0].split(",")
        assert header[0] == "feature"
        assert header[-2:] == ["ensemble", "selected"]
        assert sum(line.endswith(",1") for line in lines[1:]) == 2

    def test_normalized_scores_in_unit_interval(self):
        rng = np.random.default_rng(21)
        y = rng.integers(0, 3, 90)
        m = matrix_of(rng.normal(0, 1, (90, 8)))
        _, report = ensemble_select(m, y, top_k=4, seed=0)
        for scores in report.normalized.values():
            assert scores.min() >= 0.0 and scores.max() <= 1.0
        assert np.all(report.ensemble >= 0.0) and np.all(report.ensemble <= 1.0)


@dataclass
class LabelVector:
    """The former class-label container, kept for the reference below."""

    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.size and self.labels.max() >= len(self.class_names):
            raise ValueError("label index exceeds class_names")

    @classmethod
    def from_strings(cls, genres) -> "LabelVector":
        names = sorted(set(genres))
        index = {g: i for i, g in enumerate(names)}
        return cls(np.array([index[g] for g in genres]), names)


def forest_importance(m, labels, mode, seed=0, workers=1):
    """The former pass-through to the tree ensemble."""
    return trees.forest_gini_importance(m.data, labels.labels, mode=mode, seed=seed, workers=workers)


def ensemble_select_reference(m, labels, top_k, seed=0):
    """The former container-based ensemble_select: scores a re-validated name-sorted FeatureMatrix."""
    d = m.shape[1]
    canon = sorted(range(d), key=lambda i: m.col_names[i])
    m_canon = FeatureMatrix(
        m.row_ids,
        [m.col_names[i] for i in canon],
        [m.col_groups[i] for i in canon],
        m.data[:, canon],
    )
    f_ratio = anova_f(m_canon.data, labels.labels)
    raw_canon = {
        "anova_f": f_ratio,
        "mutual_info": mutual_info(m_canon.data, labels.labels),
        "rf_importance": forest_importance(m_canon, labels, "random_forest", seed=seed),
        "et_importance": forest_importance(m_canon, labels, "extra_trees", seed=seed + 1),
        "variance": variance_score(m_canon.data),
        "cluster_sep": f_ratio,
    }
    undo = np.empty(d, dtype=int)
    undo[canon] = np.arange(d)
    raw = {k: v[undo] for k, v in raw_canon.items()}
    normalized = {k: min_max(v) for k, v in raw.items()}
    ensemble = np.zeros(d)
    for method, weight in METHOD_WEIGHTS.items():
        ensemble += weight * normalized[method]
    order = sorted(range(d), key=lambda i: (-ensemble[i], m.col_names[i]))
    selected = np.zeros(d, dtype=bool)
    selected[order[:top_k]] = True
    return m.select(selected), SelectionReport(list(m.col_names), raw, normalized, ensemble, selected)


class TestEnsembleSelectMatchesContainerReference:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(trees.MIN_SAMPLES, 32),
        d=st.integers(1, 7),
        k=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_bitwise(self, n, d, k, seed, data):
        value = st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
        x = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)))
        # every class at least twice, as the F ratio needs; the rest drawn freely
        genres = [f"g{c}" for c in range(k)] * 2
        genres += data.draw(st.lists(st.sampled_from(genres[:k]), min_size=n - 2 * k, max_size=n - 2 * k))
        genres = [genres[i] for i in data.draw(st.permutations(range(n)))]
        # column names in a drawn order, so the name-sorted gather is out of order
        names = [f"c{i}" for i in data.draw(st.permutations(range(d)))]
        m = FeatureMatrix([f"t{i}" for i in range(n)], names, ["spectral"] * d, x)
        top_k = data.draw(st.integers(1, d))
        labels = LabelVector.from_strings(genres)

        selected, report = ensemble_select(m, labels.labels, top_k=top_k, seed=seed)
        want_selected, want = ensemble_select_reference(m, labels, top_k, seed=seed)

        assert report.feature_names == want.feature_names
        for method in METHOD_WEIGHTS:
            assert report.raw[method].tobytes() == want.raw[method].tobytes(), method
            assert report.normalized[method].tobytes() == want.normalized[method].tobytes(), method
        assert report.ensemble.tobytes() == want.ensemble.tobytes()
        assert report.selected.tobytes() == want.selected.tobytes()
        assert (selected.row_ids, selected.col_names, selected.col_groups) == (
            want_selected.row_ids, want_selected.col_names, want_selected.col_groups
        )
        assert selected.data.tobytes() == want_selected.data.tobytes()
