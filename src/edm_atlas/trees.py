"""From-scratch decision-tree ensembles for Gini feature importance.

Only importances are needed downstream, so trees are grown without keeping
prediction structure: each split accumulates its impurity decrease
(weighted by the fraction of samples reaching the node) against the chosen
feature. Two modes: ``random_forest`` bootstraps rows and takes the best
Gini split over candidate thresholds of the sampled features;
``extra_trees`` uses all rows and one uniformly random threshold per
sampled feature.
"""

from __future__ import annotations

import numpy as np

from .parallel import pool_map

N_TREES = 100
MAX_DEPTH = 12
MIN_LEAF = 2
MIN_SAMPLES = 20  # fewest rows a forest is grown on


def _gini(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split_scan(x_sub: np.ndarray, y_onehot: np.ndarray, min_leaf: int):
    """Best (feature_col, threshold, weighted_gini) over all midpoints.

    x_sub: (n, f) node values for the sampled features; y_onehot: (n, K).
    Returns None when no valid split exists.
    """
    n = x_sub.shape[0]
    order = np.argsort(x_sub, axis=0, kind="stable")
    x_sorted = np.take_along_axis(x_sub, order, axis=0)
    y_sorted = y_onehot[order]  # (n, f, K)

    left = np.cumsum(y_sorted, axis=0)[:-1]  # counts after positions 0..n-2
    total = left[-1] + y_sorted[-1]  # (f, K)
    right = total[None, :, :] - left
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left

    gini_left = 1.0 - ((left / n_left[:, :, None]) ** 2).sum(axis=2)
    gini_right = 1.0 - ((right / n_right[:, :, None]) ** 2).sum(axis=2)
    weighted = (n_left * gini_left + n_right * gini_right) / n

    valid = (x_sorted[1:] > x_sorted[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    weighted = np.where(valid, weighted, np.inf)
    pos_flat = int(np.argmin(weighted))
    pos, col = divmod(pos_flat, weighted.shape[1])
    if not np.isfinite(weighted[pos, col]):
        return None
    threshold = 0.5 * (x_sorted[pos, col] + x_sorted[pos + 1, col])
    return col, float(threshold), float(weighted[pos, col])


def _best_split_random(x_sub: np.ndarray, y_onehot: np.ndarray, min_leaf: int, rng):
    """Best split with one uniformly random threshold per sampled feature.

    All sampled features are scored in one pass; ties go to the first.
    """
    n = x_sub.shape[0]
    lo = x_sub.min(axis=0)
    hi = x_sub.max(axis=0)
    spread = hi > lo
    if not np.any(spread):
        return None
    thresholds = rng.uniform(lo, hi)
    mask = x_sub <= thresholds  # (n, f)
    # class counts are small integers, so the matrix product is exact
    left = mask.T @ y_onehot  # (f, K)
    right = y_onehot.sum(axis=0) - left
    n_left = mask.sum(axis=0)
    n_right = n - n_left
    valid = spread & (n_left >= min_leaf) & (n_right >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = np.where(n_left > 0, 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1), 0.0)
        gini_right = np.where(n_right > 0, 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1), 0.0)
    weighted = np.where(valid, (n_left * gini_left + n_right * gini_right) / n, np.inf)
    col = int(np.argmin(weighted))
    if not valid[col]:
        return None
    return col, float(thresholds[col]), float(weighted[col])


def _grow_tree(shared, child: np.random.SeedSequence) -> list[tuple[int, float]]:
    """One forest task: the ``(feature, decrease)`` gain of every split of
    the tree grown from ``child``, in the order grown."""
    X, y_onehot, mode, n_total, m_try = shared
    rng = np.random.default_rng(child)
    n = X.shape[0]
    gains = []
    if mode == "random_forest":
        root_idx = rng.integers(0, n, n)
    else:
        root_idx = np.arange(n)

    stack = [(root_idx, 0)]
    while stack:
        idx, depth = stack.pop()
        n_node = idx.size
        counts = y_onehot[idx].sum(axis=0)
        node_gini = _gini(counts, n_node)
        if depth >= MAX_DEPTH or n_node < 2 * MIN_LEAF or node_gini == 0.0:
            continue
        feats = rng.choice(X.shape[1], size=m_try, replace=False)
        x_sub = X[np.ix_(idx, feats)]
        if mode == "random_forest":
            found = _best_split_scan(x_sub, y_onehot[idx], MIN_LEAF)
        else:
            found = _best_split_random(x_sub, y_onehot[idx], MIN_LEAF, rng)
        if found is None:
            continue
        col, threshold, weighted = found
        decrease = (n_node / n_total) * (node_gini - weighted)
        gains.append((int(feats[col]), max(decrease, 0.0)))
        mask = x_sub[:, col] <= threshold
        stack.append((idx[mask], depth + 1))
        stack.append((idx[~mask], depth + 1))
    return gains


def forest_gini_importance(
    X: np.ndarray, y: np.ndarray, mode: str = "random_forest", seed: int = 0, workers: int = 1
) -> np.ndarray:
    """Mean-decrease-in-Gini importance per feature, normalized to sum 1.

    Deterministic for a fixed seed: tree t uses the t-th spawn of the root
    seed sequence. Returns zeros when no split was ever made.

    The trees run over ``min(workers, N_TREES)`` processes
    (``parallel.pool_map``); their gains are added tree by tree, each in
    the order it was grown, so the result does not depend on ``workers``.
    """
    if mode not in ("random_forest", "extra_trees"):
        raise ValueError(f"unknown mode {mode!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, d) with one label per row")
    classes, y_idx = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    if X.shape[0] < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")

    n, d = X.shape
    y_onehot = np.zeros((n, classes.size))
    y_onehot[np.arange(n), y_idx] = 1.0
    m_try = max(1, int(round(np.sqrt(d))))

    importance = np.zeros(d)
    children = np.random.SeedSequence(seed).spawn(N_TREES)
    for gains in pool_map(_grow_tree, (X, y_onehot, mode, n, m_try), children, workers):
        for feature, decrease in gains:
            importance[feature] += decrease
    total = importance.sum()
    return importance / total if total > 0 else importance
