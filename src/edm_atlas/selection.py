"""Feature engineering, ensemble normalization, and multi-criteria selection.

The selection ensemble scores every feature with six methods (ANOVA F,
mutual information, random-forest and extra-trees Gini importance,
variance, and a per-feature cluster separation index), min-max normalizes
each method's scores to [0, 1], and combines them with weights
(0.25, 0.20, 0.20, 0.15, 0.10, 0.10). The top_k features by ensemble score
survive. Normalization blends robust, power, and standard scaling with
weights 0.5 / 0.3 / 0.2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .metrics import mi_score
from .table import FeatureMatrix, write_csv
from .trees import forest_gini_importance
from .types import min_max

logger = logging.getLogger(__name__)

METHOD_WEIGHTS = {
    "anova_f": 0.25,
    "mutual_info": 0.20,
    "rf_importance": 0.20,
    "et_importance": 0.15,
    "variance": 0.10,
    "cluster_sep": 0.10,
}

NORMALIZE_WEIGHTS = (0.5, 0.3, 0.2)  # robust, power, standard
YJ_LAMBDA_GRID = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.01), 2)

ENGINEER_TOP_VARIANCE = 20
ENGINEER_TOP_SKEW = 20
INTERACTION_GROUPS = ("spectral", "timbral", "harmonic", "rhythmic", "tempogram")
MI_BINS = 16
DEFAULT_TOP_K = 100


@dataclass
class SelectionReport:
    """Raw, normalized, and ensemble scores for every candidate feature."""

    feature_names: list[str]
    raw: dict[str, np.ndarray]
    normalized: dict[str, np.ndarray]
    ensemble: np.ndarray
    selected: np.ndarray

    def write_csv(self, path: str | Path) -> None:
        methods = list(METHOD_WEIGHTS)
        header = ["feature", *(f"{m}_raw" for m in methods), *(f"{m}_norm" for m in methods), "ensemble", "selected"]
        scores = [self.raw[m] for m in methods] + [self.normalized[m] for m in methods]
        rows = zip(self.feature_names, *scores, self.ensemble, self.selected.astype(int))
        write_csv(path, [header, *rows])


def _column_skewness(data: np.ndarray) -> np.ndarray:
    centered = data - data.mean(axis=0)
    m2 = (centered**2).mean(axis=0)
    m3 = (centered**3).mean(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        skew = np.where(m2 > 0, m3 / np.where(m2 > 0, m2, 1.0) ** 1.5, np.nan)
    return skew


def _rank_columns(scores: np.ndarray, names: list[str], top: int, what: str) -> list[int]:
    usable = [i for i in range(len(names)) if np.isfinite(scores[i])]
    if len(usable) < top:
        logger.warning("only %d columns usable for %s (wanted %d)", len(usable), what, top)
    usable.sort(key=lambda i: (-scores[i], names[i]))
    return usable[:top]


def engineer_features(m: FeatureMatrix) -> FeatureMatrix:
    """Append engineered columns: squares, log transforms, interactions.

    (a) squares of the 20 highest-variance columns, (b) log(1 + x - min x)
    of the 20 columns with largest |skewness| (constant columns excluded),
    (c) products of the highest-variance column from each pair of audio
    groups. Names: ``sq_<f>``, ``log_<f>``, ``x_<f>_<g>``.
    """
    var = m.data.var(axis=0)
    new_cols, new_names = [], []

    for i in _rank_columns(var, m.col_names, ENGINEER_TOP_VARIANCE, "square expansion"):
        new_cols.append(m.data[:, i] ** 2)
        new_names.append(f"sq_{m.col_names[i]}")

    skew = np.abs(_column_skewness(m.data))
    for i in _rank_columns(skew, m.col_names, ENGINEER_TOP_SKEW, "log transform"):
        col = m.data[:, i]
        new_cols.append(np.log1p(col - col.min()))
        new_names.append(f"log_{m.col_names[i]}")

    best_per_group: dict[str, int] = {}
    for g in INTERACTION_GROUPS:
        idx = [i for i, cg in enumerate(m.col_groups) if cg == g]
        if idx:
            best_per_group[g] = min(idx, key=lambda i: (-var[i], m.col_names[i]))
    missing = [g for g in INTERACTION_GROUPS if g not in best_per_group]
    if missing:
        logger.warning("no columns for groups %s; their interactions are skipped", missing)
    for ga, gb in combinations([g for g in INTERACTION_GROUPS if g in best_per_group], 2):
        ia, ib = best_per_group[ga], best_per_group[gb]
        new_cols.append(m.data[:, ia] * m.data[:, ib])
        new_names.append(f"x_{m.col_names[ia]}_{m.col_names[ib]}")

    data = np.column_stack([m.data] + new_cols) if new_cols else m.data.copy()
    return FeatureMatrix(
        m.row_ids,
        m.col_names + new_names,
        m.col_groups + ["engineered"] * len(new_names),
        data,
    )


def robust_scale(col: np.ndarray) -> np.ndarray:
    """(x - median) / IQR; falls back to std when the IQR is zero."""
    med = np.median(col)
    iqr = np.quantile(col, 0.75) - np.quantile(col, 0.25)
    scale = iqr if iqr > 0 else col.std()
    if scale <= 0:
        return np.zeros_like(col)
    return (col - med) / scale


def _yeo_johnson_grid(col: np.ndarray) -> np.ndarray:
    """Yeo-Johnson transform of ``col`` at every lambda of YJ_LAMBDA_GRID.

    Row i is the transform at YJ_LAMBDA_GRID[i]. Each element is computed
    with the same operations, in the same order, as a per-lambda loop, so
    every row is bitwise equal to transforming the column at that lambda.
    """
    lam = YJ_LAMBDA_GRID[:, None]
    out = np.empty((lam.shape[0], col.size))
    pos = col >= 0
    neg = ~pos
    log_pos = np.abs(YJ_LAMBDA_GRID) < 1e-12
    log_neg = np.abs(YJ_LAMBDA_GRID - 2.0) < 1e-12
    # the log1p rows get a dummy power of 1 here and are overwritten below
    with np.errstate(over="ignore", invalid="ignore"):
        lp = np.log1p(col[pos])
        power = np.where(log_pos[:, None], 1.0, lam)
        out[:, pos] = (np.exp(power * lp) - 1.0) / power
        out[np.ix_(log_pos, pos)] = lp
        if np.any(neg):
            ln = np.log1p(-col[neg])
            power = np.where(log_neg[:, None], 1.0, 2.0 - lam)
            out[:, neg] = -(np.exp(power * ln) - 1.0) / power
            out[np.ix_(log_neg, neg)] = -ln
    return out


def power_scale(col: np.ndarray) -> np.ndarray:
    """Z-scored Yeo-Johnson transform, lambda picked by grid-searched
    normal log-likelihood over [-2, 2] in steps of 0.01.

    The whole grid is transformed at once, so the call holds a
    (401, n) float64 block plus temporaries of the same shape: about
    0.4 MB at n = 120 and 16 MB at n = 5000. Ties in likelihood go to the
    lowest lambda.
    """
    if col.max() == col.min():
        return np.zeros_like(col)
    n = col.size
    penalty = np.sign(col) * np.log1p(np.abs(col))
    penalty_sum = penalty.sum()
    grid = _yeo_johnson_grid(col)
    with np.errstate(over="ignore", invalid="ignore"):
        var = grid.var(axis=1)
        usable = (var > 0) & np.isfinite(var)
        ll = -0.5 * n * np.log(np.where(usable, var, 1.0)) + (YJ_LAMBDA_GRID - 1.0) * penalty_sum
    # argmax takes the first maximum, as a strict > scan up the grid would
    ll = np.where(usable & ~np.isnan(ll), ll, -np.inf)
    best = int(np.argmax(ll))
    if ll[best] == -np.inf:
        return np.zeros_like(col)
    t = grid[best]
    std = t.std()
    return (t - t.mean()) / std if std > 0 else np.zeros_like(col)


def standard_scale(col: np.ndarray) -> np.ndarray:
    std = col.std()
    if std <= 0:
        return np.zeros_like(col)
    return (col - col.mean()) / std


def ensemble_normalize(m: FeatureMatrix) -> FeatureMatrix:
    """Blend robust, power, and standard scaling per column (0.5/0.3/0.2).

    Constant columns map to all-zeros.
    """
    w_r, w_p, w_z = NORMALIZE_WEIGHTS
    out = np.empty_like(m.data)
    for j in range(m.data.shape[1]):
        col = m.data[:, j]
        if col.max() == col.min():
            out[:, j] = 0.0
            continue
        out[:, j] = w_r * robust_scale(col) + w_p * power_scale(col) + w_z * standard_scale(col)
    return FeatureMatrix(m.row_ids, list(m.col_names), list(m.col_groups), out)


def _check_labels(y: np.ndarray, n_rows: int, min_per_class: int = 1) -> None:
    if y.size != n_rows:
        raise ValueError("labels not aligned to matrix rows")
    counts = np.bincount(y)
    if (counts > 0).sum() < 2:
        raise ValueError("need at least 2 classes")
    if np.any((counts > 0) & (counts < min_per_class)):
        raise ValueError(f"every class needs at least {min_per_class} samples")


def _f_ratio(data: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-column (SSB/(K-1)) / (SSW/(n-K)).

    A column with no within-class variance scores 0 if its classes share
    one mean; if it separates them perfectly it scores 10x the largest
    other score (10 when there is none above 0).
    """
    n, _ = data.shape
    classes, y_idx = np.unique(y, return_inverse=True)
    k = classes.size
    counts = np.bincount(y_idx).astype(np.float64)
    sums = np.zeros((k, data.shape[1]))
    np.add.at(sums, y_idx, data)
    group_means = sums / counts[:, None]
    grand_mean = data.mean(axis=0)
    ssb = (counts[:, None] * (group_means - grand_mean) ** 2).sum(axis=0)
    sst = ((data - grand_mean) ** 2).sum(axis=0)
    ssw = np.maximum(sst - ssb, 0.0)
    msb = ssb / (k - 1)
    msw = ssw / (n - k)
    # ssw comes from a cancellation-prone difference; anything below 1e-10
    # of the total is perfect separation, not variance
    zero_within = ssw <= 1e-10 * np.maximum(sst, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(zero_within, 0.0, msb / np.where(zero_within, 1.0, msw))
    infinite = zero_within & (msb > 0)
    if np.any(infinite):
        finite_max = f[~infinite].max() if np.any(~infinite) else 0.0
        f[infinite] = finite_max * 10.0 if finite_max > 0 else 10.0
    return f


def anova_f(data: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-way ANOVA F statistic per column of ``data``; ``y`` holds each row's class index."""
    _check_labels(y, data.shape[0], min_per_class=2)
    return _f_ratio(data, y)


def mutual_info(data: np.ndarray, y: np.ndarray, bins: int = MI_BINS) -> np.ndarray:
    """Plug-in mutual information (nats) between equal-frequency-binned
    column values and the class index ``y``."""
    _check_labels(y, data.shape[0])
    scores = np.empty(data.shape[1])
    for j in range(data.shape[1]):
        col = data[:, j]
        edges = np.unique(np.quantile(col, np.linspace(0, 1, bins + 1)[1:-1]))
        binned = np.searchsorted(edges, col, side="right")
        scores[j] = mi_score(binned, y)
    return scores


def variance_score(data: np.ndarray) -> np.ndarray:
    """Sample variance per column."""
    if data.shape[0] < 2:
        return np.zeros(data.shape[1])
    return data.var(axis=0, ddof=1)


def cluster_separation_score(data: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-column 1-D Calinski-Harabasz index of the class labeling ``y``."""
    _check_labels(y, data.shape[0])
    return _f_ratio(data, y)


def ensemble_select(
    m: FeatureMatrix,
    y: np.ndarray,
    top_k: int = DEFAULT_TOP_K,
    seed: int = 0,
    workers: int = 1,
) -> tuple[FeatureMatrix, SelectionReport]:
    """Keep the top_k features by weighted ensemble score; ``y`` holds each row's class index.

    Scoring happens in canonical (name-sorted) column order so that the
    result is invariant to the input column order; ensemble ties also break
    by column-name lexicographic order. ``workers`` sizes the forests' tree
    pools; the result does not depend on it.
    """
    d = m.shape[1]
    if top_k > d:
        raise ValueError(f"top_k {top_k} exceeds {d} available features")
    canon = sorted(range(d), key=lambda i: m.col_names[i])
    # the gather comes back column-major; a C-contiguous copy would round
    # the F sums, and so the scores, differently
    data = m.data[:, canon]
    # anova_f and cluster_separation_score are the same F ratio; the
    # stricter anova_f label check covers every score
    f_ratio = anova_f(data, y)
    raw_canon = {
        "anova_f": f_ratio,
        "mutual_info": mutual_info(data, y),
        "rf_importance": forest_gini_importance(data, y, mode="random_forest", seed=seed, workers=workers),
        "et_importance": forest_gini_importance(data, y, mode="extra_trees", seed=seed + 1, workers=workers),
        "variance": variance_score(data),
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
    report = SelectionReport(list(m.col_names), raw, normalized, ensemble, selected)
    return m.select(selected), report
