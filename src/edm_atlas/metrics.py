"""Clustering evaluation: external agreement, internal structure, and
cluster-size distribution metrics, plus six-dimension cluster profiles.

External metrics compare predicted labels to a reference labeling (NMI,
ARI, purity, raw mutual information). Internal metrics need only the data
(silhouette, Davies-Bouldin, and a bootstrap co-assignment stability
coefficient). Distribution metrics are the entropy of cluster sizes and
its normalized form. All logarithms are natural.

Every Euclidean distance comes from ``Distances.of``: one exact numpy
kernel, equal to ``scipy.spatial.distance.pdist`` and ``cdist`` bit for
bit, so no analysis stage imports scipy. The stage computes one
``Distances`` of its clustering input, which carries those points, and
passes it to every reader: ``silhouette``, ``cophenetic_dendrogram``,
``cophenetic_bootstrap``, ``evaluate_all`` and the ``cluster`` functions
take it in place of the data and never compute one (``davies_bouldin``
computes one of its centroids). A bootstrap clusterer is called as
``clusterer(distances, seed)``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from math import comb
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .parallel import pool_map
from .table import ConfigError, FeatureMatrix, read_text, write_csv, write_json
from .types import as_matrix, row_blocks

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
BOOTSTRAP_RESAMPLES = 50
MIN_BOOTSTRAP_SAMPLES = 10  # fewest rows cophenetic_bootstrap re-clusters
PAIR_MIN_OBSERVATIONS = 5
SILHOUETTE_BLOCK = 1024  # about this many rows of distances silhouette holds at once
DISTANCE_TILE = 1 << 15  # about this many pairs per kernel call or gather (at least one row)

PROFILE_DIMENSIONS = ("energy", "danceability", "tempo", "harmonic", "rhythmic", "electronic")

# Ordered first-match-wins rules: dimension -> (name substrings, column groups).
DEFAULT_DIMENSION_RULES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "energy": (("rms", "loudness", "amplitude", "energy"), ()),
    "danceability": (("danceability", "dfa", "groove"), ()),
    "tempo": (("bpm", "tempo_"), ()),
    "harmonic": (("chroma", "tonnetz", "pitch", "harmonic"), ("harmonic",)),
    "rhythmic": (("onset", "beat", "percuss", "tg_"), ("rhythmic", "tempogram")),
    "electronic": (("spectral_", "mfcc", "timbre"), ("spectral", "timbral")),
}


def load_dimension_rules(path: str | Path) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Rules from a ``{dimension: [[name substrings], [column groups]]}`` JSON file.

    ConfigError if the file cannot be read, is not UTF-8, or is malformed.
    """
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict) or not all(
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(x, list) and all(isinstance(entry, str) for entry in x) for x in v)
        for v in raw.values()
    ):
        raise ConfigError(f"{path}: expected {{dimension: [[name substrings], [column groups]]}}")
    unknown = sorted(set(raw) - set(PROFILE_DIMENSIONS))
    if unknown:
        # profiles.csv has one column per known dimension; another would be drawn but never written
        raise ConfigError(f"{path}: unknown dimensions {', '.join(unknown)}; known: {', '.join(PROFILE_DIMENSIONS)}")
    logger.info("using dimension mapping override from %s", path)
    return {dim: (tuple(v[0]), tuple(v[1])) for dim, v in raw.items()}


def _labels(a) -> np.ndarray:
    return np.asarray(a).ravel()


def _label_index(labels, n: int | None = None) -> tuple[np.ndarray, int]:
    """Each label's index among the sorted distinct labels, and how many there are; given ``n`` points, one each."""
    classes, index = np.unique(_labels(labels), return_inverse=True)
    if n is not None and index.size != n:
        raise ValueError(f"{index.size} labels for {n} points; expected one label per point")
    return index, classes.size


def _contingency(pred, true) -> np.ndarray:
    """Cluster x class count table of two equal-length labelings."""
    (pi, k_pred), (ti, k_true) = _label_index(pred), _label_index(true)
    if pi.size != ti.size:
        raise ValueError("label vectors must have equal length")
    if pi.size == 0:
        raise ValueError("label vectors must be nonempty")
    table = np.zeros((k_pred, k_true), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _same_partition(table: np.ndarray) -> bool:
    return bool(np.all((table > 0).sum(axis=0) == 1) and np.all((table > 0).sum(axis=1) == 1))


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def mi_score(pred, true) -> float:
    """Unnormalized mutual information between two labelings, in nats."""
    table = _contingency(pred, true)
    n = table.sum()
    pj = table / n
    pa = pj.sum(axis=1, keepdims=True)
    pb = pj.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pj > 0, pj * np.log(pj / (pa * pb)), 0.0)
    return float(max(terms.sum(), 0.0))


def nmi(pred, true) -> float:
    """Mutual information normalized by sqrt(H(pred) * H(true)).

    Identical partitions score 1; if either labeling has zero entropy and
    the partitions differ, the score is 0.
    """
    table = _contingency(pred, true)
    if _same_partition(table):
        return 1.0
    h_pred = _entropy(table.sum(axis=1).astype(np.float64))
    h_true = _entropy(table.sum(axis=0).astype(np.float64))
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    return mi_score(pred, true) / float(np.sqrt(h_pred * h_true))


def ari(pred, true) -> float:
    """Adjusted Rand index via exact integer pair counting."""
    table = _contingency(pred, true)
    if table.sum() < 2:
        raise ValueError("ARI needs at least 2 samples")
    sum_ij = sum(comb(int(v), 2) for v in table.ravel() if v >= 2)
    sum_a = sum(comb(int(v), 2) for v in table.sum(axis=1))
    sum_b = sum(comb(int(v), 2) for v in table.sum(axis=0))
    total = comb(int(table.sum()), 2)
    expected = sum_a * sum_b / total
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        return 1.0 if _same_partition(table) else 0.0
    return float((sum_ij - expected) / denom)


def purity(pred, true) -> float:
    """Fraction of samples matching their cluster's majority class."""
    table = _contingency(pred, true)
    return float(table.max(axis=1).sum() / table.sum())


def _squared_sums(at: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """The (m, k) sums over columns c of ``(at[c, i] - bt[c, j]) ** 2``, for ``at`` (d, m) and ``bt`` (d, k).

    Each sum starts from 0.0 and adds one column's square at a time, in
    column order: the sequence scipy's C loop runs for one pair, so the
    bits match.
    """
    m, k = at.shape[1], bt.shape[1]
    sums = np.zeros((m, k))
    square = np.empty((m, k))
    for a, b in zip(at, bt):
        np.subtract(a[:, None], b, out=square)
        np.multiply(square, square, out=square)
        sums += square
    return sums


@dataclass(frozen=True, eq=False)
class Distances:
    """A set of points and their Euclidean distances, each pair computed once.

    Build with ``Distances.of(data)``: one condensed array in ``pdist``
    order, n(n-1)/2 float64 values for n rows, from which every block is
    gathered. ``subset(rows)`` is the same for the points ``rows`` selects
    (``rows`` None: every row; a point may repeat), sharing the array.
    Every block equals ``cdist`` of the points it covers, bit for bit.
    Two of them are equal only when they are the same object, and each
    hashes by identity, since its arrays compare element by element.
    """

    condensed: np.ndarray
    offsets: np.ndarray  # the pair i < j sits at condensed[offsets[i] + j]
    points: np.ndarray  # this view's points, one row each; of() keeps data's memory order
    rows: np.ndarray | None = None

    @classmethod
    def of(cls, data) -> "Distances":
        """The distances among the rows of ``data``: ``condensed`` is ``pdist(data)`` bit for bit.

        Consecutive rows go through the kernel about ``DISTANCE_TILE`` pairs
        at a time, each against the rows after the first of them.
        """
        x = as_matrix(data)
        xt = np.ascontiguousarray(x.T)  # each column one contiguous row, as _squared_sums reads them
        n = x.shape[0]
        condensed = np.empty(n * (n - 1) // 2)
        start = 0
        while start < n - 1:
            width = n - 1 - start
            stop = min(n - 1, start + max(1, DISTANCE_TILE // width))
            # rows start..stop against rows start+1..n; row i keeps its pairs with rows after i
            sums = _squared_sums(xt[:, start:stop], xt[:, start + 1 :])
            kept = sums[np.arange(width) >= np.arange(stop - start)[:, None]]
            first = _pair_index(start, start + 1, n)
            condensed[first : first + kept.size] = kept
            start = stop
        return cls(np.sqrt(condensed, out=condensed), _pair_index(np.arange(n), 0, n), x)

    def _rows(self) -> np.ndarray:
        return np.arange(self.offsets.size) if self.rows is None else self.rows

    def subset(self, rows) -> "Distances":
        """This view's points ``rows`` (an index array into them), gathered C-ordered, and their distances."""
        return replace(self, points=self.points[rows], rows=self._rows()[rows])

    def __call__(self, start: int, stop: int) -> np.ndarray:
        """The C-ordered (stop - start, m) distances from this view's points start..stop to all m of them."""
        cols = self._rows()
        block = np.empty((stop - start, cols.size))
        # about DISTANCE_TILE entries at a time, so the index arrays stay small beside the block
        step = max(1, DISTANCE_TILE // max(1, cols.size))
        for first in range(start, stop, step):
            rows = cols[first : min(stop, first + step), None]
            index = np.maximum(rows, cols)
            index += self.offsets[np.minimum(rows, cols)]
            piece = block[first - start : first - start + rows.shape[0]]
            np.take(self.condensed, index, out=piece)
            piece[rows == cols] = 0.0  # a point to itself, which has no slot in the array
        return block

    def pairs(self) -> np.ndarray:
        """The condensed distances among this view's points, in ``pdist`` order."""
        if self.rows is None:
            return self.condensed
        m = self.rows.size
        return np.concatenate([np.empty(0), *(self(i, i + 1)[0, i + 1 :] for i in range(m - 1))])


def silhouette(distances: Distances, labels) -> float:
    """Mean silhouette coefficient of ``distances.points``; singleton clusters contribute 0.

    The distances are read in blocks of about ``SILHOUETTE_BLOCK`` rows
    (fewer than 1.5 times as many; ``types.row_blocks``), so the call holds
    one (rows, n) float64 block beside them rather than an n x n matrix.
    """
    n = distances.points.shape[0]
    y_idx, k = _label_index(labels, n)
    if k < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    counts = np.bincount(y_idx)
    # per-sample summed distance to each cluster. A gather of two or more
    # rows is Fortran-ordered and sums column by column at any row count;
    # one row would sum pairwise, and no block has one row
    sums = np.zeros((n, k))
    for start, end in row_blocks(n, SILHOUETTE_BLOCK):
        dist = distances(start, end)
        for c in range(k):
            sums[start:end, c] = dist[:, y_idx == c].sum(axis=1)
    rows = np.arange(n)
    own = counts[y_idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, y_idx] / (own - 1)
    # b: mean distance to the nearest other cluster
    means = sums / counts
    means[rows, y_idx] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    # singletons score 0 by convention, as do rows with a = b = 0
    scored = (own > 1) & (top > 0)
    scores = np.zeros(n)
    scores[scored] = (b[scored] - a[scored]) / top[scored]
    return float(scores.mean())


def davies_bouldin(data, labels) -> float:
    """Mean over clusters of the worst (s_i + s_j) / d_ij ratio.

    Pairs with coincident centroids are skipped; if every centroid
    coincides the index is undefined and an error is raised.
    """
    x = as_matrix(data)
    y_idx, k = _label_index(labels, x.shape[0])
    if not 2 <= k < x.shape[0]:
        raise ValueError("davies_bouldin needs 2 <= k < n")
    centroids = np.vstack([x[y_idx == c].mean(axis=0) for c in range(k)])
    scatter = np.array(
        [np.linalg.norm(x[y_idx == c] - centroids[c], axis=1).mean() for c in range(k)]
    )
    sep = Distances.of(centroids)(0, k)
    valid = sep != 0.0  # the diagonal is exactly 0, so i == j is skipped too
    if not valid.any():
        raise ValueError("all cluster centroids coincide; Davies-Bouldin undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = (scatter[:, None] + scatter[None, :]) / sep
    ratios = np.where(valid, pair, 0.0).max(axis=1)
    return float(ratios.mean())


def calinski_harabasz(data, labels) -> float:
    """Between/within variance ratio scaled by (n - k) / (k - 1)."""
    x = as_matrix(data)
    n = x.shape[0]
    y_idx, k = _label_index(labels, n)
    if not 2 <= k < n:
        raise ValueError("calinski_harabasz needs 2 <= k < n")
    grand = x.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in range(k):
        pts = x[y_idx == c]
        centroid = pts.mean(axis=0)
        between += pts.shape[0] * float(((centroid - grand) ** 2).sum())
        within += float(((pts - centroid) ** 2).sum())
    if within == 0.0:
        return float("inf") if between > 0 else 0.0
    return float((between / (k - 1)) / (within / (n - k)))


def _pair_index(i, j, n: int):
    """Position of the pair i < j in condensed ``triu_indices(n, 1)`` (pdist) order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _add_votes(votes: np.ndarray, seen: np.ndarray, idx: np.ndarray, labels: np.ndarray, n: int) -> None:
    """Count one resample's pairs into the condensed ``votes`` and ``seen``.

    ``idx`` holds the sorted distinct rows drawn and ``labels`` their
    clusters. One drawn row at a time, so the pair indices take O(n)
    memory, not O(idx.size ** 2).
    """
    for a in range(idx.size - 1):
        pair = _pair_index(idx[a], idx[a + 1 :], n)  # distinct: idx is sorted and unique
        seen[pair] += 1
        votes[pair] += labels[a] == labels[a + 1 :]


def _resample(shared, task) -> tuple[np.ndarray, np.ndarray]:
    """One bootstrap task: the sorted distinct rows drawn and their labels."""
    clusterer, distances = shared
    child, seed = task
    n = distances.points.shape[0]
    idx = np.unique(np.random.default_rng(child).integers(0, n, n))
    return idx, np.asarray(clusterer(distances.subset(idx), seed), dtype=np.int64)


def cophenetic_bootstrap(
    distances: Distances,
    clusterer: Callable[[Distances, int], np.ndarray],
    B: int = BOOTSTRAP_RESAMPLES,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Stability of co-assignment under bootstrap re-clustering.

    A is the full-data same-cluster matrix; each resample re-clusters a
    bootstrap draw and contributes co-assignment votes for the pairs it
    contains. The result is the Pearson correlation between A and the mean
    bootstrap co-assignment over pairs observed at least min(5, B) times.
    ``clusterer(distances, seed) -> labels`` (or a ``cluster.ClusterModel``,
    which ``np.asarray`` reads as its labels) must be deterministic in its
    seed. The full-data call gets ``distances`` and each resample the subset
    its rows select, so no resample computes them again.

    The B resamples run over ``min(workers, B)`` processes
    (``parallel.pool_map``); then ``clusterer`` must pickle. Resample b
    carries its own seeds (the b-th spawned child of ``seed`` for the draw,
    ``seed + b + 1`` for the clusterer), and its votes are integer counts
    added in resample order, so the result does not depend on ``workers``.
    """
    n = distances.points.shape[0]
    if n < MIN_BOOTSTRAP_SAMPLES:
        raise ValueError(f"bootstrap stability needs at least {MIN_BOOTSTRAP_SAMPLES} samples")
    if B < 1:
        raise ValueError(f"B={B} resamples: the bootstrap needs at least 1")
    if B > np.iinfo(np.uint16).max:
        raise ValueError(f"B={B} resamples overflow the uint16 vote counts")
    base = np.asarray(clusterer(distances, seed), dtype=np.int64)

    tasks = [(child, seed + b + 1) for b, child in enumerate(np.random.SeedSequence(seed).spawn(B))]
    # votes and sightings per pair i < j, condensed in triu_indices(n, 1) order
    votes = np.zeros(n * (n - 1) // 2, dtype=np.uint16)
    seen = np.zeros_like(votes)
    for idx, labels in pool_map(_resample, (clusterer, distances), tasks, workers):
        _add_votes(votes, seen, idx, labels, n)

    # the full-data co-assignment, condensed row by row
    same = np.empty(votes.size, dtype=bool)
    for i in range(n - 1):
        start = _pair_index(i, i + 1, n)
        same[start : start + n - i - 1] = base[i] == base[i + 1 :]
    min_seen = min(PAIR_MIN_OBSERVATIONS, B)
    mask = seen >= min_seen
    if mask.sum() < 2:
        raise ValueError("too few pairs observed in bootstrap resamples")
    a_vals = same[mask].astype(np.float64)
    ahat = votes[mask] / seen[mask]  # integer counts, so exact as in float64 sums
    if a_vals.std() == 0.0:
        raise ValueError("co-assignment matrix is constant; correlation undefined")
    if ahat.std() == 0.0:
        return 0.0
    return float(np.corrcoef(a_vals, ahat)[0, 1])


def cophenetic_dendrogram(distances: Distances, split_tree) -> float:
    """Classical cophenetic correlation for a divisive split tree of ``distances.points``.

    The cophenetic distance of a pair is the heterogeneity score of the
    node whose split separated it (0 for pairs sharing a final cluster);
    the result is its Pearson correlation with Euclidean distance, read
    from ``distances``.
    """
    n = distances.points.shape[0]
    heights = np.zeros(n * (n - 1) // 2)  # condensed, as pdist

    def fill(node):
        if node.children is None:
            return
        left, right = node.children
        # each pair is split exactly once; write it one row of the smaller side at a time
        small, large = sorted((left.indices, right.indices), key=len)
        for i in small:
            heights[_pair_index(np.minimum(i, large), np.maximum(i, large), n)] = node.h
        fill(left)
        fill(right)

    fill(split_tree)
    euclid = distances.pairs()
    if heights.std() == 0.0 or euclid.std() == 0.0:
        raise ValueError("degenerate distances; cophenetic correlation undefined")
    return float(np.corrcoef(euclid, heights)[0, 1])


def balance_metrics(labels) -> tuple[float, float]:
    """(entropy of cluster sizes in nats, entropy / ln k); k = 1 maps to 1."""
    index, k = _label_index(labels)
    counts = np.bincount(index).astype(np.float64)
    balance = _entropy(counts)
    normalized = 1.0 if k == 1 else balance / float(np.log(k))
    return balance, normalized


@dataclass
class EvaluationReport:
    """All metric values for one clustering, JSON-serializable."""

    external: dict[str, float]
    internal: dict[str, float]
    distribution: dict[str, float]
    context: dict = field(default_factory=dict)

    def save(self, path: str | Path) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "context": self.context,
            "external": self.external,
            "internal": self.internal,
            "distribution": self.distribution,
        }
        write_json(path, payload)


def evaluate_all(
    distances: Distances,
    labels,
    true_labels,
    clusterer: Callable[[Distances, int], np.ndarray],
    B: int = BOOTSTRAP_RESAMPLES,
    seed: int = 0,
    split_tree=None,
    context: dict | None = None,
    workers: int = 1,
) -> EvaluationReport:
    """Populate every external, internal, and distribution metric.

    A single-cluster labeling has no internal geometry to score; by
    convention it reports silhouette 0, Davies-Bouldin 0, cophenetic 1 (a
    constant partition is trivially stable) and, given a ``split_tree``,
    cophenetic_dendrogram 1 (a tree with one leaf splits no pair). Other
    labelings read ``distances``: ``silhouette``, ``cophenetic_dendrogram``
    and the bootstrap, which passes them on to ``clusterer``, all get that
    one object, and ``davies_bouldin`` its points. ``workers`` sizes the
    bootstrap's process pool.
    """
    balance, norm_balance = balance_metrics(labels)
    if _label_index(labels, distances.points.shape[0])[1] < 2:
        internal = {"silhouette": 0.0, "davies_bouldin": 0.0, "cophenetic": 1.0}
        if split_tree is not None:
            internal["cophenetic_dendrogram"] = 1.0
    else:
        internal = {
            "silhouette": silhouette(distances, labels),
            "davies_bouldin": davies_bouldin(distances.points, labels),
            "cophenetic": cophenetic_bootstrap(distances, clusterer, B=B, seed=seed, workers=workers),
        }
        if split_tree is not None:
            internal["cophenetic_dendrogram"] = cophenetic_dendrogram(distances, split_tree)
    return EvaluationReport(
        external={
            "nmi": nmi(labels, true_labels),
            "ari": ari(labels, true_labels),
            "purity": purity(labels, true_labels),
            "mi_score": mi_score(labels, true_labels),
        },
        internal=internal,
        distribution={"balance": balance, "normalized_balance": norm_balance},
        context=context or {},
    )


@dataclass
class ClusterProfile:
    """Percentile ranks (0-100) over the six interpretable dimensions."""

    cluster_id: int
    size: int
    purity: float
    majority_genre: str
    dimensions: dict[str, float | None]


def map_columns_to_dimensions(
    col_names: Sequence[str],
    col_groups: Sequence[str],
    rules: Mapping[str, tuple[tuple[str, ...], tuple[str, ...]]] | None = None,
) -> dict[str, list[int]]:
    """Assign each column to the first dimension whose rule matches it."""
    rules = rules or DEFAULT_DIMENSION_RULES
    mapping: dict[str, list[int]] = {dim: [] for dim in rules}
    for i, (name, group) in enumerate(zip(col_names, col_groups)):
        lowered = name.lower()
        for dim, (subs, groups) in rules.items():
            if any(s in lowered for s in subs) or group in groups:
                mapping[dim].append(i)
                break
    return mapping


def _midrank_percentiles(values: np.ndarray) -> np.ndarray:
    """0-based mid-ranks (ties share their mean rank) scaled to 0-100; a lone value ranks 50.

    ``values`` must be finite (here, cluster means of z-scores). The ranks
    equal ``scipy.stats.rankdata(values) - 1`` bit for bit: whole and half
    ranks are exact in float64.
    """
    k = values.size
    if k == 1:
        return np.array([50.0])
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # each tie group spans sorted positions first..last
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], k] - 1
    ranks = np.empty(k)
    ranks[order] = np.repeat((starts + ends) / 2.0, ends - starts + 1)
    return 100.0 * ranks / (k - 1)


def cluster_profiles(
    m: FeatureMatrix,
    labels,
    genres: Sequence[str],
    rules: Mapping[str, tuple[tuple[str, ...], tuple[str, ...]]] | None = None,
) -> list[ClusterProfile]:
    """Six-dimension acoustic profile per cluster as cross-cluster percentiles.

    Columns are z-scored, averaged within each dimension per cluster, and
    the cluster means are converted to percentile ranks over clusters
    (mid-rank ties; a lone cluster ranks 50). Dimensions with no matching
    columns are reported as absent, and a warning names each of them: every
    one of PROFILE_DIMENSIONS that gets no column, whether or not the
    rules name it.
    """
    y = _labels(labels)
    if y.size != m.shape[0] or len(genres) != m.shape[0]:
        raise ValueError("labels and genres must align with matrix rows")
    mapping = map_columns_to_dimensions(m.col_names, m.col_groups, rules)
    for dim in dict.fromkeys((*PROFILE_DIMENSIONS, *mapping)):
        if not mapping.get(dim):
            logger.warning("no columns matched profile dimension %r; reported absent", dim)

    std = m.data.std(axis=0)
    z = np.where(std > 0, (m.data - m.data.mean(axis=0)) / np.where(std > 0, std, 1.0), 0.0)

    classes = np.unique(y)
    dim_means = {}
    for dim, cols in mapping.items():
        if not cols:
            continue
        per_cluster = np.array([z[np.ix_(y == c, cols)].mean() for c in classes])
        dim_means[dim] = per_cluster

    percentiles = {dim: _midrank_percentiles(v) for dim, v in dim_means.items()}

    genres_arr = np.asarray(genres, dtype=object)
    profiles = []
    for ci, c in enumerate(classes):
        members = genres_arr[y == c]
        uniq, counts = np.unique(members, return_counts=True)
        top = counts.max()
        majority = sorted(uniq[counts == top])[0]
        dims: dict[str, float | None] = {}
        for dim in mapping:
            dims[dim] = float(percentiles[dim][ci]) if dim in percentiles else None
        profiles.append(
            ClusterProfile(
                cluster_id=int(c),
                size=int(members.size),
                purity=float(top / members.size),
                majority_genre=str(majority),
                dimensions=dims,
            )
        )
    return profiles


def profiles_to_csv(profiles: Sequence[ClusterProfile], path: str | Path) -> None:
    header = ["cluster", "size", "purity", "majority_genre", *PROFILE_DIMENSIONS]
    rows = [header, [f"#schema_version:{SCHEMA_VERSION}"]]
    for p in profiles:
        dims = [p.dimensions.get(dim) for dim in PROFILE_DIMENSIONS]
        rows.append([p.cluster_id, p.size, p.purity, p.majority_genre, *("" if v is None else v for v in dims)])
    write_csv(path, rows)
