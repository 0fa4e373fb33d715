"""K-means++ with restarts, divisive hierarchical clustering, and natural-k discovery.

Divisive clustering repeatedly bisects the cluster with the largest
heterogeneity score H(C) = var(C) * (1 + sil(C)) * log(|C| + 1), where
sil(C) is the mean silhouette of a tentative 2-means split of C. Natural-k
discovery sweeps k-means over a k range and picks the argmax of a weighted
consensus of silhouette, Calinski-Harabasz, and an elbow score on the
inertia curve.

``heterogeneity``, ``divisive_cluster`` and ``select_natural_k`` take
their input as the one ``metrics.Distances`` the stage computes, points
and all, and compute none: every heterogeneity reads a ``subset`` view of
it, and every k of the sweep reads it, in each process of its pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics
from .parallel import pool_map
from .table import write_csv, write_json
from .types import as_matrix, min_max

logger = logging.getLogger(__name__)

KMEANS_RESTARTS = 50
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6
KMEANS_BLOCK = 1 << 18  # entries of the (restarts, n, k) distance array kmeans holds at once
SPLIT_RESTARTS = 10
H_SPLIT_RESTARTS = 5
H_MIN_SIZE = 4

CONSENSUS_WEIGHTS = (0.5, 0.3, 0.2)  # silhouette, calinski-harabasz, elbow
DEFAULT_K_RANGE = (15, 40)


@dataclass
class SplitNode:
    """One node of the divisive split tree; h is None for leaves."""

    node_id: int
    indices: np.ndarray = field(repr=False)
    h: float | None = None
    children: tuple["SplitNode", "SplitNode"] | None = None

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def to_dict(self) -> dict:
        d = {"id": self.node_id, "size": self.size, "h": self.h}
        d["children"] = [c.to_dict() for c in self.children] if self.children else None
        return d


@dataclass
class ClusterModel:
    """Labels and bookkeeping for one clustering run.

    ``np.asarray(model)`` reads its labels, so a function that returns a
    model serves as a ``metrics.cophenetic_bootstrap`` clusterer.
    """

    labels: np.ndarray
    k: int
    inertia: float
    method: str
    seed: int = 0
    split_tree: SplitNode | None = None
    warning: str | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("labels must lie in [0, k)")
        if np.bincount(self.labels, minlength=self.k).min() == 0:
            raise ValueError("every cluster must be nonempty")
        if not 0.0 <= self.inertia < np.inf:
            raise ValueError("inertia must be finite and >= 0")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # numpy 1.x calls this without ``copy``, and its np.array rejects copy=None
        labels = np.asarray(self.labels, dtype=dtype)
        return labels.copy() if copy else labels

    def save(self, sidecar_path: str | Path) -> None:
        """Write the JSON sidecar; ``table.save_labels`` writes the labels."""
        sidecar = {
            "schema_version": metrics.SCHEMA_VERSION,
            "method": self.method,
            "k": self.k,
            "inertia": self.inertia,
            "seed": self.seed,
            "warning": self.warning,
            "split_tree": self.split_tree.to_dict() if self.split_tree else None,
        }
        write_json(sidecar_path, sidecar)


def _d2_draws(d2: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """One D^2 draw per row of ``d2``, with restart r drawing from ``rngs[r]``.

    Each draw is what ``rngs[r].choice(n, p=d2[r] / d2[r].sum())`` returns:
    the count of entries of the normalised cumsum at or below one
    ``random()``. A row that sums to 0 (every point on a chosen centroid)
    draws ``integers(n)`` instead.
    """
    block, n = d2.shape
    total = d2.sum(axis=1)
    if not np.all(np.isfinite(total)):
        raise ValueError("k-means++ squared distances overflow float64; rescale the data")
    positive = total > 0
    cdf = np.cumsum(d2[positive] / total[positive, None], axis=1)
    cdf /= cdf[:, -1:]
    draws = np.empty(block, dtype=np.int64)
    u = np.array([rngs[r].random() for r in np.flatnonzero(positive)])
    draws[positive] = (cdf <= u[:, None]).sum(axis=1)
    for r in np.flatnonzero(~positive):
        draws[r] = rngs[r].integers(n)
    return draws


def _plus_plus_seeds(x: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seeds of every restart in ``rngs``: a (restarts, k, d) stack."""
    n = x.shape[0]
    centroids = np.empty((len(rngs), k, x.shape[1]))
    d2 = np.full((len(rngs), n), np.inf)  # np.minimum(inf, v) is v, bit for bit
    for i in range(k):
        picks = [rng.integers(n) for rng in rngs] if i == 0 else _d2_draws(d2, rngs)
        centroids[:, i] = x[picks]
        if i < k - 1:  # the last seed's distances are never drawn from
            for r, c in enumerate(centroids[:, i]):
                np.minimum(d2[r], ((x - c) ** 2).sum(axis=1), out=d2[r])
    return centroids


def _assign(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid and squared distance per row of each restart: two (restarts, n) arrays.

    ``x_sq`` is ``(x**2).sum(axis=1)``. numpy runs the stacked product as
    one gemm per restart, the same call as ``2.0 * x @ centroids[r].T``
    alone. ``2.0 * x`` is a temporary: kept for the whole call, it would
    sit beside each restart's gathered rows and add n * d floats to the peak.
    """
    d2 = x_sq[None, :, None] - 2.0 * x @ centroids.transpose(0, 2, 1) + (centroids**2).sum(axis=2)[:, None, :]
    np.clip(d2, 0.0, None, out=d2)
    labels = np.argmin(d2, axis=2)
    nearest = d2.reshape(-1, d2.shape[2])[np.arange(labels.size), labels.ravel()]
    return labels, nearest.reshape(labels.shape)


def _counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Cluster sizes of each row of a (restarts, n) label stack: a (restarts, k) array."""
    key = labels + k * np.arange(labels.shape[0])[:, None]
    return np.bincount(key.ravel(), minlength=labels.shape[0] * k).reshape(-1, k)


def _lockstep_lloyd(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray):
    """Lloyd's algorithm from each start of a (restarts, k, d) stack, all in one loop.

    A restart leaves the loop at its own ``shift < KMEANS_TOL``. Returns the
    (restarts, n) labels, and each restart's inertia and count of refilled
    clusters.
    """
    k = centroids.shape[1]
    active = np.arange(centroids.shape[0])
    for _ in range(KMEANS_MAX_ITER):
        current = centroids[active]
        labels, d2 = _assign(x, x_sq, current)
        counts = _counts(labels, k)
        # a stable sort keeps each cluster's rows in index order, so every
        # slice is the same C-contiguous rows as x[labels[j] == c], and its
        # sum over the count is bitwise that mask's mean (np.add.reduceat
        # rounds differently)
        order = np.argsort(labels, axis=1, kind="stable")
        new = current.copy()
        for j, (rows, ends) in enumerate(zip(order, np.cumsum(counts, axis=1).tolist())):
            grouped = x[rows]  # one restart's rows at a time
            start = 0
            for c, end in enumerate(ends):
                if end > start:
                    new[j, c] = np.add.reduce(grouped[start:end], axis=0)
                start = end
        filled = counts > 0
        new[filled] /= counts[filled][:, None]
        # repair empty clusters with the point farthest from its centroid
        for j in np.flatnonzero(~filled.all(axis=1)):
            for c in range(k):
                if counts[j, c] == 0:
                    far = int(np.argmax(d2[j]))
                    new[j, c] = x[far]
                    counts[j, labels[j, far]] -= 1
                    counts[j, c] += 1
                    labels[j, far] = c
                    d2[j, far] = 0.0
        shift = np.sqrt(((new - current) ** 2).sum(axis=2)).max(axis=1)
        centroids[active] = new
        active = active[~(shift < KMEANS_TOL)]
        if active.size == 0:
            break
    labels, d2 = _assign(x, x_sq, centroids)
    counts = _counts(labels, k)
    refilled = [0] * centroids.shape[0]
    for j in np.flatnonzero((counts == 0).any(axis=1)):
        for c in range(k):  # final safety: never return an empty cluster
            if counts[j, c] == 0:
                # the donor must leave a nonempty cluster behind; with duplicate
                # rows every d2 may be 0, so argmax alone could pick one twice
                far = int(np.argmax(np.where(counts[j, labels[j]] >= 2, d2[j], -1.0)))
                counts[j, labels[j, far]] -= 1
                counts[j, c] = 1
                labels[j, far] = c
                d2[j, far] = 0.0
                centroids[j, c] = x[far]
                refilled[j] += 1
    # exact inertia: the fast expansion above carries cancellation roundoff
    inertia = [float(((x - means[rows]) ** 2).sum()) for means, rows in zip(centroids, labels)]
    return labels, inertia, refilled


def kmeans(data, k: int, restarts: int = KMEANS_RESTARTS, seed: int = 0) -> ClusterModel:
    """Best-of-restarts k-means with k-means++ (D^2) seeding.

    Deterministic for a fixed seed; restart r uses the r-th spawned child
    seed and ties in inertia resolve to the lowest restart index. A model
    whose empty clusters were refilled carries a warning; the caller logs it.

    The restarts run in lockstep, in blocks of ``KMEANS_BLOCK // (n * k)``
    (at least one): one D^2 draw pass per seed for the whole block, then
    per Lloyd iteration one stacked nearest-centroid product and one sort
    that groups every restart's rows. Each block holds one (block, n, k)
    float64 distance array of at most ``KMEANS_BLOCK`` entries (or n * k).
    Every restart computes the same floats as it would alone.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(restarts)]
    x_sq = (x**2).sum(axis=1)
    block = max(1, KMEANS_BLOCK // (n * k))
    best = None
    for start in range(0, restarts, block):
        centroids = _plus_plus_seeds(x, k, rngs[start : start + block])
        for result in zip(*_lockstep_lloyd(x, x_sq, centroids)):
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


def heterogeneity(distances: metrics.Distances, seed: int = 0) -> float:
    """H(C) = var(C) * (1 + sil(C)) * log(|C| + 1) of the cluster ``distances.points``.

    var(C) is the mean squared distance to the centroid and sil(C) the mean
    silhouette of a tentative 2-means split, which reads ``distances``.
    Clusters smaller than 4 points or with zero variance score 0 (nothing
    to split).
    """
    x = distances.points
    n = x.shape[0]
    if n < H_MIN_SIZE:
        return 0.0
    var = float(((x - x.mean(axis=0)) ** 2).sum(axis=1).mean())
    if var == 0.0:
        return 0.0
    split = kmeans(x, 2, restarts=H_SPLIT_RESTARTS, seed=seed)
    sil = metrics.silhouette(distances, split.labels)
    return var * (1.0 + sil) * float(np.log(n + 1))


def divisive_cluster(distances: metrics.Distances, k_target: int, seed: int = 0) -> ClusterModel:
    """Top-down bisection of ``distances.points``: always split the cluster with the largest H.

    Ties prefer the larger cluster, then the lower node id. Splitting stops
    at k_target clusters, or earlier when every H is 0; the model then
    carries a warning, which the caller logs. Each cluster's points and
    distances are one ``distances.subset`` view.
    """
    n = distances.points.shape[0]
    if not 2 <= k_target <= n:
        raise ValueError(f"k_target must lie in [2, {n}], got {k_target}")

    ss = np.random.SeedSequence(seed)

    def next_seed() -> int:
        return int(ss.spawn(1)[0].generate_state(1)[0])

    root = SplitNode(0, np.arange(n))
    h_scores = {0: heterogeneity(distances, seed=next_seed())}
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
        split = kmeans(distances.subset(node.indices).points, 2, restarts=SPLIT_RESTARTS, seed=next_seed())
        left = SplitNode(next_id, node.indices[split.labels == 0])
        right = SplitNode(next_id + 1, node.indices[split.labels == 1])
        next_id += 2
        node.h = best_h
        node.children = (left, right)
        for child in (left, right):
            leaves[child.node_id] = child
        if len(leaves) < k_target:  # the last split's children are never chosen from
            for child in (left, right):
                h_scores[child.node_id] = heterogeneity(distances.subset(child.indices), seed=next_seed())

    labels = np.empty(n, dtype=np.int64)
    ordered = [leaves[nid] for nid in sorted(leaves)]
    inertia = 0.0
    for c, leaf in enumerate(ordered):
        labels[leaf.indices] = c
        members = distances.subset(leaf.indices).points
        inertia += float(((members - members.mean(axis=0)) ** 2).sum())
    return ClusterModel(
        labels, len(ordered), inertia, method="divisive", seed=seed, split_tree=root, warning=warning
    )


@dataclass
class KSweepResult:
    """Validity indices, normalized curves, and consensus across a k range."""

    ks: np.ndarray
    silhouette: np.ndarray
    calinski_harabasz: np.ndarray
    inertia: np.ndarray
    elbow: np.ndarray
    sil_norm: np.ndarray
    ch_norm: np.ndarray
    elbow_norm: np.ndarray
    consensus: np.ndarray
    chosen_k: int

    def write_csv(self, path: str | Path) -> None:
        curves = [f.name for f in fields(self)][1:-1]  # the fields between ks and chosen_k
        write_csv(path, [["k", *curves], *zip(self.ks.astype(int), *(getattr(self, c) for c in curves))])


def _chord_distance(ks: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """Positive distance below the chord joining the inertia curve's endpoints."""
    if ks.size < 3:
        return np.zeros(ks.size)
    kx = (ks - ks[0]) / (ks[-1] - ks[0])
    lo, hi = inertia.min(), inertia.max()
    iy = (inertia - lo) / (hi - lo) if hi > lo else np.zeros_like(inertia)
    x0, y0, x1, y1 = kx[0], iy[0], kx[-1], iy[-1]
    signed = (x1 - x0) * (iy - y0) - (y1 - y0) * (kx - x0)
    return np.clip(-signed / np.hypot(x1 - x0, y1 - y0), 0.0, None)


def _sweep_point(shared, k: int) -> tuple[float, float, float, bool]:
    """One sweep task: (inertia, silhouette, Calinski-Harabasz, warned) of k-means at k."""
    restarts, seed, distances = shared
    x = distances.points
    model = kmeans(x, k, restarts=restarts, seed=seed)
    if k == x.shape[0]:
        sil = ch = 0.0  # singleton clusters
    else:
        sil, ch = metrics.silhouette(distances, model.labels), metrics.calinski_harabasz(x, model.labels)
    return model.inertia, sil, ch, model.warning is not None


def select_natural_k(
    distances: metrics.Distances,
    k_range: tuple[int, int] = DEFAULT_K_RANGE,
    seed: int = 0,
    restarts: int = KMEANS_RESTARTS,
    workers: int = 1,
) -> KSweepResult:
    """Sweep k-means of ``distances.points`` over [k_min, k_max] and pick k by index consensus.

    consensus = 0.5 * silhouette + 0.3 * Calinski-Harabasz + 0.2 * elbow,
    each curve min-max normalized over the range; ties pick the smaller k.

    The ks run over ``min(workers, len(ks))`` processes
    (``parallel.pool_map``), each k-means with all its restarts inside one
    task and seeded with ``seed`` alone; the curves are filled in k order,
    so the result does not depend on ``workers``. Every k's silhouette reads
    ``distances``, which reach each worker with their points. One warning
    names the ks whose k-means refilled an empty cluster.
    """
    n = distances.points.shape[0]
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if not (2 <= k_min <= k_max <= n):
        raise ValueError(f"k_range {k_range} must satisfy 2 <= k_min <= k_max <= {n}")

    ks = np.arange(k_min, k_max + 1)
    shared = (restarts, seed, distances)
    points = pool_map(_sweep_point, shared, [int(k) for k in ks], workers)
    *curves, warned = zip(*points)
    inertia, sil, ch = (np.array(curve, dtype=np.float64) for curve in curves)
    refilled = ", ".join(str(k) for k, w in zip(ks, warned) if w)
    if refilled:
        logger.warning(
            "k-means refilled empty clusters at k=%s; the data may have fewer than k distinct rows", refilled
        )
    finite = np.isfinite(ch)
    if not np.all(finite):
        cap = ch[finite].max() * 10.0 if np.any(finite) else 1.0
        ch = np.where(finite, ch, cap)

    elbow = _chord_distance(ks.astype(np.float64), inertia)
    sil_n, ch_n, elbow_n = min_max(sil), min_max(ch), min_max(elbow)
    w_s, w_c, w_e = CONSENSUS_WEIGHTS
    consensus = w_s * sil_n + w_c * ch_n + w_e * elbow_n
    chosen = int(ks[int(np.argmax(consensus))])  # argmax takes the smaller k on ties
    return KSweepResult(ks, sil, ch, inertia, elbow, sil_n, ch_n, elbow_n, consensus, chosen)
