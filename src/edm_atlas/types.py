"""Shared lightweight containers for extracted features, the one 2-D data check, and the one row partition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

FEATURE_GROUPS = (
    "spectral",
    "timbral",
    "harmonic",
    "rhythmic",
    "tempogram",
    "meta",
    "engineered",
    "embedding",
)


@dataclass
class FeatureVector:
    """Fixed-length named feature values with one group tag per entry."""

    values: np.ndarray
    names: list[str]
    groups: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.names = list(self.names)
        self.groups = list(self.groups)
        if not (self.values.size == len(self.names) == len(self.groups)):
            raise ValueError("values, names, and groups must have equal length")
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if self.names.count(n) > 1})
            raise ValueError(f"duplicate feature names: {dupes}")
        if not np.all(np.isfinite(self.values)):
            bad = [self.names[i] for i in np.flatnonzero(~np.isfinite(self.values))]
            raise ValueError(f"non-finite feature values: {bad}")
        unknown = set(self.groups) - set(FEATURE_GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def concat(cls, parts: Iterable["FeatureVector"]) -> "FeatureVector":
        parts = list(parts)
        return cls(
            np.concatenate([p.values for p in parts]),
            [n for p in parts for n in p.names],
            [g for p in parts for g in p.groups],
        )

    def same_schema(self, other: "FeatureVector") -> bool:
        return self.names == other.names and self.groups == other.groups


def as_matrix(data) -> np.ndarray:
    """``data`` as a float64 array; ValueError unless it is 2-D (rows are points)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D data matrix")
    return arr


def stats_pair(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """(mean, population std) of a 1-D series."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def min_max(scores: np.ndarray) -> np.ndarray:
    """Scores rescaled to [0, 1]; all zeros when they are constant."""
    lo, hi = scores.min(), scores.max()
    if hi <= lo:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


def row_blocks(n: int, size: int) -> list[tuple[int, int]]:
    """Split ``n`` rows into near-equal ``(start, stop)`` blocks of about ``size`` rows.

    Blocks cover ``range(n)`` in order and differ in length by at most one
    row. Each has fewer than ``1.5 * size`` rows (at most 3 at ``size`` 1
    or 2) and at least ``size // 2`` unless ``n`` is smaller, and with at
    most ``n // 2`` blocks none has one row when ``n >= 2``. The STFT pass
    and ``metrics.silhouette`` compute one block at a time, and each must
    equal what the whole-array code computed, bit for bit. That holds only
    for operations whose per-row result does not depend on how many rows
    are computed together:

    * element-wise ufuncs, per-row FFTs and cumulative sums along a row are
      safe at any block height;
    * a reduction along a row depends on the memory layout: numpy sums a
      C-ordered row pairwise but an F-ordered one (what ``x[:, mask]``
      returns) sequentially, and a 1-row block is both, so it takes the
      pairwise path. Balanced blocks never leave such a 1-row tail, which
      fixed-size blocks would (513 frames at 256 rows);
    * a matrix product depends on the row count through the BLAS kernel:
      OpenBLAS takes a separate small-matrix kernel, with its own rounding,
      for small products (with the MFCC filter bank, blocks of 24 rows or
      fewer on scipy-openblas 0.3.31). At ``size`` 96 (the STFT's
      ``FRAME_BLOCK``), when ``n`` needs more than one block, every block
      has 72 to 120 rows, far above that; the tests check every height
      from 48 to 143.
    """
    if n <= 0:
        return []
    n_blocks = max(1, min((n + size // 2) // size, n // 2))
    edges = [n * i // n_blocks for i in range(n_blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))
