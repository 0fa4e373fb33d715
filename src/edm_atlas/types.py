"""Shared lightweight containers for extracted features."""

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
