"""Track manifests and feature matrices, with CSV persistence.

The manifest is a plain CSV with header
``track_id,path,genre,bpm,key,length_s``. Feature matrices are CSV with a
``track_id`` + feature-name header, a ``#group:`` tag line, then one row
per track; cell values are written with ``repr`` so a save/load round trip
is exact. NaN is the documented missing-value sentinel and is rejected at
load with its position.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .types import FEATURE_GROUPS, FeatureVector

logger = logging.getLogger(__name__)

MANIFEST_COLUMNS = ("track_id", "path", "genre", "bpm", "key", "length_s")


@dataclass
class TrackRecord:
    """One manifest row: identity, audio location, and catalog metadata."""

    track_id: str
    path: str
    genre: str
    bpm: float | None = None
    key: str | None = None
    length_s: float | None = None


@dataclass
class FeatureMatrix:
    """n_tracks x n_features table with named, group-tagged columns."""

    row_ids: list[str]
    col_names: list[str]
    col_groups: list[str]
    data: np.ndarray

    def __post_init__(self):
        self.row_ids = list(self.row_ids)
        self.col_names = list(self.col_names)
        self.col_groups = list(self.col_groups)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (len(self.row_ids), len(self.col_names)):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"{len(self.row_ids)} rows x {len(self.col_names)} cols"
            )
        if len(set(self.row_ids)) != len(self.row_ids):
            raise ValueError("duplicate row ids")
        if len(set(self.col_names)) != len(self.col_names):
            raise ValueError("duplicate column names")
        if len(self.col_groups) != len(self.col_names):
            raise ValueError("one group tag required per column")
        unknown = set(self.col_groups) - set(FEATURE_GROUPS)
        if unknown:
            raise ValueError(f"unknown group tags: {sorted(unknown)}")
        bad = np.argwhere(~np.isfinite(self.data))
        if bad.size:
            r, c = bad[0]
            raise ValueError(
                f"non-finite cell at track {self.row_ids[r]!r}, column {self.col_names[c]!r}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.col_names.index(name)]

    def select(self, mask: np.ndarray) -> "FeatureMatrix":
        """New matrix keeping the columns flagged in the boolean mask."""
        idx = np.flatnonzero(mask)
        return FeatureMatrix(
            self.row_ids,
            [self.col_names[i] for i in idx],
            [self.col_groups[i] for i in idx],
            self.data[:, idx],
        )


def _number(path: Path, lineno: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{path.name}: line {lineno}, column {column!r}: {cell!r} is not a number") from None


def load_manifest(path: str | Path) -> list[TrackRecord]:
    """Read and validate a track manifest CSV."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in MANIFEST_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path.name}: manifest missing columns {missing}")
        records: list[TrackRecord] = []
        seen: set[str] = set()
        for row in reader:
            tid = (row["track_id"] or "").strip()
            if not tid:
                raise ValueError(f"{path.name}: empty track_id in row {len(records) + 1}")
            if tid in seen:
                raise ValueError(f"{path.name}: duplicate track_id {tid!r}")
            seen.add(tid)
            genre = (row["genre"] or "").strip()
            if not genre:
                raise ValueError(f"{path.name}: track {tid!r} has empty genre")
            bpm = (row["bpm"] or "").strip()
            length_s = (row["length_s"] or "").strip()
            records.append(
                TrackRecord(
                    track_id=tid,
                    path=(row["path"] or "").strip(),
                    genre=genre,
                    bpm=_number(path, reader.line_num, "bpm", bpm) if bpm else None,
                    key=(row["key"] or "").strip() or None,
                    length_s=_number(path, reader.line_num, "length_s", length_s) if length_s else None,
                )
            )
    if not records:
        raise ValueError(f"{path.name}: manifest has no rows")
    return records


def assemble_matrix(
    records: Sequence[TrackRecord], vectors: Mapping[str, FeatureVector]
) -> FeatureMatrix:
    """Stack per-track vectors in manifest order; append catalog meta columns.

    Catalog bpm / length_s become ``meta`` columns only when present for
    every record (partial metadata is never imputed).
    """
    if not records:
        raise ValueError("cannot assemble a matrix from zero records")
    first = None
    rows = []
    for rec in records:
        vec = vectors.get(rec.track_id)
        if vec is None:
            raise ValueError(f"no feature vector for track {rec.track_id!r}")
        if first is None:
            first = vec
        elif not vec.same_schema(first):
            raise ValueError(f"feature schema mismatch at track {rec.track_id!r}")
        bad = np.flatnonzero(~np.isfinite(vec.values))
        if bad.size:
            raise ValueError(
                f"non-finite value for track {rec.track_id!r}, column {vec.names[bad[0]]!r}"
            )
        rows.append(vec.values)

    names = list(first.names)
    groups = list(first.groups)
    data = np.vstack(rows)
    if all(r.bpm is not None for r in records):
        data = np.column_stack([data, [r.bpm for r in records]])
        names.append("bpm")
        groups.append("meta")
    if all(r.length_s is not None for r in records):
        data = np.column_stack([data, [r.length_s for r in records]])
        names.append("length_s")
        groups.append("meta")
    return FeatureMatrix([r.track_id for r in records], names, groups, data)


def save_matrix(m: FeatureMatrix, path: str | Path) -> None:
    """Write matrix CSV: header, ``#group:`` tag line, then data rows."""
    for name in m.col_names + m.row_ids:
        if "," in name or "\n" in name:
            raise ValueError(f"name {name!r} cannot be stored in CSV")
    lines = ["track_id," + ",".join(m.col_names)]
    lines.append("#group:," + ",".join(m.col_groups))
    for rid, row in zip(m.row_ids, m.data):
        lines.append(rid + "," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix(path: str | Path) -> FeatureMatrix:
    """Read a matrix CSV written by save_matrix, validating every cell."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 3:
        raise ValueError(f"{path.name}: expected header, group line, and data rows")
    header = lines[0].split(",")
    if header[0] != "track_id":
        raise ValueError(f"{path.name}: first header column must be track_id")
    names = header[1:]
    group_line = lines[1].split(",")
    if group_line[0] != "#group:":
        raise ValueError(f"{path.name}: second line must start with '#group:'")
    groups = group_line[1:]
    if len(groups) != len(names):
        raise ValueError(f"{path.name}: group line has {len(groups)} tags for {len(names)} columns")

    row_ids, rows = [], []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names) + 1:
            raise ValueError(f"{path.name}: line {lineno} has {len(cells) - 1} cells, expected {len(names)}")
        row_ids.append(cells[0])
        try:
            values = np.array([float(c) for c in cells[1:]])
        except ValueError:
            for col, cell in enumerate(cells[1:]):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path.name}: non-numeric cell {cell!r} at row {cells[0]!r}, "
                        f"column {names[col]!r}"
                    ) from None
            raise
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(
                f"{path.name}: missing/non-finite value at row {cells[0]!r}, "
                f"column {names[bad[0]]!r}"
            )
        rows.append(values)
    return FeatureMatrix(row_ids, names, groups, np.vstack(rows))


def import_embeddings(path: str | Path, records: Sequence[TrackRecord]) -> FeatureMatrix:
    """Load a precomputed embedding CSV keyed by track_id, in manifest order.

    Every manifest id must be present; rows for unknown ids are ignored
    (their count is logged). A repeated id or a non-numeric cell is
    rejected with its line. All columns are tagged ``embedding``.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path.name}: empty embeddings file") from None
        if not header or header[0] != "track_id":
            raise ValueError(f"{path.name}: first column must be track_id")
        dim_names = header[1:]
        by_id: dict[str, np.ndarray] = {}
        first_line: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path.name}: ragged row at line {lineno} "
                    f"({len(row)} cells, expected {len(header)})"
                )
            tid = row[0]
            if tid in by_id:
                raise ValueError(
                    f"{path.name}: line {lineno} repeats track {tid!r} from line {first_line[tid]}"
                )
            first_line[tid] = lineno
            by_id[tid] = np.array([_number(path, lineno, n, c) for n, c in zip(dim_names, row[1:])])

    wanted = [r.track_id for r in records]
    for tid in wanted:
        if tid not in by_id:
            raise ValueError(f"{path.name}: embeddings missing for track {tid!r}")
    extra = len(by_id) - len(set(wanted) & set(by_id))
    if extra:
        logger.warning("%s: ignored %d embedding rows not in the manifest", path.name, extra)
    data = np.vstack([by_id[tid] for tid in wanted])
    return FeatureMatrix(wanted, dim_names, ["embedding"] * len(dim_names), data)
