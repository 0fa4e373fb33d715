"""Track manifests, feature matrices, embeddings and cluster labels as CSV; JSON sidecars.

The manifest has header ``track_id,path,genre,bpm,key,length_s``. Feature
matrices have a ``track_id`` + feature-name header, a ``#group:`` tag line,
then one row per track. Embeddings are ``track_id`` plus one column per
dimension; labels are ``track_id,label``.

One streaming reader takes every input CSV. A file that cannot be opened
(a directory, say), an empty file, a ragged row, a repeated track id, and
a non-numeric or non-finite number (NaN is the missing-value sentinel)
raise ``ConfigError`` naming the file as given, the line and, for a
number, the column. ``read_text`` reads a whole config or
dimension-map file: one that is missing, a directory or not UTF-8 raises
``ConfigError`` naming it, and for bytes that are not UTF-8 the line and
byte, as the CSV reader does.

One writer, ``write_csv``, writes every output CSV: floats with ``repr``, and
a cell holding ``,``, ``"``, CR or LF quoted so ``csv.reader`` reads it back.
One writer, ``write_json``, writes every output JSON file, and
``write_text`` every SVG.

Every output file, these and ``audio.write_wav``'s, reaches disk through
``output``: it is written as ``<name>.part`` in its own directory, which is
created first, and renamed onto its name when the write ends cleanly, so a
killed or failed write leaves the previous complete file or none.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .types import FEATURE_GROUPS, FeatureVector

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid run configuration or input file (maps to exit code 2)."""


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


def _csv_rows(path: Path) -> Iterator:
    """Yield the header, then ``(line, cells)`` for each non-blank row as it is read.

    The caller checks the header (it has a ``track_id`` column) before it
    asks for rows. A file that is not UTF-8 is rejected with the line of
    its first bad byte, and one that cannot be opened (missing, a
    directory) as ``read_text`` rejects it.
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise ConfigError(f"{path}: empty file")
            yield header
            key = header.index("track_id")
            first_line: dict[str, int] = {}
            for cells in reader:
                if not cells:
                    continue
                line = reader.line_num
                if len(cells) != len(header):
                    raise ConfigError(f"{path}: ragged row at line {line} ({len(cells)} cells, expected {len(header)})")
                tid = cells[key].strip()
                first = first_line.setdefault(tid, line)
                if first != line:
                    raise ConfigError(f"{path}: line {line} repeats track {tid!r} from line {first}")
                yield line, cells
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except OSError as exc:
        raise _unreadable(path, exc) from None


def _not_utf8(path: Path) -> ConfigError:
    """Name the line and value of the first byte that is not UTF-8."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start]
        # physical lines as csv counts them: \n, \r and \r\n each end one
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        return ConfigError(f"{path}: line {line} is not UTF-8 text (byte 0x{raw[exc.start]:02x})")
    return ConfigError(f"{path}: not UTF-8 text")


def _unreadable(path: Path, exc: OSError) -> ConfigError:
    return ConfigError(f"{path}: cannot be read ({exc.strerror})")


def read_text(path: str | Path) -> str:
    """A whole user file as UTF-8 text; ConfigError naming the file if it cannot be read or is not UTF-8."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except OSError as exc:
        raise _unreadable(path, exc) from None


def _number(path: Path, line: int, column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ConfigError(f"{path}: line {line}, column {column!r}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: line {line}, column {column!r}: {cell!r} is not a finite number")
    return value


def _numbers(path: Path, line: int, columns: Sequence[str], cells: Sequence[str]) -> np.ndarray:
    """One row of finite numbers; the per-cell check runs only to name a bad cell."""
    try:
        row = np.array([float(cell) for cell in cells])
    except ValueError:
        row = None
    if row is None or not np.isfinite(row).all():
        for column, cell in zip(columns, cells):
            _number(path, line, column, cell)
    return row


def _matrix(path: Path, row_ids, names, groups, rows) -> FeatureMatrix:
    """Stack streamed rows; a schema defect is named with its file."""
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    try:
        return FeatureMatrix(row_ids, names, groups, np.vstack(rows))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_manifest(path: str | Path) -> list[TrackRecord]:
    """Read and validate a track manifest CSV."""
    path = Path(path)
    rows = _csv_rows(path)
    header = next(rows)
    missing = [c for c in MANIFEST_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{path}: manifest missing columns {missing}")
    index = [header.index(c) for c in MANIFEST_COLUMNS]
    records: list[TrackRecord] = []
    for line, cells in rows:
        tid, wav, genre, bpm, key, length_s = (cells[i].strip() for i in index)
        if not tid:
            raise ConfigError(f"{path}: line {line} has an empty track_id")
        if not genre:
            raise ConfigError(f"{path}: line {line}: track {tid!r} has an empty genre")
        bpm = _number(path, line, "bpm", bpm) if bpm else None
        length_s = _number(path, line, "length_s", length_s) if length_s else None
        records.append(TrackRecord(tid, wav, genre, bpm, key or None, length_s))
    if not records:
        raise ConfigError(f"{path}: manifest has no rows")
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


def _cell(value) -> str:
    """A float as ``repr``, anything else as ``str``; quoted when csv.reader needs it."""
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        # csv.writer(lineterminator="\n") would leave a lone \r unquoted
        return '"' + text.replace('"', '""') + '"'
    return text


@contextmanager
def output(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open ``<name>.part`` beside ``path`` for writing; rename it onto ``path`` when the block ends cleanly.

    The directory is created first. ``mode`` is ``"w"`` (UTF-8 text, newlines
    written as given) or ``"wb"``. On any exception the part file is
    removed, so ``path`` keeps its older bytes or stays absent. There is no
    ``fsync``: this guards against a killed process, not against power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(path.name + ".part")
    try:
        with part.open(mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": ""})) as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write rows of cells as CSV lines, each ending in a newline; ``csv.reader`` reads every cell back."""
    with output(path) as fh:
        for row in rows:
            cells = [_cell(value) for value in row]
            # a lone empty cell is quoted: a blank line reads back as no cells
            fh.write((",".join(cells) if cells != [""] else '""') + "\n")


def write_json(path: str | Path, payload: Mapping) -> None:
    """Write ``payload`` as JSON with sorted keys and a two-space indent, ending in a newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, newlines as given."""
    with output(path) as fh:
        fh.write(text)


def save_matrix(m: FeatureMatrix, path: str | Path) -> None:
    """Write matrix CSV: header, ``#group:`` tag line, then data rows."""
    head = [["track_id", *m.col_names], ["#group:", *m.col_groups]]
    write_csv(path, chain(head, ([rid, *values] for rid, values in zip(m.row_ids, m.data))))


def _matrix_rows(path: Path) -> tuple[list[str], list[str], Iterator]:
    """A matrix CSV's column names, group tags and its ``(line, cells)`` data rows, still unread."""
    rows = _csv_rows(path)
    header = next(rows)
    if header[0] != "track_id":
        raise ConfigError(f"{path}: first column must be track_id")
    _, groups = next(rows, (None, [None]))
    if groups[0] != "#group:":
        raise ConfigError(f"{path}: second line must start with '#group:'")
    return header[1:], groups[1:], rows


def load_matrix(path: str | Path) -> FeatureMatrix:
    """Read a matrix CSV written by save_matrix, validating every cell."""
    path = Path(path)
    names, groups, rows = _matrix_rows(path)
    row_ids, data = [], []
    for line, cells in rows:
        row_ids.append(cells[0])
        data.append(_numbers(path, line, names, cells[1:]))
    return _matrix(path, row_ids, names, groups, data)


def matrix_row_ids(path: str | Path) -> list[str]:
    """The track ids of a matrix CSV in file order; its numbers are not parsed."""
    _, _, rows = _matrix_rows(Path(path))
    return [cells[0] for _, cells in rows]


def import_embeddings(path: str | Path, records: Sequence[TrackRecord]) -> FeatureMatrix:
    """Load a precomputed embedding CSV keyed by track_id, in manifest order.

    Every manifest id must be present; rows for unknown ids are ignored
    (their count is logged). All columns are tagged ``embedding``.
    """
    path = Path(path)
    rows = _csv_rows(path)
    header = next(rows)
    if header[0] != "track_id":
        raise ConfigError(f"{path}: first column must be track_id")
    dim_names = header[1:]
    by_id = {cells[0]: _numbers(path, line, dim_names, cells[1:]) for line, cells in rows}

    wanted = [r.track_id for r in records]
    for tid in wanted:
        if tid not in by_id:
            raise ConfigError(f"{path}: embeddings missing for track {tid!r}")
    extra = len(by_id) - len(set(wanted) & set(by_id))
    if extra:
        logger.warning("%s: ignored %d embedding rows not in the manifest", path, extra)
    return _matrix(path, wanted, dim_names, ["embedding"] * len(dim_names), [by_id[tid] for tid in wanted])


def save_labels(path: str | Path, row_ids: Sequence[str], labels: np.ndarray) -> None:
    """Write a ``track_id,label`` CSV, one row per track."""
    write_csv(path, [["track_id", "label"], *zip(row_ids, labels)])


def load_labels(path: str | Path, row_ids: Sequence[str]) -> np.ndarray:
    """Integer cluster labels from a ``track_id,label`` CSV, in ``row_ids`` order.

    The file must label exactly the tracks of ``row_ids``, each once: a
    missing, an extra or a repeated track is a ConfigError naming the file
    and the first offending ids. Labels for other tracks came from a
    clustering of another matrix.
    """
    path = Path(path)
    rows = _csv_rows(path)
    if next(rows) != ["track_id", "label"]:
        raise ConfigError(f"{path} is not a labels CSV (expected 'track_id,label' header)")
    mapping = {}
    for line, (tid, label) in rows:
        try:
            mapping[tid] = int(label)
        except ValueError:
            raise ConfigError(f"{path}: line {line} label must be an integer, got {label!r}") from None
    missing = [rid for rid in row_ids if rid not in mapping]
    if missing:
        raise ConfigError(f"{path}: labels missing for tracks {missing[:5]}")
    wanted = set(row_ids)
    extra = [tid for tid in mapping if tid not in wanted]
    if extra:
        raise ConfigError(f"{path}: labels for tracks {extra[:5]} not among the {len(wanted)} analysed")
    return np.array([mapping[rid] for rid in row_ids], dtype=np.int64)
