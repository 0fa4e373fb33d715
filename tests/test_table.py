import codecs
import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edm_atlas.table import (
    ConfigError,
    FeatureMatrix,
    TrackRecord,
    assemble_matrix,
    import_embeddings,
    load_labels,
    load_manifest,
    load_matrix,
    save_labels,
    save_matrix,
    write_csv,
    write_json,
)
from edm_atlas.types import FeatureVector

MANIFEST_HEADER = "track_id,path,genre,bpm,key,length_s"


def write_manifest(tmp_path, rows, header=MANIFEST_HEADER):
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def prepend_bom(path):
    """Start ``path`` with the UTF-8 byte-order mark, as spreadsheet exports write it."""
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return path


def make_vector(values, prefix="f"):
    n = len(values)
    return FeatureVector(np.asarray(values, dtype=float), [f"{prefix}{i}" for i in range(n)], ["spectral"] * n)


class TestLoadManifest:
    def test_two_rows(self, tmp_path):
        path = write_manifest(tmp_path, ["a,a.wav,techno,128,Am,120", "b,b.wav,house,,,"])
        records = load_manifest(path)
        assert len(records) == 2
        assert records[0].bpm == 128.0
        assert records[1].bpm is None and records[1].key is None

    def test_duplicate_id_named(self, tmp_path):
        path = write_manifest(tmp_path, ["a,a.wav,techno,,,", "a,b.wav,house,,,"])
        with pytest.raises(ValueError, match="'a'"):
            load_manifest(path)

    def test_missing_genre_column(self, tmp_path):
        path = write_manifest(tmp_path, ["a,a.wav,128"], header="track_id,path,bpm")
        with pytest.raises(ValueError, match="genre"):
            load_manifest(path)

    def test_empty_manifest(self, tmp_path):
        path = write_manifest(tmp_path, [])
        with pytest.raises(ValueError, match="no rows"):
            load_manifest(path)

    def test_empty_genre_value(self, tmp_path):
        path = write_manifest(tmp_path, ["a,a.wav,,,,"])
        with pytest.raises(ValueError, match="genre"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "row, column, cell",
        [("b,b.wav,house,abc,,", "bpm", "abc"), ("b,b.wav,house,128,,2m", "length_s", "2m")],
        ids=["bpm", "length_s"],
    )
    def test_non_numeric_metadata_named(self, tmp_path, row, column, cell):
        path = write_manifest(tmp_path, ["a,a.wav,techno,128,Am,120", row])
        with pytest.raises(ValueError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: line 3, column '{column}': '{cell}' is not a number"

    def test_byte_order_mark(self, tmp_path):
        path = write_manifest(tmp_path, ["a,a.wav,techno,128,Am,120", "b,b.wav,house,,,"])
        plain = load_manifest(path)
        assert load_manifest(prepend_bom(path)) == plain


class TestAssembleMatrix:
    def records(self, n=3, with_meta=True):
        return [
            TrackRecord(
                f"t{i}",
                f"t{i}.wav",
                "techno",
                bpm=120.0 + i if with_meta else None,
                length_s=120.0 if with_meta else None,
            )
            for i in range(n)
        ]

    def test_column_arithmetic_with_meta(self):
        records = self.records()
        vectors = {r.track_id: make_vector(np.arange(5.0)) for r in records}
        m = assemble_matrix(records, vectors)
        assert m.shape == (3, 7)  # 5 features + bpm + length_s
        assert m.col_names[-2:] == ["bpm", "length_s"]
        assert m.col_groups[-2:] == ["meta", "meta"]

    def test_partial_meta_produces_no_columns(self):
        records = self.records()
        records[1].bpm = None
        vectors = {r.track_id: make_vector(np.arange(4.0)) for r in records}
        m = assemble_matrix(records, vectors)
        assert "bpm" not in m.col_names
        assert "length_s" in m.col_names

    def test_nan_vector_names_track_and_column(self):
        records = self.records()
        vectors = {r.track_id: make_vector(np.arange(4.0)) for r in records}
        vectors["t1"].values[2] = np.nan  # bypasses construction validation
        with pytest.raises(ValueError, match="t1.*f2"):
            assemble_matrix(records, vectors)

    def test_missing_vector(self):
        records = self.records(2)
        with pytest.raises(ValueError, match="t1"):
            assemble_matrix(records, {"t0": make_vector([1.0, 2.0])})

    def test_schema_mismatch(self):
        records = self.records(2)
        vectors = {"t0": make_vector([1.0, 2.0]), "t1": make_vector([1.0, 2.0], prefix="g")}
        with pytest.raises(ValueError, match="schema"):
            assemble_matrix(records, vectors)

    def test_empty_records(self):
        with pytest.raises(ValueError):
            assemble_matrix([], {})


class TestMatrixRoundTrip:
    def matrix(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1e3, (4, 3)) * np.array([1e-7, 1.0, 1e6])
        return FeatureMatrix(
            ["a", "b", "c", "d"], ["x", "y", "z"], ["spectral", "meta", "tempogram"], data
        )

    def test_exact_round_trip(self, tmp_path):
        m = self.matrix()
        save_matrix(m, tmp_path / "m.csv")
        back = load_matrix(tmp_path / "m.csv")
        assert back.col_names == m.col_names
        assert back.col_groups == m.col_groups
        assert back.row_ids == m.row_ids
        assert np.max(np.abs(back.data - m.data)) < 1e-9
        assert np.array_equal(back.data, m.data)  # repr round-trips exactly

    def test_byte_order_mark(self, tmp_path):
        m = self.matrix()
        save_matrix(m, tmp_path / "m.csv")
        back = load_matrix(prepend_bom(tmp_path / "m.csv"))
        assert (back.row_ids, back.col_names, back.col_groups) == (m.row_ids, m.col_names, m.col_groups)
        assert np.array_equal(back.data, m.data)

    def test_non_numeric_cell_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("track_id,x,y\n#group:,spectral,meta\na,1.0,oops\n")
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: line 3, column 'y': 'oops' is not a number"

    def test_unknown_group_tag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("track_id,x\n#group:,mystery\na,1.0\n")
        with pytest.raises(ValueError, match="mystery"):
            load_matrix(path)

    def test_nan_sentinel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("track_id,x,y\n#group:,spectral,meta\na,1.0,nan\n")
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: line 3, column 'y': 'nan' is not a finite number"

    def test_missing_group_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("track_id,x\na,1.0\nb,2.0\n")
        with pytest.raises(ValueError, match="#group:"):
            load_matrix(path)


class TestImportEmbeddings:
    def records(self):
        return [TrackRecord(f"t{i}", f"t{i}.wav", "techno") for i in range(3)]

    def write_embeddings(self, tmp_path, rows, dims=4):
        header = "track_id," + ",".join(f"e{i}" for i in range(dims))
        path = tmp_path / "emb.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_import_in_manifest_order(self, tmp_path):
        rows = [f"t{i}," + ",".join(str(float(i)) for _ in range(4)) for i in (2, 0, 1)]
        path = self.write_embeddings(tmp_path, rows)
        m = import_embeddings(path, self.records())
        assert m.row_ids == ["t0", "t1", "t2"]
        assert set(m.col_groups) == {"embedding"}
        assert np.array_equal(m.data[:, 0], [0.0, 1.0, 2.0])

    def test_byte_order_mark(self, tmp_path):
        rows = [f"t{i}," + ",".join(str(float(i)) for _ in range(4)) for i in (2, 0, 1)]
        path = self.write_embeddings(tmp_path, rows)
        plain = import_embeddings(path, self.records())
        back = import_embeddings(prepend_bom(path), self.records())
        assert (back.row_ids, back.col_names) == (plain.row_ids, plain.col_names)
        assert np.array_equal(back.data, plain.data)

    def test_missing_id_named(self, tmp_path):
        rows = ["t0,1,1,1,1", "t1,2,2,2,2"]
        path = self.write_embeddings(tmp_path, rows)
        with pytest.raises(ValueError, match="t2"):
            import_embeddings(path, self.records())

    def test_extra_rows_ignored_with_warning(self, tmp_path, caplog):
        rows = [f"t{i},1,1,1,1" for i in range(3)] + ["ghost,9,9,9,9"]
        path = self.write_embeddings(tmp_path, rows)
        with caplog.at_level("WARNING"):
            m = import_embeddings(path, self.records())
        assert m.shape == (3, 4)
        assert "1" in caplog.text and "ignored" in caplog.text

    def test_ragged_row(self, tmp_path):
        rows = ["t0,1,1,1,1", "t1,2,2", "t2,3,3,3,3"]
        path = self.write_embeddings(tmp_path, rows)
        with pytest.raises(ValueError, match="ragged"):
            import_embeddings(path, self.records())

    def test_repeated_id_names_both_lines(self, tmp_path):
        rows = ["t0,1,1,1,1", "t1,2,2,2,2", "t0,3,3,3,3", "t2,4,4,4,4"]
        path = self.write_embeddings(tmp_path, rows)
        with pytest.raises(ValueError) as info:
            import_embeddings(path, self.records())
        assert str(info.value) == f"{path}: line 4 repeats track 't0' from line 2"

    def test_non_numeric_cell_named(self, tmp_path):
        rows = ["t0,1,1,1,1", "t1,2,2,x,2", "t2,3,3,3,3"]
        path = self.write_embeddings(tmp_path, rows)
        with pytest.raises(ValueError) as info:
            import_embeddings(path, self.records())
        assert str(info.value) == f"{path}: line 3, column 'e2': 'x' is not a number"


class TestLabels:
    def test_round_trip(self, tmp_path):
        ids = ["a", "b", "c", "d"]
        labels = np.array([2, 0, 1, 0])
        save_labels(tmp_path / "labels.csv", ids, labels)
        assert (tmp_path / "labels.csv").read_text() == "track_id,label\na,2\nb,0\nc,1\nd,0\n"
        back = load_labels(tmp_path / "labels.csv", ids)
        assert back.dtype == np.int64 and np.array_equal(back, labels)
        assert np.array_equal(load_labels(tmp_path / "labels.csv", ["d", "c", "b", "a"]), [0, 1, 0, 2])

    def test_byte_order_mark(self, tmp_path):
        save_labels(tmp_path / "labels.csv", ["a", "b", "c"], np.array([2, 0, 1]))
        assert np.array_equal(load_labels(prepend_bom(tmp_path / "labels.csv"), ["a", "b", "c"]), [2, 0, 1])

    def test_missing_track_named(self, tmp_path):
        save_labels(tmp_path / "labels.csv", ["a", "b"], np.array([0, 1]))
        with pytest.raises(ConfigError) as info:
            load_labels(tmp_path / "labels.csv", ["a", "b", "c"])
        assert str(info.value) == f"{tmp_path / 'labels.csv'}: labels missing for tracks ['c']"

    def test_extra_tracks_named(self, tmp_path):
        # labels of another clustering: every analysed track is labelled, and more
        ids = [f"t{i}" for i in range(8)]
        save_labels(tmp_path / "labels.csv", ids, np.arange(8) % 2)
        with pytest.raises(ConfigError) as info:
            load_labels(tmp_path / "labels.csv", ids[:2])
        assert str(info.value) == (
            f"{tmp_path / 'labels.csv'}: labels for tracks ['t2', 't3', 't4', 't5', 't6'] not among the 2 analysed"
        )


finite = st.floats(allow_nan=False, allow_infinity=False)
# the characters csv.reader treats specially, plus ordinary ones
CSV_TEXT = st.text(alphabet=',"\r\n' + "ab 'x#\t;é", max_size=8)
CSV_CELL = st.one_of(CSV_TEXT, finite, st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))


class TestMatrixBytesRoundTrip:
    @settings(max_examples=100, deadline=None)
    @example(rows=[(-0.0, 5e-324, 1e308), (-1e308, 2.2250738585072014e-308, 0.1)])
    @given(rows=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=6))
    def test_save_load_save_byte_equal(self, rows):
        m = FeatureMatrix(
            [f"t{i}" for i in range(len(rows))], ["x", "y", "z"], ["spectral", "meta", "embedding"], rows
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
            save_matrix(m, first)
            back = load_matrix(first)
            save_matrix(back, second)
            assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(back.data, m.data)
        assert np.array_equal(np.signbit(back.data), np.signbit(m.data))

    @settings(max_examples=200, deadline=None)
    @example(name='"quoted" id')
    @example(name="carriage\rreturn")
    @example(name="Artist A, Artist B - Title")
    @example(name="line\nbreak")
    @given(name=CSV_TEXT)
    def test_every_name_stored_exactly(self, name):
        m = FeatureMatrix([name, "row"], [name, "col"], ["spectral", "meta"], [[1.0, 2.0], [3.0, 4.0]])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.csv")
            save_matrix(m, path)
            back = load_matrix(path)
        assert back.row_ids == m.row_ids
        assert back.col_names == m.col_names


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @example(rows=[["c\rd", "a,b", 'say "hi"', "", "#x", " sp ", "é"], [-0.0, 5e-324, 1e308, -1e308]])
    @example(rows=[[""], ["", ""], ["\r\n"]])
    @given(rows=st.lists(st.lists(CSV_CELL, min_size=1, max_size=5), min_size=1, max_size=5))
    def test_csv_reader_reads_every_cell_back(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "out.csv")
            write_csv(path, rows)
            raw = path.read_bytes()
            with path.open(newline="", encoding="utf-8") as fh:
                back = list(csv.reader(fh))
        assert raw.endswith(b"\n")
        assert back == [[repr(c) if isinstance(c, float) else c for c in row] for row in rows]

    def test_cells_as_written(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [["id", "x", "n"], ['a "b", c', 0.1, np.int64(3)], ["c\rd", np.float64(-0.0), True]])
        assert path.read_bytes() == b'id,x,n\n"a ""b"", c",0.1,3\n"c\rd",-0.0,True\n'


def test_write_json_layout(tmp_path):
    # the layout both JSON sidecars (model_<method>.json, report_<method>.json) are written in
    path = tmp_path / "out.json"
    write_json(path, {"b": {"z": None, "y": 0.1}, "a": [1, "é"]})
    assert path.read_bytes() == '{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": {\n    "y": 0.1,\n    "z": null\n  }\n}\n'.encode()


# Every input CSV goes through one reader: each defect gets the same
# ConfigError and message whichever of the four files it is in.
READER_IDS = ["t0", "t1", "t2"]
READERS = {
    # header lines, data row template, loader, number column
    "manifest": ("track_id,path,genre,bpm,key,length_s", "{id},{id}.wav,techno,{x},,120", load_manifest, "bpm"),
    "matrix": ("track_id,a,b\n#group:,spectral,meta", "{id},1.0,{x}", load_matrix, "b"),
    "embeddings": (
        "track_id,e0,e1",
        "{id},1.0,{x}",
        lambda path: import_embeddings(path, [TrackRecord(t, f"{t}.wav", "techno") for t in READER_IDS]),
        "e1",
    ),
    "labels": ("track_id,label", "{id},{x}", lambda path: load_labels(path, READER_IDS), None),
}
GOOD = {"manifest": "128", "matrix": "2.0", "embeddings": "2.0", "labels": "0"}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("defect", ["empty", "ragged", "repeated_id", "non_numeric", "nan", "inf"])
def test_input_csv_defect_named(tmp_path, reader, defect):
    header, template, load, column = READERS[reader]
    width = header.split("\n")[0].count(",") + 1
    first = header.count("\n") + 2  # line of the first data row
    ids, values = list(READER_IDS), [GOOD[reader]] * 3
    if defect == "repeated_id":
        ids[2] = "t0"
    if defect in ("non_numeric", "nan", "inf"):
        values[1] = {"non_numeric": "abc", "nan": "nan", "inf": "-inf"}[defect]
    rows = [template.format(id=i, x=x) for i, x in zip(ids, values)]
    if defect == "ragged":
        rows[1] += ",9"
    path = tmp_path / "input.csv"
    path.write_text("" if defect == "empty" else "\n".join([header, *rows]) + "\n")

    if defect == "empty":
        expected = "empty file"
    elif defect == "ragged":
        expected = f"ragged row at line {first + 1} ({width + 1} cells, expected {width})"
    elif defect == "repeated_id":
        expected = f"line {first + 2} repeats track 't0' from line {first}"
    elif reader == "labels":
        expected = f"line {first + 1} label must be an integer, got {values[1]!r}"
    else:
        kind = "a number" if defect == "non_numeric" else "a finite number"
        expected = f"line {first + 1}, column {column!r}: {values[1]!r} is not {kind}"
    with pytest.raises(ConfigError) as info:
        load(path)
    assert str(info.value) == f"{path}: {expected}"
