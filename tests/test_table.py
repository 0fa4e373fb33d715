import numpy as np
import pytest

from edm_atlas.table import (
    FeatureMatrix,
    TrackRecord,
    assemble_matrix,
    import_embeddings,
    load_manifest,
    load_matrix,
    save_matrix,
)
from edm_atlas.types import FeatureVector

MANIFEST_HEADER = "track_id,path,genre,bpm,key,length_s"


def write_manifest(tmp_path, rows, header=MANIFEST_HEADER):
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join([header] + rows) + "\n")
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
        assert str(info.value) == f"manifest.csv: line 3, column '{column}': '{cell}' is not a number"


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

    def test_non_numeric_cell_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("track_id,x,y\n#group:,spectral,meta\na,1.0,oops\n")
        with pytest.raises(ValueError, match="'a'.*'y'"):
            load_matrix(path)

    def test_unknown_group_tag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("track_id,x\n#group:,mystery\na,1.0\n")
        with pytest.raises(ValueError, match="mystery"):
            load_matrix(path)

    def test_nan_sentinel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("track_id,x,y\n#group:,spectral,meta\na,1.0,nan\n")
        with pytest.raises(ValueError, match="'a'.*'y'"):
            load_matrix(path)

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
        assert str(info.value) == "emb.csv: line 4 repeats track 't0' from line 2"

    def test_non_numeric_cell_named(self, tmp_path):
        rows = ["t0,1,1,1,1", "t1,2,2,x,2", "t2,3,3,3,3"]
        path = self.write_embeddings(tmp_path, rows)
        with pytest.raises(ValueError) as info:
            import_embeddings(path, self.records())
        assert str(info.value) == "emb.csv: line 3, column 'e2': 'x' is not a number"
