"""Unit tests for repro.utils.csvio."""

import pytest

from repro.errors import ReportError, TopologyError
from repro.utils.csvio import read_csv_rows, write_csv


class TestReadCsvRows:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        rows = read_csv_rows(path)
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n\n1,2\n  \n")
        assert len(read_csv_rows(path)) == 2

    def test_skips_comment_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# header comment\na,b\n1,2\n")
        assert read_csv_rows(path)[0] == ["a", "b"]

    def test_strips_whitespace(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a , b \n")
        assert read_csv_rows(path) == [["a", "b"]]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TopologyError):
            read_csv_rows(tmp_path / "nope.csv")


class TestWriteCsv:
    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "t.csv"
        write_csv(path, ["x"], [[1]])
        assert path.exists()

    def test_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(ReportError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1]])
