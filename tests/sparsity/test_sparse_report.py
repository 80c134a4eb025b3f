"""Unit tests for SPARSE_REPORT.csv emission."""

from repro.sparsity.report import write_sparse_report
from repro.sparsity.sparse_compute import SparseComputeSimulator
from repro.topology.layer import GemmLayer, SparsityRatio
from repro.utils.csvio import read_csv_rows


class TestSparseReport:
    def _results(self):
        sim = SparseComputeSimulator(8, 8)
        layers = [
            GemmLayer("a", m=16, n=16, k=32, sparsity=SparsityRatio(1, 4)),
            GemmLayer("b", m=16, n=16, k=32, sparsity=SparsityRatio(2, 4)),
        ]
        return [sim.simulate_layer(layer) for layer in layers]

    def test_writes_file(self, tmp_path):
        path = write_sparse_report(self._results(), tmp_path)
        assert path.name == "SPARSE_REPORT.csv"
        rows = read_csv_rows(path)
        assert len(rows) == 3  # header + 2 layers

    def test_header_has_paper_columns(self, tmp_path):
        path = write_sparse_report(self._results(), tmp_path)
        header = read_csv_rows(path)[0]
        assert "SparsityRepresentation" in header
        assert "OriginalFilterStorage(kB)" in header
        assert "NewFilterStorage(kB)" in header

    def test_sparser_layer_smaller_storage(self, tmp_path):
        path = write_sparse_report(self._results(), tmp_path)
        rows = read_csv_rows(path)
        header = rows[0]
        idx = header.index("NewFilterStorage(kB)")
        assert float(rows[1][idx]) < float(rows[2][idx])
