"""Property-based tests (hypothesis) on core invariants."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import SystemConfig
from repro.core.compute_sim import ComputeSimulator
from repro.core.dataflow import (
    Dataflow,
    analytical_runtime,
    map_gemm,
    mapping_efficiency,
    spatial_runtime,
)
from repro.core.operand_matrix import operand_matrices
from repro.core.systolic import TraceEngine
from repro.dram.address import LINE_BYTES, AddressMapper
from repro.dram.dram_sim import RamulatorLite
from repro.errors import ReproError
from repro.layout.spec import LayoutSpec, TensorView
from repro.memory.request_queue import RequestQueue
from repro.multicore.noc import nonuniform_shares
from repro.run.request import SweepRequest
from repro.run.sweep import apply_override
from repro.sparsity.formats import blocked_ellpack_storage, dense_storage
from repro.sparsity.pattern import layerwise_pattern, rowwise_pattern
from repro.topology.layer import GemmLayer, GemmShape, SparsityRatio
from repro.utils.rng import make_rng

dims = st.integers(min_value=1, max_value=40)
small_arrays = st.integers(min_value=1, max_value=12)
dataflows = st.sampled_from(list(Dataflow))


class TestRuntimeEquationProperties:
    @given(m=dims, n=dims, k=dims, r=small_arrays, c=small_arrays, df=dataflows)
    @settings(max_examples=60, deadline=None)
    def test_trace_length_equals_equation(self, m, n, k, r, c, df):
        """The cycle-accurate trace and Eq. 1 must always agree."""
        layer = GemmLayer("g", m=m, n=n, k=k)
        engine = TraceEngine(operand_matrices(layer), df, r, c)
        assert engine.total_cycles == analytical_runtime(layer.to_gemm(), df, r, c)

    @given(m=dims, n=dims, k=dims, r=small_arrays, c=small_arrays, df=dataflows)
    @settings(max_examples=60, deadline=None)
    def test_runtime_lower_bound(self, m, n, k, r, c, df):
        """Runtime is at least MACs / PEs (work conservation)."""
        shape = GemmShape(m, n, k)
        runtime = analytical_runtime(shape, df, r, c)
        assert runtime * r * c >= shape.macs

    @given(m=dims, n=dims, k=dims, df=dataflows,
           pr=st.integers(1, 4), pc=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_partitioning_never_hurts(self, m, n, k, df, pr, pc):
        mapping = map_gemm(GemmShape(m, n, k), df)
        single = spatial_runtime(mapping, 8, 8, 1, 1)
        multi = spatial_runtime(mapping, 8, 8, pr, pc)
        assert multi <= single

    @given(m=dims, n=dims, k=dims, r=small_arrays, c=small_arrays, df=dataflows)
    @settings(max_examples=60, deadline=None)
    def test_mapping_efficiency_in_unit_interval(self, m, n, k, r, c, df):
        mapping = map_gemm(GemmShape(m, n, k), df)
        eff = mapping_efficiency(mapping, r, c)
        assert 0 < eff <= 1


class TestSramCountProperties:
    @given(m=dims, n=dims, k=dims, df=dataflows)
    @settings(max_examples=40, deadline=None)
    def test_counts_match_traces(self, m, n, k, df):
        """Closed-form SRAM counts == summed trace counts, always."""
        layer = GemmLayer("g", m=m, n=n, k=k)
        engine = TraceEngine(operand_matrices(layer), df, 4, 4)
        result = ComputeSimulator(4, 4, df).simulate_layer(layer)
        traces = list(engine.fold_traces())
        assert sum(t.ifmap_reads for t in traces) == result.ifmap_sram_reads
        assert sum(t.filter_reads for t in traces) == result.filter_sram_reads
        assert sum(t.ofmap_writes for t in traces) == result.ofmap_sram_writes

    @given(m=dims, n=dims, k=dims, df=dataflows)
    @settings(max_examples=40, deadline=None)
    def test_stationary_operand_read_exactly_once(self, m, n, k, df):
        layer = GemmLayer("g", m=m, n=n, k=k)
        result = ComputeSimulator(4, 4, df).simulate_layer(layer)
        shape = layer.to_gemm()
        if df is Dataflow.WEIGHT_STATIONARY:
            assert result.filter_sram_reads == shape.filter_words
        elif df is Dataflow.INPUT_STATIONARY:
            assert result.ifmap_sram_reads == shape.ifmap_words
        else:
            assert result.ofmap_sram_writes == shape.ofmap_words


class TestDramProperties:
    @given(
        addresses=st.lists(st.integers(0, 1 << 24), min_size=1, max_size=60),
        channels=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_completion_after_submission(self, addresses, channels):
        dram = RamulatorLite(technology="ddr4", channels=channels)
        cycle = 0
        for addr in addresses:
            done = dram.submit(addr, cycle)
            assert done > cycle
            cycle += 1

    @given(
        addresses=st.lists(st.integers(0, 1 << 24), min_size=1, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_category_partition(self, addresses):
        dram = RamulatorLite(technology="ddr4", channels=2)
        for i, addr in enumerate(addresses):
            dram.submit(addr, i * 2)
        stats = dram.aggregate_stats()
        assert stats.row_hits + stats.row_misses + stats.row_conflicts == len(addresses)

    @given(address=st.integers(0, 1 << 40), channels=st.integers(1, 8),
           banks=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_address_decode_in_bounds(self, address, channels, banks):
        mapper = AddressMapper(
            "ro_ba_ra_co_ch", channels, 1, banks, 8192, 1 << 29
        )
        decoded = mapper.decode(address)
        assert 0 <= decoded.channel < channels
        assert 0 <= decoded.bank < banks
        assert 0 <= decoded.column < mapper.columns
        assert 0 <= decoded.row < mapper.rows

    @given(address=st.integers(0, 1 << 30))
    @settings(max_examples=40, deadline=None)
    def test_same_line_same_decode(self, address):
        mapper = AddressMapper("ro_ba_ra_co_ch", 4, 1, 8, 4096, 1 << 28)
        base = (address // LINE_BYTES) * LINE_BYTES
        assert mapper.decode(base) == mapper.decode(base + LINE_BYTES - 1)


class TestRequestQueueProperties:
    @given(
        durations=st.lists(st.integers(1, 500), min_size=1, max_size=50),
        capacity=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, durations, capacity):
        queue = RequestQueue(capacity)
        cycle = 0
        for duration in durations:
            # Proper protocol: resolve the issue slot first, then compute
            # the completion from the actual issue time (as the DRAM
            # backend does).
            issue = queue.earliest_issue(cycle)
            actual = queue.push(cycle, issue + duration)
            assert actual == issue
            assert queue.occupancy_at(actual) <= capacity
            cycle = actual


class TestSparsityProperties:
    ratios = st.tuples(st.integers(0, 8), st.integers(1, 8)).filter(lambda t: t[0] <= t[1])

    @given(rows=dims, cols=dims, ratio=ratios)
    @settings(max_examples=60, deadline=None)
    def test_compressed_never_bigger_than_dense_plus_metadata(self, rows, cols, ratio):
        n, m = ratio
        pattern = layerwise_pattern(rows, cols, SparsityRatio(n, m))
        compressed = blocked_ellpack_storage(pattern)
        dense = dense_storage(rows, cols)
        # Data alone never exceeds dense; metadata is bounded by
        # log2(M)/wordbits of the data.
        assert compressed.data_bits <= dense.data_bits
        assert compressed.metadata_bits <= pattern.total_nnz * 16

    @given(rows=st.integers(1, 50), blocks=st.integers(1, 8),
           block=st.integers(2, 16), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_rowwise_respects_half_cap(self, rows, blocks, block, seed):
        cols = blocks * block  # whole blocks: the N <= M/2 bound is exact
        pattern = rowwise_pattern(rows, cols, block, make_rng(seed))
        assert int(pattern.nnz_per_block.max()) <= block // 2
        assert pattern.density <= 0.5 + 1e-9

    @given(rows=dims, cols=dims, ratio=ratios)
    @settings(max_examples=40, deadline=None)
    def test_mask_agrees_with_counts(self, rows, cols, ratio):
        n, m = ratio
        pattern = layerwise_pattern(rows, cols, SparsityRatio(n, m))
        assert int(pattern.to_mask().sum()) == pattern.total_nnz


class TestLayoutProperties:
    @given(
        c=st.integers(1, 32),
        h=st.integers(1, 16),
        w=st.integers(1, 16),
        banks=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_locate_is_injective_per_tensor(self, c, h, w, banks):
        """(line, col) uniquely identifies an element: no two elements
        share a storage slot."""
        view = TensorView(c_dim=c, h_dim=h, w_dim=w)
        spec = LayoutSpec.default_for(view, num_banks=banks, bandwidth_per_bank=8)
        offsets = np.arange(view.num_elements)
        line, col, _ = spec.locate(offsets)
        slots = set(zip(line.tolist(), col.tolist()))
        assert len(slots) == view.num_elements

    @given(
        c=st.integers(1, 32),
        h=st.integers(1, 16),
        w=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bank_within_range(self, c, h, w):
        view = TensorView(c_dim=c, h_dim=h, w_dim=w)
        spec = LayoutSpec.default_for(view, num_banks=4, bandwidth_per_bank=8)
        _, _, bank = spec.locate(np.arange(view.num_elements))
        assert int(bank.max()) < 4


class TestNocProperties:
    @given(
        lats=st.lists(st.integers(0, 1000), min_size=1, max_size=16),
        work=st.integers(1, 100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_shares_valid_distribution(self, lats, work):
        shares = nonuniform_shares(lats, work)
        assert all(s >= 0 for s in shares)
        assert sum(shares) == 1 or abs(sum(shares) - 1) < 1e-9


_SECTIONS = ("arch", "sparsity", "dram", "layout", "energy")
_REAL_FIELDS = [
    f"{section}.{f.name}"
    for section in _SECTIONS
    for f in dataclasses.fields(getattr(SystemConfig(), section))
]
field_paths = st.one_of(
    st.sampled_from(_REAL_FIELDS),
    st.sampled_from(["arch.num_pes", "arch.ifmap_sram_words", "layout.total_bandwidth_words"]),
    st.builds(
        "{}.{}".format,
        st.sampled_from(_SECTIONS + ("run", "multicore", "")),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz_.", max_size=12),
    ),
    st.text(max_size=16),
)
wire_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(1 << 40), 1 << 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.sampled_from(["1", "0", "true", "no", "2.5", "os", "hbm", "ch_ro_ba_ra_co", "inf"]),
)


class TestInputBoundaryProperties:
    @given(path=field_paths, value=wire_values)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_boundary_raises_only_typed_errors(self, path, value):
        """Any field path and JSON scalar: a result or a ReproError, never
        a TypeError or AttributeError from inside a config."""
        payload = {
            "preset": "scale_sim_v2_default",
            "model": "toy_gemm",
            "axes": {path: [value]},
        }
        for attempt in (
            lambda: SweepRequest.from_payload(payload).build(),
            lambda: apply_override(SystemConfig(), path, value),
        ):
            try:
                attempt()
            except ReproError:
                pass
