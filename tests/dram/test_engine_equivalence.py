"""Randomized cross-engine equivalence: the production entry == ReferenceEngine.

A lone DRAM config resolves through ``GridBatchedEngine([config])``,
the entry ``Simulator.run`` takes; its dispatch paths and vector pass
must be *bit-exact* to the scalar reference — the correctness bar
every shipped benchmark CSV rests on.  This fuzz drives both with
identical randomized traffic (operand mixes, read/write splits, queue
depths small enough to saturate, channel counts, address mappings,
technologies, issue rates) and asserts identical completion cycles,
DRAM statistics and queue statistics, across the scalar fast path,
the vector path, and the mixed regime.  One test keeps the per-engine
``BatchedEngine.process_batch`` entry pinned to the reference too.
"""

import random

import pytest

from repro.config.system import ArchitectureConfig, DramConfig, SystemConfig
from repro.core.compute_sim import TileFetch
from repro.dram.backend import DramBackend, make_ramulator
from repro.dram.engine import LineRequestBatch, ReferenceEngine
from repro.dram.engine_batched import BatchedEngine
from repro.dram.engine_grid import GridBatchedEngine

MAPPINGS = ("ro_ba_ra_co_ch", "ro_ba_ra_ch_co", "ro_co_ra_ba_ch", "ch_ro_ba_ra_co")
TECHNOLOGIES = ("ddr3", "ddr4", "lpddr4", "gddr5", "hbm", "hbm2", "wio2")
OPERANDS = ("ifmap", "filter", "ofmap")


def _config(word_bytes: int = 2, **dram) -> SystemConfig:
    """A DRAM-enabled config holding the drawn datapath parameters."""
    return SystemConfig(
        arch=ArchitectureConfig(word_bytes=word_bytes),
        dram=DramConfig(enabled=True, **dram),
    )


def _engine_kwargs(config: SystemConfig) -> dict:
    dram = config.dram
    return dict(
        read_queue_entries=dram.read_queue_entries,
        write_queue_entries=dram.write_queue_entries,
        max_issue_per_cycle=dram.issue_per_cycle,
    )


def _reference_backend(config: SystemConfig) -> DramBackend:
    """A :class:`DramBackend` around the scalar :class:`ReferenceEngine`."""
    engine = ReferenceEngine(make_ramulator(config.dram), **_engine_kwargs(config))
    return DramBackend(engine, word_bytes=config.arch.word_bytes)


class _GridEntry:
    """``GridBatchedEngine([config])`` behind the :class:`MemoryEngine` protocol."""

    def __init__(self, config: SystemConfig) -> None:
        self.grid = GridBatchedEngine([config])
        [engine] = self.grid.engines
        self.read_queue = engine.read_queue
        self.write_queue = engine.write_queue
        self.drain = engine.drain
        self.aggregate_stats = engine.aggregate_stats

    def process_batch(self, batch: LineRequestBatch, issue_cycle: int):
        [result] = self.grid.process_batch(batch, [issue_cycle])
        return result


def _grid_backend(config: SystemConfig) -> tuple[DramBackend, BatchedEngine]:
    """The production entry as a backend, and the grid's one engine."""
    entry = _GridEntry(config)
    return DramBackend(entry, word_bytes=config.arch.word_bytes), entry.grid.engines[0]


def _random_config(rng: random.Random) -> SystemConfig:
    dram_kwargs = dict(
        technology=rng.choice(TECHNOLOGIES),
        channels=rng.choice((1, 1, 2, 3, 4, 8)),
        ranks_per_channel=rng.choice((1, 1, 2)),
        banks_per_rank=rng.choice((2, 4, 16)),
        capacity_gb_per_channel=rng.choice((0.0625, 0.25, 0.5)),
        address_mapping=rng.choice(MAPPINGS),
    )
    queue_kwargs = dict(
        read_queue_entries=rng.choice((1, 2, 3, 5, 16, 128, 300)),
        write_queue_entries=rng.choice((1, 2, 4, 17, 128)),
        word_bytes=rng.choice((1, 2, 4)),
        issue_per_cycle=rng.choice((1, 2, 4, 7)),
    )
    return _config(**dram_kwargs, **queue_kwargs)


def _random_backend_pair(rng: random.Random, force_path: int):
    config = _random_config(rng)
    reference = _reference_backend(config)
    grid, engine = _grid_backend(config)
    # 0: everything vectorized, 1: mixed, 2: everything scalar.
    engine.vector_threshold = (1, 40, 10**9)[force_path]
    return reference, grid


def _random_fetches(rng: random.Random) -> tuple[TileFetch, ...]:
    fetches = []
    for _ in range(rng.randint(0, 4)):
        size = rng.choice(
            (0, rng.randint(1, 40), rng.randint(1, 5_000), rng.randint(1, 50_000))
        )
        fetches.append(
            TileFetch(
                rng.choice(OPERANDS),
                rng.randrange(0, 4_000_000),
                size,
                is_write=rng.random() < 0.4,
            )
        )
    return tuple(fetches)


def _assert_equivalent(reference: DramBackend, batched: DramBackend, context):
    assert reference.dram_stats() == batched.dram_stats(), context
    assert reference.drain() == batched.drain(), context
    assert reference.total_lines_read == batched.total_lines_read, context
    assert reference.total_lines_written == batched.total_lines_written, context
    for ref_q, bat_q in (
        (reference.read_queue, batched.read_queue),
        (reference.write_queue, batched.write_queue),
    ):
        assert ref_q.total_enqueued == bat_q.total_enqueued, (context, ref_q.name)
        assert ref_q.total_stall_cycles == bat_q.total_stall_cycles, (
            context,
            ref_q.name,
        )
        assert ref_q.peak_occupancy == bat_q.peak_occupancy, (context, ref_q.name)


@pytest.mark.parametrize("force_path", (0, 1, 2), ids=("vector", "mixed", "scalar"))
def test_randomized_traffic_is_bit_exact(force_path):
    for trial in range(25):
        rng = random.Random(7_000 + 31 * trial + force_path)
        reference, batched = _random_backend_pair(rng, force_path)
        cycle = 0
        for batch_index in range(rng.randint(1, 10)):
            fetches = _random_fetches(rng)
            cycle += rng.randrange(0, 5_000)
            ready_ref = reference.complete_fetches(fetches, cycle)
            ready_bat = batched.complete_fetches(fetches, cycle)
            assert ready_ref == ready_bat, (trial, batch_index)
        _assert_equivalent(reference, batched, trial)


def test_single_stream_bursts_are_bit_exact():
    """The closed-form single-stream fast path vs the reference.

    Prefetch-shaped traffic — one contiguous read stream per batch,
    spaced so earlier reads have retired — is exactly the regime the
    fast path claims; interleave it with occasional disqualifying
    batches (writes, multi-stream, tight spacing) so the guards and the
    regular paths hand state back and forth.  Half the bursts may run
    to 20,000 words, past every read queue drawn here and past
    ``vector_threshold``, so single-stream bursts the fast path declines
    also take the scalar loop and the vector pass.
    """
    for trial in range(15):
        rng = random.Random(1_300 + trial)
        dram_kwargs = dict(
            technology=rng.choice(TECHNOLOGIES),
            channels=1,
            banks_per_rank=rng.choice((2, 4, 16)),
            address_mapping=rng.choice(MAPPINGS),
        )
        queue_kwargs = dict(
            read_queue_entries=rng.choice((8, 32, 128)),
            issue_per_cycle=rng.choice((1, 2, 4)),
        )
        config = _config(**dram_kwargs, **queue_kwargs)
        reference = _reference_backend(config)
        batched, engine = _grid_backend(config)
        assert engine.single_stream_fast_path
        cycle = 0
        base = 0
        for _ in range(40):
            if rng.random() < 0.8:  # the prefetch shape
                words = rng.randint(1, rng.choice((4_000, 20_000)))
                fetches = (TileFetch("ifmap", base, words),)
                cycle += rng.randrange(500, 20_000)
            else:  # disqualify: mixed streams / writes / tight spacing
                fetches = (
                    TileFetch("ifmap", base, rng.randint(1, 2000)),
                    TileFetch("ofmap", base, rng.randint(1, 2000), is_write=True),
                )
                cycle += rng.randrange(0, 50)
            base += rng.randrange(0, 100_000)
            assert reference.complete_fetches(fetches, cycle) == batched.complete_fetches(
                fetches, cycle
            ), trial
        _assert_equivalent(reference, batched, trial)


def test_fast_path_disabled_matches_enabled():
    """The fast path is a pure optimization: toggling it moves nothing."""
    for trial in range(6):
        rng = random.Random(60 + trial)
        engines = []
        for enabled in (True, False):
            backend, engine = _grid_backend(_config(issue_per_cycle=1))
            engine.single_stream_fast_path = enabled
            engines.append(backend)
        cycle = 0
        for _ in range(30):
            fetches = (TileFetch("ifmap", rng.randrange(0, 10**6), rng.randint(1, 3000)),)
            cycle += rng.randrange(0, 30_000)
            assert engines[0].complete_fetches(fetches, cycle) == engines[
                1
            ].complete_fetches(fetches, cycle)
        _assert_equivalent(engines[0], engines[1], trial)


def test_saturated_queues_stall_identically():
    """Tiny queues force constant backpressure — the hardest regime."""
    for trial in range(8):
        rng = random.Random(42 + trial)
        config = _config(
            channels=rng.choice((1, 2)),
            technology="ddr4",
            read_queue_entries=rng.choice((1, 2, 4)),
            write_queue_entries=rng.choice((1, 2)),
            issue_per_cycle=4,
        )
        grid, engine = _grid_backend(config)
        engine.vector_threshold = 1
        pair = [_reference_backend(config), grid]
        fetches = (
            TileFetch("ifmap", 0, 30_000),
            TileFetch("ofmap", 0, 20_000, is_write=True),
        )
        assert pair[0].complete_fetches(fetches, 0) == pair[1].complete_fetches(
            fetches, 0
        )
        assert pair[0].stall_cycles_from_backpressure > 0
        _assert_equivalent(pair[0], pair[1], trial)


def test_dense_run_identical_through_simulator():
    """Engine choice must not move a single cycle of a full dense run."""
    from repro.core.simulator import Simulator, resolve_plan
    from repro.topology.models import resnet18

    topology = resnet18(scale=16).first_layers(4)
    base = SystemConfig(
        arch=ArchitectureConfig(dataflow="ws", ifmap_sram_kb=32, filter_sram_kb=32,
                                ofmap_sram_kb=32),
        dram=DramConfig(enabled=True, channels=2, read_queue_entries=16,
                        write_queue_entries=16),
    )
    reference = _reference_backend(base)
    ref = resolve_plan(Simulator(base).plan(topology), reference, base.run.run_name)
    bat = Simulator(base).run(topology)
    assert ref.total_cycles == bat.total_cycles
    assert ref.dram_stats == bat.dram_stats
    for layer_ref, layer_bat in zip(ref.layers, bat.layers):
        assert layer_ref.timeline.total_cycles == layer_bat.timeline.total_cycles
        assert layer_ref.backpressure_stall_cycles == layer_bat.backpressure_stall_cycles
        assert layer_ref.drain_cycles == layer_bat.drain_cycles


def test_per_engine_entry_matches_reference():
    """``BatchedEngine.process_batch`` on its own, vs the spec.

    No run reaches this entry (every DRAM config resolves through the
    grid), but ``perfbench/tracing.py`` patches it by name, so it stays
    and stays exact: the vector, mixed and scalar paths on fresh draws.
    """
    for trial in range(6):
        rng = random.Random(5_500 + trial)
        config = _random_config(rng)
        engine = BatchedEngine(make_ramulator(config.dram), **_engine_kwargs(config))
        engine.vector_threshold = (1, 40, 10**9)[trial % 3]
        reference = _reference_backend(config)
        batched = DramBackend(engine, word_bytes=config.arch.word_bytes)
        cycle = 0
        for batch_index in range(rng.randint(1, 6)):
            fetches = _random_fetches(rng)
            cycle += rng.randrange(0, 5_000)
            ready = reference.complete_fetches(fetches, cycle)
            assert batched.complete_fetches(fetches, cycle) == ready, (trial, batch_index)
        _assert_equivalent(reference, batched, trial)
