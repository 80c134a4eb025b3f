"""State hand-off between the batched engine's dispatch paths.

Each batch a config resolves takes one of three paths: the closed-form
single-stream path, the scalar loop or the vector pass.  All three read
and write the one set of state arrays a :class:`BatchedEngine` keeps
(bank rows, ready and ACT cycles, channel buses, the sorted pending
and outstanding pools), so a path must leave that state exactly as the
next path expects it.  This fuzz drives ``GridBatchedEngine([config])``
through a seeded mix of single-stream-shaped, scalar-size and
vector-size batches and, after every batch, compares the whole state
with a twin that resolves every batch in the scalar loop.
"""

import dataclasses
import random
from collections import Counter

import numpy as np

import repro.dram.engine_grid as engine_grid
from repro.config.system import ArchitectureConfig, DramConfig, SystemConfig
from repro.dram.engine import LineRequestBatch, LineStream
from repro.dram.engine_batched import BatchedEngine
from repro.dram.engine_grid import GridBatchedEngine

MAPPINGS = ("ro_ba_ra_co_ch", "ro_ba_ra_ch_co", "ro_co_ra_ba_ch", "ch_ro_ba_ra_co")
TECHNOLOGIES = ("ddr3", "ddr4", "lpddr4", "gddr5", "hbm2")
_STATS = (
    "_s_reads",
    "_s_writes",
    "_s_hits",
    "_s_misses",
    "_s_conflicts",
    "_s_lat",
    "_s_last",
    "_s_first",
    "_s_bytes",
)


def _random_config(rng: random.Random) -> SystemConfig:
    return SystemConfig(
        arch=ArchitectureConfig(word_bytes=2),
        dram=DramConfig(
            enabled=True,
            technology=rng.choice(TECHNOLOGIES),
            # One channel half the time: the single-stream path needs it.
            channels=rng.choice((1, 1, 1, 2, 4)),
            ranks_per_channel=rng.choice((1, 1, 2)),
            banks_per_rank=rng.choice((4, 16)),
            address_mapping=rng.choice(MAPPINGS),
            read_queue_entries=rng.choice((8, 32, 128)),
            write_queue_entries=rng.choice((8, 32, 128)),
            issue_per_cycle=rng.choice((1, 2, 4)),
        ),
    )


def _random_batch(rng: random.Random, read_depth: int) -> LineRequestBatch:
    """A single-stream burst, a scalar-size or a vector-size batch."""
    kind = rng.randrange(3)
    if kind == 0:
        # One contiguous read burst no longer than the read queue.
        return LineRequestBatch(
            (LineStream(rng.randrange(0, 50_000), rng.randint(1, read_depth)),)
        )
    total = rng.randint(2, 150) if kind == 1 else rng.randint(200, 700)
    streams = []
    for _ in range(rng.randint(1, 4)):
        streams.append(
            LineStream(
                rng.randrange(0, 200_000),
                rng.randint(1, total),
                is_write=rng.random() < 0.35,
            )
        )
    return LineRequestBatch(tuple(streams))


def _state(engine: BatchedEngine) -> tuple:
    """Everything a later batch or the run's statistics can observe."""
    clock = engine._issue_clock
    queues = (engine.read_queue, engine.write_queue)
    return (
        engine._open_row.tolist(),
        engine._ready.tolist(),
        engine._act.tolist(),
        engine._bus_ready.tolist(),
        clock,
        [sorted(q.pending.tolist()) for q in queues],
        [sorted(v for v in q.outstanding.tolist() if v > clock) for q in queues],
        [
            (q.pushed, q.total_enqueued, q.total_stall_cycles, q.peak_occupancy)
            for q in queues
        ],
        [getattr(engine, name) for name in _STATS],
    )


def _assert_sorted_pools(engine: BatchedEngine, context) -> None:
    for queue in (engine.read_queue, engine.write_queue):
        for pool in (queue.pending, queue.outstanding):
            assert pool.dtype == np.int64, context
            assert (pool[1:] >= pool[:-1]).all(), (context, queue.name)


def test_every_hand_off_leaves_the_scalar_loops_state(monkeypatch):
    paths: Counter[str] = Counter()
    single_stream = BatchedEngine._process_single_stream
    scalar = BatchedEngine._process_scalar
    vector = engine_grid.resolve_vector_pass

    def count_single_stream(self, *args):
        result = single_stream(self, *args)
        if result is not None and self.single_stream_fast_path:
            paths["single_stream"] += 1
        return result

    def count_scalar(self, *args):
        if self.vector_threshold < 10**9:
            paths["scalar"] += 1
        return scalar(self, *args)

    def count_vector(*args):
        paths["vector"] += 1
        return vector(*args)

    monkeypatch.setattr(BatchedEngine, "_process_single_stream", count_single_stream)
    monkeypatch.setattr(BatchedEngine, "_process_scalar", count_scalar)
    monkeypatch.setattr(engine_grid, "resolve_vector_pass", count_vector)

    for trial in range(24):
        rng = random.Random(91_000 + 13 * trial)
        config = _random_config(rng)
        mixed = GridBatchedEngine([config])
        twin = GridBatchedEngine([config])
        [engine], [spec] = mixed.engines, twin.engines
        spec.vector_threshold = 10**9
        spec.single_stream_fast_path = False
        ready = 0
        for step in range(32):
            batch = _random_batch(rng, config.dram.read_queue_entries)
            # After the last read mostly (the single-stream path's
            # regime), sometimes before it or behind the issue clock.
            cycle = max(0, ready + rng.choice((0, 0, 5, 400, -40, -10**6)))
            context = (trial, step)
            [got] = mixed.process_batch(batch, [cycle])
            [want] = twin.process_batch(batch, [cycle])
            assert got == want, context
            assert _state(engine) == _state(spec), context
            _assert_sorted_pools(engine, context)
            ready = want.ready_cycle
        stats = dataclasses.astuple(engine.aggregate_stats())
        assert stats == dataclasses.astuple(spec.aggregate_stats()), trial
        assert all(v is None or type(v) is int for v in stats), stats
        assert type(engine.drain()) is int and engine.drain() == spec.drain(), trial
    assert min(paths[name] for name in ("single_stream", "scalar", "vector")) >= 40, paths
