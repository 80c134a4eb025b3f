"""Randomized cross-engine equivalence: BatchedEngine == ReferenceEngine.

The batched engine's vector passes must be *bit-exact* to the scalar
reference — the correctness bar every shipped benchmark CSV rests on.
This fuzz drives both engines with identical randomized traffic
(operand mixes, read/write splits, queue depths small enough to
saturate, channel counts, address mappings, technologies, issue rates)
and asserts identical completion cycles, DRAM statistics and queue
statistics, across the scalar fast path, the vector path, and the
mixed regime.
"""

import random

import pytest

from repro.core.compute_sim import TileFetch
from repro.dram.backend import DramBackend
from repro.dram.dram_sim import RamulatorLite
from repro.dram.engine import ReferenceEngine

MAPPINGS = ("ro_ba_ra_co_ch", "ro_ba_ra_ch_co", "ro_co_ra_ba_ch", "ch_ro_ba_ra_co")
TECHNOLOGIES = ("ddr3", "ddr4", "lpddr4", "gddr5", "hbm", "hbm2", "wio2")
OPERANDS = ("ifmap", "filter", "ofmap")


def _reference_backend(
    dram: RamulatorLite,
    read_queue_entries: int = 128,
    write_queue_entries: int = 128,
    word_bytes: int = 2,
    max_issue_per_cycle: int = 1,
) -> DramBackend:
    """A :class:`DramBackend` around the scalar :class:`ReferenceEngine`."""
    engine = ReferenceEngine(
        dram,
        read_queue_entries=read_queue_entries,
        write_queue_entries=write_queue_entries,
        max_issue_per_cycle=max_issue_per_cycle,
    )
    return DramBackend(
        dram, word_bytes=word_bytes, max_issue_per_cycle=max_issue_per_cycle, engine=engine
    )


def _random_backend_pair(rng: random.Random, force_path: int):
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
        max_issue_per_cycle=rng.choice((1, 2, 4, 7)),
    )
    reference = _reference_backend(RamulatorLite(**dram_kwargs), **queue_kwargs)
    batched = DramBackend(RamulatorLite(**dram_kwargs), **queue_kwargs)
    # 0: everything vectorized, 1: mixed, 2: everything scalar.
    batched.engine.vector_threshold = (1, 40, 10**9)[force_path]
    return reference, batched


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
            max_issue_per_cycle=rng.choice((1, 2, 4)),
        )
        reference = _reference_backend(RamulatorLite(**dram_kwargs), **queue_kwargs)
        batched = DramBackend(RamulatorLite(**dram_kwargs), **queue_kwargs)
        assert batched.engine.single_stream_fast_path
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
            backend = DramBackend(RamulatorLite(technology="ddr4", channels=1))
            backend.engine.single_stream_fast_path = enabled
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
        dram_kwargs = dict(channels=rng.choice((1, 2)), technology="ddr4")
        queue_kwargs = dict(
            read_queue_entries=rng.choice((1, 2, 4)),
            write_queue_entries=rng.choice((1, 2)),
            max_issue_per_cycle=4,
        )
        pair = [
            _reference_backend(RamulatorLite(**dram_kwargs), **queue_kwargs),
            DramBackend(RamulatorLite(**dram_kwargs), **queue_kwargs),
        ]
        pair[1].engine.vector_threshold = 1
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
    from repro.config.system import ArchitectureConfig, DramConfig, SystemConfig
    from repro.core.simulator import Simulator, resolve_plan
    from repro.dram.backend import make_ramulator
    from repro.topology.models import resnet18

    topology = resnet18(scale=16).first_layers(4)
    base = SystemConfig(
        arch=ArchitectureConfig(dataflow="ws", ifmap_sram_kb=32, filter_sram_kb=32,
                                ofmap_sram_kb=32),
        dram=DramConfig(enabled=True, channels=2, read_queue_entries=16,
                        write_queue_entries=16),
    )
    reference = _reference_backend(
        make_ramulator(base.dram),
        read_queue_entries=base.dram.read_queue_entries,
        write_queue_entries=base.dram.write_queue_entries,
        word_bytes=base.arch.word_bytes,
        max_issue_per_cycle=base.dram.issue_per_cycle,
    )
    ref = resolve_plan(Simulator(base).plan(topology), reference, base.run.run_name)
    bat = Simulator(base).run(topology)
    assert ref.total_cycles == bat.total_cycles
    assert ref.dram_stats == bat.dram_stats
    for layer_ref, layer_bat in zip(ref.layers, bat.layers):
        assert layer_ref.timeline.total_cycles == layer_bat.timeline.total_cycles
        assert layer_ref.backpressure_stall_cycles == layer_bat.backpressure_stall_cycles
        assert layer_ref.drain_cycles == layer_bat.drain_cycles
