"""Grid-engine equivalence: one config-batched pass == the reference.

:func:`repro.dram.engine_grid.resolve_plan_grid` resolves every
batched-engine DRAM config of a grid in one vectorized pass per line
batch (queue/bank/channel state carries a leading config axis).  Its
results must be *bit-exact* to one ``Simulator.run`` per config on the
scalar ``reference`` engine — same timelines, same backpressure/drain
accounting, same DRAM statistics — across mixed technologies, queue
depths, channel and bank counts, address mappings and issue rates,
including degenerate 1-config grids.  The per-config side runs the
executable spec, not a solo ``BatchedEngine``: a lone batched engine
resolves its vector batches through the very same pass, so comparing
against it would check nothing.

The smoke test is deliberately sub-second and non-``slow`` so the fast
tier-1 lane exercises the grid engine on every run, not just the fuzz.
"""

import random

import pytest
from test_dram_fanout_equivalence import (
    MAPPINGS,
    TECHNOLOGIES,
    _assert_results_equal,
    _random_arch,
    _random_grid,
    _random_topology,
    _reference_runs,
)

from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.simulator import Simulator
from repro.dram.backend import make_ramulator
from repro.dram.engine import LineRequestBatch, LineStream, ReferenceEngine
from repro.dram.engine_batched import BatchedEngine
from repro.dram.engine_grid import GridBatchedEngine, resolve_plan_grid
from repro.dram.fanout import _build_line_batches, _grid_groups
from repro.topology.layer import ConvLayer
from repro.topology.topology import Topology


def _batched_grid(rng: random.Random, arch: ArchitectureConfig):
    """A random grid filtered to the configs one grid pass would cover."""
    grid = _random_grid(rng, arch)
    word = arch.word_bytes
    return [
        config
        for config in grid
        if config.dram.enabled
        and config.dram.engine == "batched"
        and config.arch.word_bytes == word
    ]


def test_two_config_grid_smoke():
    """Fast lane: a 2-config channel grid is bit-equal to two reference runs."""
    topology = Topology(
        "smoke",
        [
            ConvLayer(
                "conv",
                ifmap_h=14,
                ifmap_w=14,
                filter_h=3,
                filter_w=3,
                channels=4,
                num_filters=8,
            )
        ],
    )
    arch = ArchitectureConfig(array_rows=8, array_cols=8, dataflow="ws")
    configs = [
        SystemConfig(
            arch=arch,
            dram=DramConfig(enabled=True, technology="ddr4", channels=channels),
            run=RunConfig(run_name=f"smoke_ch{channels}"),
        )
        for channels in (1, 2)
    ]
    independent = _reference_runs(configs, topology)
    plan = Simulator(configs[0]).plan(topology)
    batches = _build_line_batches(plan, arch.word_bytes)
    grid = resolve_plan_grid(plan, configs, batches)
    _assert_results_equal(grid, independent, "smoke")
    for solo, batched in zip(independent, grid):
        assert batched.dram_stats == solo.dram_stats
        for solo_layer, grid_layer in zip(solo.layers, batched.layers):
            assert grid_layer.timeline == solo_layer.timeline


def test_randomized_grids_are_bit_exact():
    checked = 0
    for trial in range(16):
        rng = random.Random(52_000 + 19 * trial)
        topology = _random_topology(rng)
        arch = _random_arch(rng)
        configs = _batched_grid(rng, arch)
        if len(configs) < 2:
            continue
        independent = _reference_runs(configs, topology)
        plan = Simulator(configs[0]).plan(topology)
        batches = _build_line_batches(plan, arch.word_bytes)
        grid = resolve_plan_grid(plan, configs, batches)
        _assert_results_equal(grid, independent, trial)
        checked += 1
    assert checked >= 4


def test_forced_vector_dispatch_is_bit_exact(monkeypatch):
    """Drive the grid *vector* path on small batches.

    The natural dispatch sends small fuzz batches down the per-config
    scalar fallback; lowering the threshold and disabling the
    single-stream fast path forces the config-batched pass itself —
    the code under test — onto the same traffic.
    """
    monkeypatch.setattr(BatchedEngine, "vector_threshold", 8)
    monkeypatch.setattr(BatchedEngine, "single_stream_fast_path", False)
    checked = 0
    for trial in range(8):
        rng = random.Random(64_000 + 23 * trial)
        topology = _random_topology(rng)
        arch = _random_arch(rng)
        configs = _batched_grid(rng, arch)
        if len(configs) < 2:
            continue
        independent = _reference_runs(configs, topology)
        plan = Simulator(configs[0]).plan(topology)
        batches = _build_line_batches(plan, arch.word_bytes)
        grid = resolve_plan_grid(plan, configs, batches)
        _assert_results_equal(grid, independent, trial)
        checked += 1
    assert checked >= 3


def test_degenerate_single_config_grid():
    """A 1-config grid is legal and identical to the reference run."""
    rng = random.Random(71)
    topology = _random_topology(rng)
    arch = _random_arch(rng)
    config = SystemConfig(
        arch=arch,
        dram=DramConfig(enabled=True, technology="ddr4", channels=2),
        run=RunConfig(run_name="solo"),
    )
    [solo] = _reference_runs([config], topology)
    plan = Simulator(config).plan(topology)
    batches = _build_line_batches(plan, arch.word_bytes)
    [grid] = resolve_plan_grid(plan, [config], batches)
    assert grid == solo


def test_grid_groups_select_only_shared_batched_configs():
    """Only word sizes with >= 2 batched DRAM configs form grid groups."""
    arch = ArchitectureConfig(array_rows=8, array_cols=8, dataflow="ws")
    batched = lambda name, **kwargs: SystemConfig(  # noqa: E731
        arch=arch,
        dram=DramConfig(enabled=True, technology="ddr4", **kwargs),
        run=RunConfig(run_name=name),
    )
    configs = [
        batched("a", channels=1),
        batched("b", channels=2),
        batched("c", channels=4, engine="reference"),
        SystemConfig(arch=arch, dram=DramConfig(enabled=False)),
    ]
    groups = _grid_groups(configs)
    assert groups == {arch.word_bytes: [0, 1]}
    # Drop one batched member: the lone survivor gains nothing from the
    # config axis, so no group forms at all.
    assert _grid_groups(configs[1:]) == {}


def _random_line_batch(rng: random.Random) -> LineRequestBatch:
    """Interleaved read/write streams scattered over many rows and banks."""
    return LineRequestBatch(
        streams=tuple(
            LineStream(
                rng.randrange(0, 1 << 22), rng.randint(1, 400), rng.random() < 0.5
            )
            for _ in range(rng.randint(1, 4))
        )
    )


@pytest.mark.parametrize("channels", ((1,), (1, 2, 4)), ids=("one-channel", "mixed"))
def test_vector_pass_lanes_match_reference(monkeypatch, channels):
    """Every lane of the shared vector pass, engine-level, vs the spec.

    Line batches go straight into a :class:`GridBatchedEngine` (vector
    threshold 1, fast paths off) and into one :class:`ReferenceEngine`
    per config.  Tiny queues make in-block completions undercut later
    constraints, forcing the speculation repairs: prefix commits in the
    uniform rectangle lane (shared queue depths) and truncate-all
    retries in the ragged lane (mixed depths).  Mixed technologies and
    issue rates force the per-config timing gathers; all-1-channel
    grids take the row-wise bus scan.  Grids of one config are the lone
    ``BatchedEngine`` case.
    """
    monkeypatch.setattr(BatchedEngine, "vector_threshold", 1)
    monkeypatch.setattr(BatchedEngine, "single_stream_fast_path", False)
    for trial in range(12):
        rng = random.Random(88_026 + 13 * trial + len(channels))
        shared_queues = (rng.choice((2, 3, 4, 8)), rng.choice((2, 3, 5)))
        shared_timing = rng.random() < 0.3
        configs = []
        for index in range(rng.randint(1, 4)):
            read_q, write_q = (
                shared_queues
                if trial % 2
                else (rng.choice((2, 3, 4, 8)), rng.choice((2, 3, 5)))
            )
            configs.append(
                SystemConfig(
                    dram=DramConfig(
                        enabled=True,
                        technology=(
                            "ddr4" if shared_timing else rng.choice(TECHNOLOGIES)
                        ),
                        channels=rng.choice(channels),
                        ranks_per_channel=rng.choice((1, 2)),
                        banks_per_rank=rng.choice((2, 4, 16)),
                        read_queue_entries=read_q,
                        write_queue_entries=write_q,
                        address_mapping=rng.choice(MAPPINGS),
                        issue_per_cycle=(
                            4 if shared_timing else rng.choice((1, 2, 3, 4))
                        ),
                    ),
                    run=RunConfig(run_name=f"lane_{index}"),
                )
            )
        grid = GridBatchedEngine(configs)
        references = [
            ReferenceEngine(
                make_ramulator(config.dram),
                read_queue_entries=config.dram.read_queue_entries,
                write_queue_entries=config.dram.write_queue_entries,
                max_issue_per_cycle=config.dram.issue_per_cycle,
            )
            for config in configs
        ]
        cycles = [0] * len(configs)
        for batch_index in range(rng.randint(2, 6)):
            batch = _random_line_batch(rng)
            issue = [cycle + rng.randrange(0, 3_000) for cycle in cycles]
            want = [ref.process_batch(batch, c) for ref, c in zip(references, issue)]
            assert grid.process_batch(batch, issue) == want, (trial, batch_index)
            cycles = [result.ready_cycle for result in want]
        for engine, ref in zip(grid.engines, references):
            assert engine.aggregate_stats() == ref.aggregate_stats(), trial
            assert engine.drain() == ref.drain(), trial
            for got, spec in (
                (engine.read_queue, ref.read_queue),
                (engine.write_queue, ref.write_queue),
            ):
                assert got.total_enqueued == spec.total_enqueued, trial
                assert got.total_stall_cycles == spec.total_stall_cycles, trial
                assert got.peak_occupancy == spec.peak_occupancy, trial
