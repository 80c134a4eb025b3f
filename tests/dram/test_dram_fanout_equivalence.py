"""Randomized DRAM fan-out equivalence: grouped == independent.

``simulate_many_dram`` must be *bit-exact* to one ``Simulator.run`` per
config — same timelines, same backpressure/drain accounting, same DRAM
statistics — across mixed grids of channel counts, queue depths,
technologies, address mappings, issue rates and word sizes (configs
sharing a word size share one line stream), with DRAM-disabled
ideal-bandwidth points mixed in, serially and split over a sweep's
worker pool.  DRAM configs sharing a word size resolve through one
config-batched ``GridBatchedEngine`` pass (see
``tests/dram/test_grid_engine_equivalence.py`` for the engine-level
fuzz); a lone word size resolves as a one-config grid and disabled
points in closed form, so all three are exercised side by side.  The
independent runs use the scalar ``ReferenceEngine``, the executable
spec.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.simulator import Simulator, clear_compute_plan_cache, resolve_plan
from repro.dram.backend import DramBackend, make_ramulator
from repro.dram.engine import ReferenceEngine
from repro.dram.fanout import simulate_many_dram
from repro.errors import DramError
from repro.run.sweep import Axis, SweepRunner, SweepSpec
from repro.topology.layer import ConvLayer, GemmLayer
from repro.topology.topology import Topology

MAPPINGS = ("ro_ba_ra_co_ch", "ro_ba_ra_ch_co", "ro_co_ra_ba_ch", "ch_ro_ba_ra_co")
TECHNOLOGIES = ("ddr3", "ddr4", "lpddr4", "gddr5", "hbm2")


def _random_topology(rng: random.Random) -> Topology:
    layers = []
    for index in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            fh, fw = rng.randint(1, 3), rng.randint(1, 3)
            layers.append(
                ConvLayer(
                    f"conv{index}",
                    ifmap_h=fh + rng.randint(2, 14),
                    ifmap_w=fw + rng.randint(2, 14),
                    filter_h=fh,
                    filter_w=fw,
                    channels=rng.randint(1, 8),
                    num_filters=rng.randint(1, 24),
                    stride_h=rng.randint(1, 2),
                    stride_w=rng.randint(1, 2),
                )
            )
        else:
            layers.append(
                GemmLayer(
                    f"gemm{index}",
                    m=rng.randint(1, 48),
                    n=rng.randint(1, 48),
                    k=rng.randint(1, 48),
                )
            )
    return Topology(f"fuzz_{rng.randrange(10**6)}", layers)


def _random_arch(rng: random.Random) -> ArchitectureConfig:
    size = rng.choice((4, 8, 16))
    return ArchitectureConfig(
        array_rows=size,
        array_cols=size,
        dataflow=rng.choice(("os", "ws", "is")),
        ifmap_sram_kb=rng.choice((1, 2, 64)),
        filter_sram_kb=rng.choice((1, 2, 64)),
        ofmap_sram_kb=rng.choice((1, 2, 64)),
        word_bytes=2,
    )


def _word_size_variant(arch: ArchitectureConfig, word_bytes: int) -> ArchitectureConfig:
    """Change the word size while keeping the SRAM *word* capacity fixed.

    Scaling the kilobyte knobs with ``word_bytes`` keeps the fold
    schedule (and hence the plan signature) identical, while the
    fetch-to-line chop — the line stream — changes.
    """
    scale = word_bytes // arch.word_bytes
    return dataclasses.replace(
        arch,
        word_bytes=word_bytes,
        ifmap_sram_kb=arch.ifmap_sram_kb * scale,
        filter_sram_kb=arch.filter_sram_kb * scale,
        ofmap_sram_kb=arch.ofmap_sram_kb * scale,
    )


def _random_grid(rng: random.Random, arch: ArchitectureConfig) -> list[SystemConfig]:
    configs = []
    for index in range(rng.randint(2, 6)):
        point_arch = arch
        if rng.random() < 0.25:
            point_arch = _word_size_variant(arch, rng.choice((4, 8)))
        if rng.random() < 0.15:
            dram = DramConfig(enabled=False)
        else:
            dram = DramConfig(
                enabled=True,
                technology=rng.choice(TECHNOLOGIES),
                channels=rng.choice((1, 1, 2, 4)),
                ranks_per_channel=rng.choice((1, 2)),
                banks_per_rank=rng.choice((2, 4, 16)),
                read_queue_entries=rng.choice((1, 4, 16, 128)),
                write_queue_entries=rng.choice((2, 8, 128)),
                address_mapping=rng.choice(MAPPINGS),
                issue_per_cycle=rng.choice((1, 2, 4)),
            )
            rng.randrange(2)  # spare draw (the retired engine choice): seeds keep their grids
        configs.append(
            SystemConfig(
                arch=point_arch,
                dram=dram,
                run=RunConfig(run_name=f"grid_{index}"),
            )
        )
    return configs


def _reference_run(config, topology):
    """``Simulator(config).run(topology)`` with DRAM on the scalar reference engine."""
    if not config.dram.enabled:
        return Simulator(config).run(topology)
    dram = make_ramulator(config.dram)
    engine = ReferenceEngine(
        dram,
        read_queue_entries=config.dram.read_queue_entries,
        write_queue_entries=config.dram.write_queue_entries,
        max_issue_per_cycle=config.dram.issue_per_cycle,
    )
    backend = DramBackend(dram, word_bytes=config.arch.word_bytes, engine=engine)
    return resolve_plan(Simulator(config).plan(topology), backend, config.run.run_name)


def _reference_runs(configs, topology):
    """One reference-engine run per config."""
    return [_reference_run(config, topology) for config in configs]


def _assert_results_equal(fanout, independent, context):
    assert len(fanout) == len(independent), context
    for grouped, solo in zip(fanout, independent):
        assert grouped == solo, (context, solo.run_name)


def _grid_sizes(configs) -> list[int]:
    """DRAM configs per word size: the width of each ``GridBatchedEngine``."""
    return list(Counter(c.arch.word_bytes for c in configs if c.dram.enabled).values())


def test_randomized_grids_are_bit_exact():
    lone = 0
    for trial in range(12):
        rng = random.Random(9_100 + 17 * trial)
        topology = _random_topology(rng)
        arch = _random_arch(rng)
        configs = _random_grid(rng, arch)
        plan = Simulator(configs[0]).plan(topology)
        fanout = simulate_many_dram(plan, configs)
        independent = _reference_runs(configs, topology)
        _assert_results_equal(fanout, independent, trial)
        lone += 1 in _grid_sizes(configs)
    # A DRAM config alone at its word size runs as a one-config grid,
    # and at least one trial checks such a config against the spec.
    assert lone >= 1


def test_lone_dram_config_takes_the_grid_walk(monkeypatch):
    """A lone DRAM config resolves through ``GridBatchedEngine``, not per fold.

    Holds for a lone word size inside ``simulate_many_dram`` and for
    ``Simulator(config).run``; the per-config ``BatchedEngine`` entry
    point and the per-fold ``DoubleBufferMemory`` walk see no call.
    """
    from repro.dram.engine_batched import BatchedEngine
    from repro.dram.engine_grid import GridBatchedEngine
    from repro.memory.double_buffer import DoubleBufferMemory

    widths: list[int] = []
    grid_batch = GridBatchedEngine.process_batch

    def spy(self, batch, issue_cycles):
        widths.append(len(self.engines))
        return grid_batch(self, batch, issue_cycles)

    def forbidden(*args, **kwargs):
        raise AssertionError("a DRAM run left the grid walk")

    rng = random.Random(11)
    topology = _random_topology(rng)
    arch = _random_arch(rng)
    dram = DramConfig(enabled=True, technology="ddr4", channels=2)
    configs = [
        SystemConfig(arch=arch, dram=dram, run=RunConfig(run_name="shared_a")),
        SystemConfig(
            arch=arch,
            dram=dataclasses.replace(dram, channels=1),
            run=RunConfig(run_name="shared_b"),
        ),
        SystemConfig(
            arch=_word_size_variant(arch, 4), dram=dram, run=RunConfig(run_name="lone")
        ),
    ]
    independent = _reference_runs(configs, topology)
    monkeypatch.setattr(GridBatchedEngine, "process_batch", spy)
    monkeypatch.setattr(BatchedEngine, "process_batch", forbidden)
    monkeypatch.setattr(DoubleBufferMemory, "run", forbidden)

    plan = Simulator(configs[0]).plan(topology)
    fanout = simulate_many_dram(plan, configs)
    _assert_results_equal(fanout, independent, "lone word size")
    assert sorted(set(widths)) == [1, 2]

    widths.clear()
    assert Simulator(configs[2]).run(topology) == independent[2]
    assert widths and set(widths) == {1}


def test_grid_engaged_fanout_matches_independent():
    """Trials where the config-batched grid pass actually engages stay exact.

    ``test_randomized_grids_are_bit_exact`` draws grids where the grid
    engine may or may not form a group; this variant keeps only trials
    with at least one multi-config group, so the grid path inside
    ``simulate_many_dram`` is provably on the line being compared.  The
    independent runs use the scalar reference engine: a solo batched
    engine resolves its vector batches through the same pass as the
    grid, so only the spec can catch a defect in that pass.
    """
    engaged = 0
    for trial in range(14):
        rng = random.Random(23_500 + 11 * trial)
        topology = _random_topology(rng)
        arch = _random_arch(rng)
        configs = _random_grid(rng, arch)
        if max(_grid_sizes(configs), default=0) < 2:
            continue
        plan = Simulator(configs[0]).plan(topology)
        fanout = simulate_many_dram(plan, configs)
        independent = _reference_runs(configs, topology)
        _assert_results_equal(fanout, independent, ("grid", trial))
        engaged += 1
    assert engaged >= 4


def test_parallel_fanout_matches_serial():
    """A split ``dram.*`` sweep unit == the serial unit == independent runs.

    ``SweepRunner(workers=2)`` deals the lone fan-out unit's memory
    configs over two sub-units; each re-plans and resolves its share.
    """
    rng = random.Random(515)
    topology = _random_topology(rng)
    arch = _random_arch(rng)
    base = SystemConfig(
        arch=arch,
        dram=DramConfig(
            enabled=True,
            technology=rng.choice(TECHNOLOGIES),
            address_mapping=rng.choice(MAPPINGS),
            issue_per_cycle=rng.choice((1, 2, 4)),
        ),
        run=RunConfig(run_name="split"),
    )
    spec = SweepSpec(
        base=base,
        axes=[
            Axis("dram.enabled", (True, False)),
            Axis("dram.channels", tuple(rng.sample((1, 2, 4), 2))),
            Axis("dram.read_queue_entries", tuple(rng.sample((1, 4, 16, 128), 2))),
        ],
        topologies=[topology],
        name="split",
    )
    serial = SweepRunner(workers=1).run(spec)
    runner = SweepRunner(workers=2)
    parallel = runner.run(spec)
    assert tuple(runner.last_grouping) == (spec.num_points, 2)
    _assert_results_equal(
        [r.run_result for r in parallel], [r.run_result for r in serial], "workers=2"
    )
    for result in parallel:
        solo = _reference_run(result.config, topology)
        assert result.total_cycles == solo.total_cycles, result.config.run.run_name
        assert result.run_result.dram_stats == solo.dram_stats
        assert [layer.timeline for layer in result.run_result.layers] == [
            layer.timeline for layer in solo.layers
        ]


def test_memoized_plans_do_not_leak_across_architectures():
    """The per-process plan cache keys on every schedule-relevant knob."""
    clear_compute_plan_cache()
    rng = random.Random(77)
    topology = _random_topology(rng)
    small = SystemConfig(
        arch=ArchitectureConfig(array_rows=4, array_cols=4, dataflow="ws"),
        dram=DramConfig(enabled=True),
    )
    large = SystemConfig(
        arch=ArchitectureConfig(array_rows=16, array_cols=16, dataflow="ws"),
        dram=DramConfig(enabled=True),
    )
    first = Simulator(small).run(topology)
    second = Simulator(large).run(topology)
    assert first.total_compute_cycles != second.total_compute_cycles
    # Re-running either config reproduces its own result exactly.
    assert Simulator(small).run(topology) == first
    assert Simulator(large).run(topology) == second


def test_signature_mismatch_rejected():
    rng = random.Random(3)
    topology = _random_topology(rng)
    arch = _random_arch(rng)
    config = SystemConfig(arch=arch, dram=DramConfig(enabled=True))
    plan = Simulator(config).plan(topology)
    other = SystemConfig(
        arch=dataclasses.replace(arch, array_rows=arch.array_rows * 2),
        dram=DramConfig(enabled=True),
    )
    with pytest.raises(DramError):
        simulate_many_dram(plan, [config, other])


def test_empty_grid_is_empty():
    rng = random.Random(4)
    topology = _random_topology(rng)
    config = SystemConfig(arch=_random_arch(rng))
    plan = Simulator(config).plan(topology)
    assert simulate_many_dram(plan, []) == []
