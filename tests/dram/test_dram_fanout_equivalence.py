"""Randomized DRAM fan-out equivalence: grouped == independent.

``simulate_many_dram`` must be *bit-exact* to one ``Simulator.run`` per
config — same timelines, same backpressure/drain accounting, same DRAM
statistics — across mixed grids of engines, channel counts, queue
depths, technologies, address mappings, issue rates and word sizes
(configs sharing a word size share one decoded line stream), with
DRAM-disabled ideal-bandwidth points mixed in, serially and across a
worker pool.  Batched-engine configs sharing a word size resolve
through one config-batched ``GridBatchedEngine`` pass (see
``tests/dram/test_grid_engine_equivalence.py`` for the engine-level
fuzz); the grids here mix in reference engines and disabled points so
the grouped and per-config paths are exercised side by side.
"""

import dataclasses
import random

import pytest

from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.simulator import Simulator, clear_compute_plan_cache
from repro.dram.fanout import simulate_many_dram
from repro.errors import DramError
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
    fetch-to-line chop — the decoded line stream — changes.
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
                engine=rng.choice(("reference", "batched")),
            )
        configs.append(
            SystemConfig(
                arch=point_arch,
                dram=dram,
                run=RunConfig(run_name=f"grid_{index}"),
            )
        )
    return configs


def _reference_runs(configs, topology):
    """One ``Simulator.run`` per config on the scalar reference engine."""
    return [
        Simulator(
            config.replace(dram=dataclasses.replace(config.dram, engine="reference"))
        ).run(topology)
        for config in configs
    ]


def _assert_results_equal(fanout, independent, context):
    assert len(fanout) == len(independent), context
    for grouped, solo in zip(fanout, independent):
        assert grouped == solo, (context, solo.run_name)


def test_randomized_grids_are_bit_exact():
    for trial in range(12):
        rng = random.Random(9_100 + 17 * trial)
        topology = _random_topology(rng)
        arch = _random_arch(rng)
        configs = _random_grid(rng, arch)
        plan = Simulator(configs[0]).plan(topology)
        fanout = simulate_many_dram(plan, configs)
        independent = [Simulator(config).run(topology) for config in configs]
        _assert_results_equal(fanout, independent, trial)


def test_grid_engaged_fanout_matches_independent():
    """Trials where the config-batched grid pass actually engages stay exact.

    ``test_randomized_grids_are_bit_exact`` draws grids where the grid
    engine may or may not form a group; this variant keeps only trials
    with at least one multi-config group, so the grid path inside
    ``simulate_many_dram`` is provably on the line being compared.  The
    independent runs use the scalar ``reference`` engine: a solo batched
    engine resolves its vector batches through the same pass as the
    grid, so only the spec can catch a defect in that pass.
    """
    from repro.dram.fanout import _grid_groups

    engaged = 0
    for trial in range(14):
        rng = random.Random(23_500 + 11 * trial)
        topology = _random_topology(rng)
        arch = _random_arch(rng)
        configs = _random_grid(rng, arch)
        groups = _grid_groups(configs)
        if not groups:
            continue
        plan = Simulator(configs[0]).plan(topology)
        fanout = simulate_many_dram(plan, configs)
        independent = _reference_runs(configs, topology)
        _assert_results_equal(fanout, independent, ("grid", trial))
        engaged += 1
    assert engaged >= 4


def test_parallel_fanout_matches_serial():
    rng = random.Random(515)
    topology = _random_topology(rng)
    arch = _random_arch(rng)
    configs = _random_grid(rng, arch)
    plan = Simulator(configs[0]).plan(topology)
    serial = simulate_many_dram(plan, configs, workers=1)
    parallel = simulate_many_dram(plan, configs, workers=2)
    _assert_results_equal(parallel, serial, "workers=2")
    independent = [Simulator(config).run(topology) for config in configs]
    _assert_results_equal(parallel, independent, "workers=2 vs independent")


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


def test_store_backed_fanout_is_bit_exact_cold_and_warm(tmp_path):
    """Randomized grids through an artifact store: cold populates, warm serves.

    Both passes must stay bit-exact to independent per-config runs —
    the store may change *where* the decoded line streams come from,
    never what they contain.
    """
    from repro.store.artifact_store import ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    for trial in range(6):
        rng = random.Random(41_000 + 13 * trial)
        topology = _random_topology(rng)
        arch = _random_arch(rng)
        configs = _random_grid(rng, arch)
        plan = Simulator(configs[0]).plan(topology)
        independent = [Simulator(config).run(topology) for config in configs]
        cold = simulate_many_dram(plan, configs, store=store)
        _assert_results_equal(cold, independent, ("cold", trial))
        warm = simulate_many_dram(plan, configs, store=store)
        _assert_results_equal(warm, independent, ("warm", trial))
    # The warm passes actually hit: every line-batch artifact the cold
    # passes persisted was served back at least once.
    assert store.hits > 0
    assert store.hits >= store.misses


def test_store_backed_fanout_matches_active_store_seam(tmp_path):
    """Explicit ``store=`` and the installed active store agree."""
    from repro.store.artifact_store import ArtifactStore, set_active_store

    rng = random.Random(606)
    topology = _random_topology(rng)
    arch = _random_arch(rng)
    configs = _random_grid(rng, arch)
    plan = Simulator(configs[0]).plan(topology)
    reference = simulate_many_dram(plan, configs)

    explicit_store = ArtifactStore(tmp_path / "explicit")
    explicit = simulate_many_dram(plan, configs, store=explicit_store)
    _assert_results_equal(explicit, reference, "explicit store")

    active = ArtifactStore(tmp_path / "active")
    previous = set_active_store(active)
    try:
        ambient = simulate_many_dram(plan, configs)
    finally:
        set_active_store(previous)
    _assert_results_equal(ambient, reference, "active store")
    assert active.misses > 0 or not any(c.dram.enabled for c in configs)
