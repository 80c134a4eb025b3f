"""The grid walk's layer memo: repeated layers close exactly.

:func:`repro.dram.engine_grid.resolve_plan_grid` closes a layer whose
fold schedule recurs in the plan from an earlier walk of that schedule
when a config's clamped start state matches.  The DRAM fuzzes elsewhere
draw topologies whose layers rarely repeat, so they barely reach the
memo.  Here every topology repeats layers 2-4 times, interleaved with
others, and tiny queues (2-8 entries) make the vector pass's prefix
cuts fire; each grid runs through ``simulate_many_dram`` and must equal
one scalar ``ReferenceEngine`` run per config, queue counters included.
Spies on the memo require that both hits and misses occur, and a spy on
the vector pass's stages that the cuts fire under the forced vector
dispatch (the natural one keeps these small batches off the vector pass).
"""

import copy
import dataclasses
import random

import numpy as np
import pytest
from test_dram_fanout_equivalence import MAPPINGS, TECHNOLOGIES, _random_arch
from test_grid_engine_equivalence import StageSpy

import repro.dram.engine_grid as engine_grid
from repro.config.presets import get_preset
from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.simulator import Simulator, resolve_plan
from repro.dram import fanout
from repro.dram.backend import DramBackend, make_ramulator
from repro.dram.engine import ReferenceEngine
from repro.dram.engine_batched import BatchedEngine
from repro.dram.engine_grid import GridBatchedEngine
from repro.dram.fanout import simulate_many_dram
from repro.topology.layer import ConvLayer, GemmLayer
from repro.topology.models import get_model
from repro.topology.topology import Topology


def _random_layer(rng: random.Random, name: str):
    if rng.random() < 0.5:
        fh, fw = rng.randint(1, 3), rng.randint(1, 3)
        return ConvLayer(
            name,
            ifmap_h=fh + rng.randint(2, 12),
            ifmap_w=fw + rng.randint(2, 12),
            filter_h=fh,
            filter_w=fw,
            channels=rng.randint(1, 6),
            num_filters=rng.randint(1, 16),
            stride_h=rng.randint(1, 2),
            stride_w=rng.randint(1, 2),
        )
    return GemmLayer(
        name, m=rng.randint(1, 40), n=rng.randint(1, 40), k=rng.randint(1, 40)
    )


def _repeating_topology(rng: random.Random) -> Topology:
    """A block of 1-3 layers repeated 2-4 times, one-off layers between blocks."""
    block = [_random_layer(rng, f"b{index}") for index in range(rng.randint(1, 3))]
    layers = []
    if rng.random() < 0.5:
        layers.append(_random_layer(rng, "head"))
    for repeat in range(rng.randint(2, 4)):
        layers += [dataclasses.replace(layer, name=f"{layer.name}_{repeat}") for layer in block]
        if rng.random() < 0.4:
            layers.append(_random_layer(rng, f"mid{repeat}"))
    return Topology(f"memo_{rng.randrange(10**6)}", layers)


def _random_grid(rng: random.Random, arch) -> list[SystemConfig]:
    return [
        SystemConfig(
            arch=arch,
            dram=DramConfig(
                enabled=True,
                technology=rng.choice(TECHNOLOGIES),
                channels=rng.choice((1, 2, 4, 8)),
                ranks_per_channel=rng.choice((1, 2)),
                banks_per_rank=rng.choice((2, 4, 16)),
                # Mostly tiny queues; a deep one may still be filling
                # when a layer repeats.
                read_queue_entries=rng.choice((2, 3, 4, 5, 6, 7, 8, 64)),
                write_queue_entries=rng.choice((2, 3, 4, 5, 6, 7, 8, 64)),
                address_mapping=rng.choice(MAPPINGS),
                issue_per_cycle=rng.choice((1, 2, 4)),
            ),
            run=RunConfig(run_name=f"memo_{index}"),
        )
        for index in range(rng.randint(2, 5))
    ]


def _reference(config, topology):
    """The scalar spec's run of ``config`` and its engine."""
    engine = ReferenceEngine(
        make_ramulator(config.dram),
        read_queue_entries=config.dram.read_queue_entries,
        write_queue_entries=config.dram.write_queue_entries,
        max_issue_per_cycle=config.dram.issue_per_cycle,
    )
    backend = DramBackend(engine, word_bytes=config.arch.word_bytes)
    plan = Simulator(config).plan(topology)
    return resolve_plan(plan, backend, config.run.run_name), engine


class _MemoSpy:
    """Counts memo lookups and hits; keeps every grid engine built."""

    def __init__(self, monkeypatch):
        self.lookups = self.hits = 0
        self.grids: list[GridBatchedEngine] = []
        layer_key, restore = engine_grid._layer_key, engine_grid._restore_layer
        grid_init = GridBatchedEngine.__init__

        def counted_key(*args):
            self.lookups += 1
            return layer_key(*args)

        def counted_restore(*args):
            self.hits += 1
            return restore(*args)

        def kept_init(grid, configs):
            grid_init(grid, configs)
            self.grids.append(grid)

        monkeypatch.setattr(engine_grid, "_layer_key", counted_key)
        monkeypatch.setattr(engine_grid, "_restore_layer", counted_restore)
        monkeypatch.setattr(GridBatchedEngine, "__init__", kept_init)


@pytest.mark.parametrize(
    "dispatch",
    ((BatchedEngine.vector_threshold, True), (1, False), (10**9, True)),
    ids=("natural", "vector", "scalar"),
)
def test_memo_fuzz_matches_reference(monkeypatch, dispatch):
    """Grids over repeated layers == per-config reference runs, counters too."""
    threshold, fast_path = dispatch
    monkeypatch.setattr(BatchedEngine, "vector_threshold", threshold)
    monkeypatch.setattr(BatchedEngine, "single_stream_fast_path", fast_path)
    spy = _MemoSpy(monkeypatch)
    stages = StageSpy(monkeypatch)
    for trial in range(10):
        rng = random.Random(31_000 + 7 * trial)
        topology = _repeating_topology(rng)
        configs = _random_grid(rng, _random_arch(rng))
        spy.grids.clear()
        results = simulate_many_dram(Simulator(configs[0]).plan(topology), configs)
        [grid] = spy.grids
        for config, result, engine in zip(configs, results, grid.engines):
            want, reference = _reference(config, topology)
            assert result == want, (trial, config.run.run_name)
            for got, spec in (
                (engine.read_queue, reference.read_queue),
                (engine.write_queue, reference.write_queue),
            ):
                assert got.total_enqueued == spec.total_enqueued, trial
                assert got.total_stall_cycles == spec.total_stall_cycles, trial
                assert got.peak_occupancy == spec.peak_occupancy, trial
            # A restored queue keeps its entries at or below a layer's end
            # as that many end-clock entries, so only the drain past the
            # run's last cycle is comparable (the part the run reports).
            end = result.total_cycles
            assert max(engine.drain(), end) == max(reference.drain(), end), trial
    assert spy.hits > 0, "no repeated layer closed from the memo"
    assert spy.lookups > spy.hits, "every lookup hit: no walk was recorded"
    if threshold == 1:  # every batch takes the vector pass
        assert stages.lanes["prefix commit"] > 0, stages.lanes


def test_tpu_vit_run_hits_the_memo(monkeypatch):
    """ViT's repeated encoder blocks close from the memo on the TPU preset."""
    spy = _MemoSpy(monkeypatch)
    config = dataclasses.replace(
        get_preset("google_tpu_v2"),
        dram=dataclasses.replace(get_preset("google_tpu_v2").dram, read_queue_entries=64),
    )
    Simulator(config).run(get_model("vit_s", scale=4))
    assert spy.hits > 0
    assert spy.lookups > spy.hits


def test_dram_grid_skips_batches_every_config_closed(monkeypatch):
    """A channels x queue-depth grid reaches ``process_batch`` fewer times than it has folds.

    A fold is skipped only when every config closed its layer from the
    memo; the folds walked are each chopped by
    ``fanout.prepare_line_batch`` exactly once, so the memo's own bank
    decode never goes through it.
    """
    calls = {"batches": 0, "prepared": 0}
    process_batch, prepare = GridBatchedEngine.process_batch, fanout.prepare_line_batch

    def counted_batch(self, batch, issue_cycles):
        calls["batches"] += 1
        return process_batch(self, batch, issue_cycles)

    def counted_prepare(fetches, word_bytes):
        calls["prepared"] += 1
        return prepare(fetches, word_bytes)

    monkeypatch.setattr(GridBatchedEngine, "process_batch", counted_batch)
    monkeypatch.setattr(fanout, "prepare_line_batch", counted_prepare)
    # perfbench's dram_grid sweep on ViT-S/4: channels x queue depth.
    base = SystemConfig(
        arch=ArchitectureConfig(
            array_rows=128,
            array_cols=128,
            dataflow="ws",
            ifmap_sram_kb=64,
            filter_sram_kb=64,
            ofmap_sram_kb=64,
        ),
        dram=DramConfig(enabled=True, technology="ddr4", issue_per_cycle=16),
    )
    configs = [
        dataclasses.replace(
            base,
            dram=dataclasses.replace(
                base.dram,
                channels=channels,
                read_queue_entries=queue,
                write_queue_entries=queue,
            ),
            run=RunConfig(run_name=f"ch{channels}_q{queue}"),
        )
        for channels in (1, 2, 4, 8)
        for queue in (32, 128, 512)
    ]
    plan = Simulator(configs[0]).plan(get_model("vit_s", scale=4))
    simulate_many_dram(plan, configs)
    assert 0 < calls["batches"] < plan.total_folds
    assert calls["prepared"] == calls["batches"]


# ------------------------------------------------ direct start-state fuzz
#
# At real layer boundaries the key's parts move together (a bank's ACT
# and ready cycle come from the same accesses, queue entries from the
# same completions), so a key that dropped one part would still close
# the layers above correctly.  Here two start states differ in exactly
# one part: the memo records a walk from the first and must close the
# second exactly when the key says so, and walk it otherwise.

PARTS = (
    "ready",
    "act",
    "row",
    "bus",
    "issue",
    "pending",
    "pool",
    "outstanding",
    "peak",
    "untouched",
    "shift",
)


def _shift(engine: BatchedEngine, delta: int) -> None:
    """Move every cycle of ``engine``'s state ``delta`` cycles later."""
    for name in ("_ready", "_act", "_bus_ready"):
        setattr(engine, name, getattr(engine, name) + delta)
    engine._s_last = [v + delta for v in engine._s_last]
    engine._s_first = [None if v is None else v + delta for v in engine._s_first]
    engine._issue_clock += delta
    for queue in (engine.read_queue, engine.write_queue):
        queue.pending = queue.pending + delta
        queue.outstanding = queue.outstanding + delta


def _set_part(engine, touched, part, value, rng_state, ck) -> int:
    """Give ``engine`` ``value`` in start-state ``part``; returns the layer's start."""
    bank = int(touched.banks[0])  # the layer's first access goes here
    rng = random.Random(rng_state)
    if part == "ready":
        engine._ready[bank] = ck + value
    elif part == "act":
        # A conflict on the first access, so its precharge waits for tRAS.
        engine._open_row[bank] = int(touched.first_rows[0]) + 1
        engine._act[bank] = ck + value
    elif part == "row":
        engine._open_row[bank] = value if value < 0 else int(touched.first_rows[0]) + value
    elif part == "bus":
        engine._bus_ready[touched.channels[0]] = ck + value
    elif part == "issue":
        engine._issue_clock = ck + value
    elif part in ("pending", "outstanding"):
        queue = engine.read_queue if engine.read_queue.pending.size else engine.write_queue
        entries = getattr(queue, part)
        size = len(entries) if part == "pending" else rng.randint(0, queue.capacity)
        drawn = sorted(ck + rng.choice(value) for _ in range(size))
        setattr(queue, part, np.array(drawn, dtype=np.int64))
    elif part == "pool":
        # A queue not yet filled: ``value`` fewer pushes, so as many
        # fewer pending entries (the smallest go).
        queue = engine.read_queue if engine.read_queue.pending.size else engine.write_queue
        if value:
            queue.pending = queue.pending[value:]
            queue.pushed = len(queue.pending)
    elif part == "peak":
        for queue in (engine.read_queue, engine.write_queue):
            queue.peak_occupancy = min(value, queue.capacity)
    elif part == "untouched":
        untouched = sorted(set(range(len(engine._open_row))) - set(touched.banks.tolist()))
        if untouched:
            other = rng.choice(untouched)
            engine._open_row[other] = value
            engine._ready[other] = ck + 3 * value
            engine._act[other] = ck - value
    elif part == "shift":
        _shift(engine, value)
        return ck + value
    return ck


def _part_values(rng: random.Random, part: str, t_ras: int):
    """A value for ``part``: small sets, so equal and clamped-equal pairs recur."""
    if part == "ready":
        return rng.choice((-9, -1, 0, 1, 2, 5, 30))
    if part == "act":
        return rng.choice((-3 * t_ras, -t_ras - 1, -t_ras, -t_ras + 1, -t_ras // 2, -2, 0))
    if part == "row":
        return rng.choice((-1, 0, 1, 2))
    if part in ("bus", "issue"):
        return rng.choice((-10, -1, 0, 1, 3, 20))
    if part in ("pending", "outstanding"):
        return rng.choice(((-20, -1, 0), (-1, 0, 1, 5, 40), (0, 60)))
    if part == "pool":
        return rng.choice((0, 1, 2))
    if part == "peak":
        return rng.choice((0, 1, 3, 1 << 20))
    if part == "untouched":
        return rng.randint(0, 9)
    return rng.randint(1, 500)  # shift


def _outcome(grid: GridBatchedEngine, timeline, end: int) -> tuple:
    """Everything a later layer or the run's result can observe, from ``end`` on."""
    [engine] = grid.engines
    t_ras = engine.timing.t_ras
    return (
        timeline,
        engine._open_row.tolist(),
        [max(v - end, 0) for v in engine._ready.tolist()],
        [max(v - end, -t_ras) for v in engine._act.tolist()],
        [max(v - end, 0) for v in engine._bus_ready.tolist()],
        max(engine._issue_clock - end, 0),
        engine._s_first,
        engine._s_last,
        [getattr(engine, name) for name in engine_grid._CHANNEL_STATS],
        [
            (
                queue.pushed,
                queue.total_enqueued,
                queue.total_stall_cycles,
                queue.peak_occupancy,
                len(queue.pending),
                sorted(v - end for v in queue.pending.tolist() if v > end),
                sorted(v - end for v in queue.outstanding.tolist() if v > end),
            )
            for queue in (engine.read_queue, engine.write_queue)
        ],
    )


def test_memo_closes_exactly_the_start_states_its_key_equates(monkeypatch):
    """Recorded from one start state, the memo closes another only when exact.

    Each trial walks a random predecessor layer into a (usually busy)
    engine state, then derives two start states for a random layer that
    differ in one part of the state, by values on both sides of the
    key's clamps.  The first walks and is recorded.  The second closes
    from that record when its key matches and walks otherwise; either
    way its outcome must equal walking it directly.
    """
    monkeypatch.setattr(BatchedEngine, "vector_threshold", 8)
    hits = misses = 0
    for trial in range(220):
        rng = random.Random(47_000 + 11 * trial)
        part = PARTS[trial % len(PARTS)]
        arch = _random_arch(rng)
        config = _random_grid(rng, arch)[0]
        topology = Topology(
            "pair", [_random_layer(rng, "before"), _random_layer(rng, "layer")]
        )
        before, layer = Simulator(config).plan(topology).computes
        schedule, word_bytes = layer.fold_specs, arch.word_bytes
        if not len(schedule) or not len(before.fold_specs):
            continue
        base = GridBatchedEngine([config])
        [(_, ck, _, _)] = engine_grid._walk_folds(
            base, before.fold_specs, word_bytes, [0], [0]
        )
        [engine] = base.engines
        [touched] = engine_grid._touched_banks(schedule, word_bytes, [engine]).values()
        if not touched.banks.size:
            continue
        values = [_part_values(rng, part, engine.timing.t_ras) for _ in range(2)]
        state_seed = rng.randrange(1 << 30)
        first, second = copy.deepcopy(base), copy.deepcopy(base)
        start = _set_part(first.engines[0], touched, part, values[0], state_seed, ck)
        key = engine_grid._layer_key(first.engines[0], touched, start)
        counters = engine_grid._counters(first.engines[0], touched)
        [timeline] = engine_grid._walk_folds(first, schedule, word_bytes, [0], [start])
        record = engine_grid._record_layer(
            first.engines[0], touched, start, timeline, counters
        )

        start = _set_part(second.engines[0], touched, part, values[1], state_seed ^ 1, ck)
        walked = copy.deepcopy(second)
        [want] = engine_grid._walk_folds(walked, schedule, word_bytes, [0], [start])
        if engine_grid._layer_key(second.engines[0], touched, start) == key:
            got = engine_grid._restore_layer(second.engines[0], touched, record, start)
            hits += 1
        else:
            [got] = engine_grid._walk_folds(second, schedule, word_bytes, [0], [start])
            misses += 1
        end = start + want[1]
        assert _outcome(second, got, end) == _outcome(walked, want, end), (trial, part, values)
    assert hits > 40 and misses > 40, (hits, misses)
