"""GridBatchedEngine: one vectorized stall walk for a whole ``dram.*`` grid.

The fifth engine-seam instance (see DESIGN.md): where
:class:`~repro.dram.engine_batched.BatchedEngine` replaced the per-line
Python loop with array passes over one config's line batches, this
module promotes the *config* to an extra array axis.  A pure ``dram.*``
grid shares one compute plan and one line stream per word size
(PR 5's fan-out), so the only per-config work left is the stall walk —
and those walks are data-parallel over identical line sequences.
:func:`resolve_plan_grid` is the one production DRAM walk: every
DRAM-enabled config resolves as a member of the grid for its word
size, a lone config (``Simulator.run``, a service job, a lone word size
in a sweep) as a one-config grid.

The stall walk itself is :func:`repro.dram.vector_pass.resolve_vector_pass`,
the one vector pass a lone :class:`BatchedEngine` also runs (as a
1-participant pass); its module docstring derives the scans and the
offset-flattened state layout that lets ragged geometries share them.
One pass walks one block sequence with one set of timing constants, so
it needs one (read, write) queue depth, one DRAM timing and one issue
rate: the grid splits its configs into pass classes
(:func:`pass_classes`), and each class resolves as its own pass.
:func:`resolve_plan_grid` also closes repeated layers: a layer whose
fold schedule recurs in the plan is keyed per config by its clamped
start state (:func:`_layer_key`), and a config whose key matches an
earlier walk of that schedule restores that walk's record instead of
walking the folds (DESIGN.md, "Closing repeated layers").
Here each config keeps its own :class:`BatchedEngine` as the canonical
state owner.  Per batch, each config first takes its own dispatch
(:meth:`BatchedEngine._dispatch`), exactly as it would alone; the rest
of each pass class resolve together in one pass whose per-config rows
are element-for-element the walk of that config alone, so how configs
split into passes changes no result.  The whole thing is pinned to
:class:`~repro.dram.engine.ReferenceEngine` by
``tests/dram/test_grid_engine_equivalence.py`` and, for the layer memo,
``tests/dram/test_layer_memo.py``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.config.system import SystemConfig
from repro.dram import fanout
from repro.dram.backend import make_ramulator
from repro.dram.engine import BatchResult, LineRequestBatch
from repro.dram.engine_batched import BatchedEngine, issue_order_arrays
from repro.dram.timing import DramTiming, get_timing_preset
from repro.dram.vector_pass import VectorParams, resolve_vector_pass
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compute_sim import FoldSchedule
    from repro.core.simulator import ComputePlan, RunResult


def pass_classes(configs: Sequence[SystemConfig]) -> list[list[int]]:
    """Indices of ``configs`` grouped into vector-pass classes.

    A class shares one (read, write) queue depth, one
    :class:`~repro.dram.timing.DramTiming` and one issue rate, the
    preconditions of :class:`VectorParams`.  Classes come in
    first-appearance order; each is one vector pass of
    :class:`GridBatchedEngine`.
    """
    classes: dict[tuple[int, int, DramTiming, int], list[int]] = {}
    for index, config in enumerate(configs):
        dram = config.dram
        key = (
            dram.read_queue_entries,
            dram.write_queue_entries,
            get_timing_preset(dram.technology),
            dram.issue_per_cycle,
        )
        classes.setdefault(key, []).append(index)
    return list(classes.values())


def grid_partition(configs: Sequence[SystemConfig]) -> dict[int, list[list[int]]]:
    """The grid passes of ``configs``: word size first, then pass class.

    Maps the word size of every DRAM-enabled config (one line stream,
    one :class:`GridBatchedEngine`), ascending, to its pass classes as
    indices into ``configs``; a lone config is a one-config grid.
    DRAM-disabled configs take no grid.
    """
    groups: dict[int, list[int]] = {}
    for index, config in enumerate(configs):
        if config.dram.enabled:
            groups.setdefault(config.arch.word_bytes, []).append(index)
    return {
        word: [
            [members[i] for i in cls]
            for cls in pass_classes([configs[i] for i in members])
        ]
        for word, members in sorted(groups.items())
    }


class GridBatchedEngine:
    """A grid of batched engines resolved by one vector pass per pass class.

    ``configs`` must all be DRAM-enabled and share ``arch.word_bytes``
    (they consume one line stream).  :meth:`process_batch`
    issues the same batch into every config's datapath and returns one
    :class:`BatchResult` per config, bit-identical to calling each
    config's :class:`BatchedEngine` alone.
    """

    def __init__(self, configs: Sequence[SystemConfig]) -> None:
        configs = list(configs)
        if not configs:
            raise DramError("grid engine needs at least one config")
        word_sizes = {config.arch.word_bytes for config in configs}
        if len(word_sizes) != 1:
            raise DramError(
                f"grid configs span word sizes {sorted(word_sizes)}; "
                "one grid pass shares one line stream"
            )
        for config in configs:
            if not config.dram.enabled:
                raise DramError(
                    f"config {config.run.run_name!r} has dram.enabled=False; "
                    "the grid engine only resolves DRAM datapaths"
                )
        self.configs = configs
        self.engines = [
            BatchedEngine(
                make_ramulator(config.dram),
                read_queue_entries=config.dram.read_queue_entries,
                write_queue_entries=config.dram.write_queue_entries,
                max_issue_per_cycle=config.dram.issue_per_cycle,
            )
            for config in configs
        ]
        self._classes = pass_classes(configs)
        # Vector-pass parameters per participant tuple: a whole class,
        # or the part of it left when some configs sit a batch out.
        self._params: dict[tuple[int, ...], VectorParams] = {}

    # ------------------------------------------------------------- protocol

    def process_batch(
        self, batch: LineRequestBatch, issue_cycles: Sequence[int | None]
    ) -> list[BatchResult | None]:
        """Issue every line of ``batch`` into every config's datapath.

        ``issue_cycles`` carries one issue cycle per config; ``None``
        leaves that config out of the batch (and its result ``None``).
        Each config takes its own engine's dispatch first; the configs
        left for the vector pass resolve together, one pass per pass
        class.
        """
        engines = self.engines
        if len(issue_cycles) != len(engines):
            raise DramError(
                f"{len(issue_cycles)} issue cycles for {len(engines)} configs"
            )
        results: list[BatchResult | None] = []
        rest: dict[int, int] = {}  # config index -> clock0, vector pass needed
        for index, (engine, cycle) in enumerate(zip(engines, issue_cycles)):
            if cycle is None:
                results.append(None)
                continue
            result, clock0 = engine._dispatch(batch, int(cycle))
            results.append(result)
            if result is None:
                rest[index] = clock0
        if not rest:
            return results
        lines, is_write = issue_order_arrays(batch)
        for members in self._classes:
            left = tuple(index for index in members if index in rest)
            if not left:
                continue
            part = [engines[index] for index in left]
            params = self._params.get(left)
            if params is None:
                params = self._params[left] = (
                    part[0].vector_params() if len(part) == 1 else VectorParams(part)
                )
            for index, result in zip(
                left,
                resolve_vector_pass(
                    params, part, lines, is_write, [rest[i] for i in left]
                ),
            ):
                results[index] = result
        return results

    def backpressure_stalls(self) -> list[int]:
        """Per-config issue cycles lost to full request queues."""
        return [
            e.read_queue.total_stall_cycles + e.write_queue.total_stall_cycles
            for e in self.engines
        ]


# ------------------------------------------------------------ layer memo

#: Per-channel additive statistics a layer record carries as deltas.
_CHANNEL_STATS = (
    "_s_reads", "_s_writes", "_s_hits", "_s_misses", "_s_conflicts", "_s_lat", "_s_bytes"
)


class _Touched(NamedTuple):
    """What a layer's lines touch under one decode geometry."""

    banks: np.ndarray  # flat bank ids, in first-access order
    first_rows: np.ndarray  # the row each bank's first access opens
    channels: list[int]


class _LayerRecord(NamedTuple):
    """One config's walk of one layer, relative to the layer's start clock.

    Integer arrays in the narrowest dtype that holds them (see
    :func:`_packed`): records live for the rest of their schedule's
    occurrences, one per config and distinct start state.
    """

    #: Timeline (compute, total, stall, cold start cycles), issue clock,
    #: then per queue: pending and outstanding entries at or below the
    #: end clock, pushed, enqueued and stall deltas, the layer's own
    #: peak occupancy.
    scalars: np.ndarray
    #: The touched banks' open rows, then their ready and ACT cycles
    #: (:func:`_bank_times`).
    banks: np.ndarray
    #: Per touched channel: bus, first request, then the
    #: ``_CHANNEL_STATS`` deltas; shape (channels, 9).
    channels: np.ndarray
    #: Pending and outstanding entries above the end clock, per queue.
    entries: tuple[tuple[int, ...], ...]


def _schedule_groups(plan: "ComputePlan") -> tuple[list[int | None], dict[int, int]]:
    """Per layer, its fold schedule's id if the plan repeats the schedule.

    Schedules are compared by content (folds, cycles and every slot's
    arrays); a schedule that occurs once, or has no folds, gets
    ``None``.  Also returns each id's last layer index.
    """
    ids: dict[tuple, int] = {}
    layer_ids: list[int | None] = []
    for compute in plan.computes:
        schedule = compute.fold_specs
        if not len(schedule):
            layer_ids.append(None)
            continue
        content = (schedule.folds, schedule.cycles) + tuple(
            (slot.operand, slot.is_write)
            + tuple(a.tobytes() for a in (slot.present, slot.start_word, slot.num_words))
            for slot in schedule.slots
        )
        layer_ids.append(ids.setdefault(content, len(ids)))
    counts = Counter(layer_ids)
    groups = [g if g is not None and counts[g] > 1 else None for g in layer_ids]
    last = {group: index for index, group in enumerate(groups) if group is not None}
    return groups, last


def _geometry(engine: BatchedEngine) -> tuple:
    """The decode plan of ``engine``: equal geometries touch equal banks."""
    return tuple(sorted(engine._strides.items())), tuple(sorted(engine._sizes.items()))


def _touched_banks(
    schedule: "FoldSchedule", word_bytes: int, engines: Sequence[BatchedEngine]
) -> dict[tuple, _Touched]:
    """The banks and channels a schedule's lines touch, per decode geometry.

    Folds are chopped with :meth:`LineRequestBatch.from_fetches` (not the
    grid walk's :func:`repro.dram.fanout.prepare_line_batch`) in issue
    order, one fold at a time, until every geometry has seen each of its
    banks or the folds run out.
    """
    by_geometry = {_geometry(e): e for e in engines}
    found = {
        geometry: (np.zeros(e.channels * e.ranks * e.banks, dtype=bool), [], [])
        for geometry, e in by_geometry.items()
    }
    open_geometries = set(by_geometry)
    for fetches in schedule:
        if not open_geometries:
            break
        batch = LineRequestBatch.from_fetches(fetches, word_bytes)
        if not batch.total_lines:
            continue
        lines, _ = issue_order_arrays(batch)
        for geometry in list(open_geometries):
            st, sz = by_geometry[geometry]._strides, by_geometry[geometry]._sizes
            chan = (lines // st["ch"]) % sz["ch"]
            rank = (lines // st["ra"]) % sz["ra"]
            flat = (chan * sz["ra"] + rank) * sz["ba"] + (lines // st["ba"]) % sz["ba"]
            # Each bank's first line: a stable sort keeps issue order
            # inside each bank's group.
            order = flat.argsort(kind="stable")
            by_bank = flat[order]
            first = np.empty(by_bank.size, dtype=bool)
            first[0] = True
            np.not_equal(by_bank[1:], by_bank[:-1], out=first[1:])
            seen, banks, rows = found[geometry]
            positions = order[first]
            positions = np.sort(positions[~seen[flat[positions]]])
            seen[flat[positions]] = True
            banks.append(flat[positions])
            rows.append((lines[positions] // st["ro"]) % sz["ro"])
            if seen.all():
                open_geometries.discard(geometry)
    touched = {}
    for geometry, (_, banks, rows) in found.items():
        engine = by_geometry[geometry]
        flat_banks = np.concatenate(banks) if banks else np.zeros(0, dtype=np.int64)
        touched[geometry] = _Touched(
            _packed(flat_banks),
            _packed(np.concatenate(rows)) if rows else flat_banks,
            sorted(set((flat_banks // (engine.ranks * engine.banks)).tolist())),
        )
    return touched


def _packed(values: np.ndarray) -> np.ndarray:
    """``values`` in the narrowest of int16/int32/int64 that holds them all."""
    if values.size:
        low, high = int(values.min()), int(values.max())
        for dtype in (np.int16, np.int32):
            info = np.iinfo(dtype)
            if info.min <= low and high <= info.max:
                return values.astype(dtype)
    return values


def _entries_above(entries: list[int], floor: int, origin: int) -> tuple[int, ...]:
    """Sorted ``entries`` above ``floor``, relative to ``origin``."""
    return tuple(sorted(v - origin for v in entries if v > floor))


def _bank_times(engine: BatchedEngine, banks: np.ndarray, ck: int) -> np.ndarray:
    """``banks``' ready then ACT cycles relative to ``ck``, clamped where alike."""
    ready = np.asarray(engine._ready, dtype=np.int64)[banks] - ck
    act = np.asarray(engine._act, dtype=np.int64)[banks] - ck
    return np.concatenate([np.maximum(ready, 0), np.maximum(act, -engine.timing.t_ras)])


def _layer_key(engine: BatchedEngine, touched: _Touched, ck: int) -> tuple:
    """The start state of a layer walk from ``ck`` that its outcome depends on.

    Every access of the layer issues at or after ``ck``, so a bank's
    ready cycle, a channel's bus and the issue clock act alike at any
    value up to ``ck``, an ACT cycle at any value up to ``ck - tRAS``,
    and queue entries at any value up to ``ck`` (only the pending
    pool's length still counts).  Those values are clamped; the rest
    enter relative to ``ck``.  Peak occupancies stay out (see
    :func:`_counters`).
    """
    rows = np.asarray(engine._open_row, dtype=np.int64)[touched.banks]
    # First-access category: 0 hit, 1 closed row, 2 conflict.
    category = (rows != touched.first_rows).view(np.int8) * (
        (rows >= 0).view(np.int8) + np.int8(1)
    )
    bus, first = engine._bus_ready, engine._s_first
    return (
        category.tobytes() + _packed(_bank_times(engine, touched.banks, ck)).tobytes(),
        tuple(max(bus[c] - ck, 0) for c in touched.channels),
        tuple(first[c] is None for c in touched.channels),
        max(engine._issue_clock - ck, 0),
        tuple(
            (len(q.pending), *(_entries_above(e, ck, ck) for e in (q.pending, q.outstanding)))
            for q in (engine.read_queue, engine.write_queue)
        ),
    )


def _counters(engine: BatchedEngine, touched: _Touched) -> tuple[list, list]:
    """The statistics and queue counters a layer record takes deltas of.

    Also zeroes each queue's peak occupancy (:func:`_record_layer`
    puts it back): the walk then leaves the layer's own peak there, so
    the key can leave the peak out.
    """
    queues = []
    for q in (engine.read_queue, engine.write_queue):
        queues.append((q.pushed, q.total_enqueued, q.total_stall_cycles, q.peak_occupancy))
        q.peak_occupancy = 0
    stats = [[getattr(engine, name)[c] for name in _CHANNEL_STATS] for c in touched.channels]
    return stats, queues


def _record_layer(
    engine: BatchedEngine,
    touched: _Touched,
    ck: int,
    timeline: tuple[int, int, int, int],
    before: tuple[list, list],
) -> _LayerRecord:
    """The record of a walk from ``ck`` that ended in ``engine``'s state."""
    end = ck + timeline[1]
    channel_before, queue_before = before
    queues = (engine.read_queue, engine.write_queue)
    scalars = [*timeline, engine._issue_clock - ck]
    for q, (pushed, enqueued, stalled, peak) in zip(queues, queue_before):
        scalars += (
            sum(1 for v in q.pending if v <= end),
            sum(1 for v in q.outstanding if v <= end),
            q.pushed - pushed,
            q.total_enqueued - enqueued,
            q.total_stall_cycles - stalled,
            q.peak_occupancy,  # the layer's own peak
        )
        q.peak_occupancy = max(peak, q.peak_occupancy)
    channels = [
        [engine._bus_ready[c] - ck, engine._s_first[c] - ck]
        + [getattr(engine, name)[c] - b for name, b in zip(_CHANNEL_STATS, prior)]
        for c, prior in zip(touched.channels, channel_before)
    ]
    rows = np.asarray(engine._open_row, dtype=np.int64)[touched.banks]
    return _LayerRecord(
        _packed(np.array(scalars, dtype=np.int64)),
        _packed(np.concatenate([rows, _bank_times(engine, touched.banks, ck)])),
        _packed(np.array(channels, dtype=np.int64).reshape(-1, 2 + len(_CHANNEL_STATS))),
        tuple(_entries_above(e, end, ck) for q in queues for e in (q.pending, q.outstanding)),
    )


def _restore_layer(
    engine: BatchedEngine, touched: _Touched, record: _LayerRecord, ck: int
) -> tuple[int, int, int, int]:
    """Close a layer from ``record``, shifted to ``ck``; returns its timeline."""
    banks = touched.banks.tolist()
    state = record.banks.tolist()
    rows, ready, act = (state[i * len(banks) : (i + 1) * len(banks)] for i in range(3))
    for bank, row, bank_ready, bank_act in zip(banks, rows, ready, act):
        engine._open_row[bank] = row
        engine._ready[bank] = ck + bank_ready
        engine._act[bank] = ck + bank_act
    for c, (bus, first, *deltas) in zip(touched.channels, record.channels.tolist()):
        engine._bus_ready[c] = ck + bus
        # The bus chain is the channel's last completion.
        engine._s_last[c] = max(engine._s_last[c], ck + bus)
        if engine._s_first[c] is None:
            engine._s_first[c] = ck + first
        for name, delta in zip(_CHANNEL_STATS, deltas):
            getattr(engine, name)[c] += delta
    scalars = record.scalars.tolist()
    timeline, engine._issue_clock = tuple(scalars[:4]), ck + scalars[4]
    end = ck + timeline[1]
    for index, q in enumerate((engine.read_queue, engine.write_queue)):
        low, low_out, pushed, enqueued, stalled, peak = scalars[5 + 6 * index : 11 + 6 * index]
        pending, outstanding = record.entries[2 * index : 2 * index + 2]
        q.pending = [end] * low + [ck + v for v in pending]
        q.outstanding = [end] * low_out + [ck + v for v in outstanding]
        q.pushed += pushed
        q.total_enqueued += enqueued
        q.total_stall_cycles += stalled
        q.peak_occupancy = max(q.peak_occupancy, peak)
    return timeline  # type: ignore[return-value]


def _walk_folds(
    grid: GridBatchedEngine,
    schedule: "FoldSchedule",
    word_bytes: int,
    members: list[int],
    clocks: list[int],
) -> list[tuple[int, int, int, int]]:
    """One layer's double-buffer fold walk for the configs ``members``.

    The recurrence of ``DoubleBufferMemory.run`` with the clocks as
    per-config vectors: fold i+1's fetches issue when fold i starts
    computing, at max(its clock, its data).  Returns each member's
    (compute, total, stall, cold start) cycles.
    """
    folds = len(schedule)
    if not folds:
        return [(0, 0, 0, 0)] * len(members)
    num = len(grid.engines)
    prepare = fanout.prepare_line_batch

    def issue(fetches, cycles: list[int]) -> list[int]:
        if len(members) == num:
            issue_cycles: list[int | None] = cycles  # type: ignore[assignment]
        else:
            issue_cycles = [None] * num
            for c, cycle in zip(members, cycles):
                issue_cycles[c] = cycle
        results = grid.process_batch(prepare(fetches, word_bytes), issue_cycles)
        return [results[c].ready_cycle for c in members]  # type: ignore[union-attr]

    pending = iter(schedule)
    first = issue(next(pending), clocks)
    clock_l, ready = first, first
    cycles = schedule.cycles
    for fetches in pending:
        start = [cl if cl > rv else rv for cl, rv in zip(clock_l, ready)]
        ready = issue(fetches, start)
        clock_l = [st + cycles for st in start]
    # Compute cycles plus cold start plus stalls fill the layer, so the
    # stalls are what the other two leave.
    ends = [(cl if cl > rv else rv) + cycles for cl, rv in zip(clock_l, ready)]
    busy = cycles * folds
    return [
        (busy, end - ck, end - rv0 - busy, rv0 - ck)
        for end, rv0, ck in zip(ends, first, clocks)
    ]


def resolve_plan_grid(
    plan: "ComputePlan", configs: Sequence[SystemConfig]
) -> list["RunResult"]:
    """Grid stall resolution: walk one plan against many DRAM configs.

    The production DRAM walk, for a grid of one config too; the
    config-axis twin of the reference walk
    :func:`repro.core.simulator.resolve_plan`.  One
    :class:`GridBatchedEngine` replays the double-buffer fold walk with
    per-config clock vectors, issuing each fold's line batch into every
    datapath at once.  The batches are chopped from the plan's fetches
    as the walk reaches each fold, through the module attribute
    :func:`repro.dram.fanout.prepare_line_batch`, so a run holds one
    fold's line stream at a time.

    A layer whose fold schedule recurs in the plan is closed per config
    from a memo that lasts this walk: a config whose start state (see
    :func:`_layer_key`) matches an earlier walk of that schedule takes
    that walk's record, shifted to its clock, instead of walking the
    folds; a fold reaches :meth:`GridBatchedEngine.process_batch` only
    for the configs that missed, and not at all when every config hit.
    A record is dropped after its schedule's last occurrence.  Results
    are bit-identical to resolving each config alone.
    """
    from repro.core.simulator import LayerResult, RunResult
    from repro.memory.double_buffer import MemoryTimeline

    configs = list(configs)
    grid = GridBatchedEngine(configs)
    engines = grid.engines
    geometries = [_geometry(engine) for engine in engines]
    word_bytes = configs[0].arch.word_bytes
    num = len(configs)
    results = [
        RunResult(run_name=config.run.run_name, topology_name=plan.topology_name)
        for config in configs
    ]
    clocks = [0] * num
    groups, last = _schedule_groups(plan)
    # Schedule id -> (touched banks per geometry, per-config records).
    memos: dict[int, tuple[dict[tuple, _Touched], list[dict[tuple, _LayerRecord]]]] = {}
    for index, compute in enumerate(plan.computes):
        schedule = compute.fold_specs
        group = groups[index]
        stalls_before = grid.backpressure_stalls()
        timelines: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * num
        walk = list(range(num))
        recording: dict[int, tuple] = {}  # config -> (key, counters before)
        if group is not None:
            if group not in memos:
                memos[group] = (
                    _touched_banks(schedule, word_bytes, engines),
                    [{} for _ in engines],
                )
            by_geometry, records = memos[group]
            touched = [by_geometry[geometry] for geometry in geometries]
            walk = []
            for c, engine in enumerate(engines):
                key = _layer_key(engine, touched[c], clocks[c])
                record = records[c].get(key)
                if record is not None:
                    timelines[c] = _restore_layer(engine, touched[c], record, clocks[c])
                    continue
                walk.append(c)
                if index < last[group]:
                    recording[c] = (key, _counters(engine, touched[c]))
            if index == last[group]:
                del memos[group]
        if walk:
            walked = _walk_folds(grid, schedule, word_bytes, walk, [clocks[c] for c in walk])
            for c, timeline in zip(walk, walked):
                timelines[c] = timeline
                if c in recording:
                    key, before = recording[c]
                    records[c][key] = _record_layer(
                        engines[c], touched[c], clocks[c], timeline, before
                    )
        stalls_after = grid.backpressure_stalls()
        for c in range(num):
            timeline = MemoryTimeline(*timelines[c])
            clocks[c] += timeline.total_cycles
            results[c].layers.append(
                LayerResult(
                    layer_name=compute.layer_name,
                    compute=compute,
                    timeline=timeline,
                    backpressure_stall_cycles=stalls_after[c] - stalls_before[c],
                    drain_cycles=max(0, engines[c].drain() - clocks[c]),
                )
            )
    for c in range(num):
        results[c].dram_stats = engines[c].aggregate_stats()
    return results


__all__ = ["GridBatchedEngine", "grid_partition", "pass_classes", "resolve_plan_grid"]
