"""Declarative design-space sweep execution.

Every evaluation in the paper (Figs. 8-10/15, Tabs. 4-6) is a sweep: a
base :class:`~repro.config.system.SystemConfig` plus a small grid of
architecture / DRAM / sparsity knobs, crossed with a handful of
workloads.  This module turns that pattern into a first-class subsystem:

* :class:`Axis` — one swept dimension.  An axis names either a single
  dotted config field (``"dram.channels"``) or a logical knob that fans
  out to several fields at once (``Axis("array", (8, 16), fields=
  ("arch.array_rows", "arch.array_cols"))`` keeps the array square).
* :class:`SweepSpec` — base config + axes + workload topologies.
  :meth:`SweepSpec.expand` materialises the full cross product into
  concrete, validated configs with deterministic ordering and run names.
* :class:`ResultCache` — a content-hash cache (config sans run metadata
  + topology -> simulation payload).  Identical points are never
  simulated twice, within a sweep or across sweeps; an optional
  :class:`~repro.store.ArtifactStore` persists payloads on disk between
  processes as its ``sweep_point`` kind.
* :class:`SweepRunner` — fans cache misses out over a pluggable
  :class:`~repro.run.executors.Executor` through its one map method,
  ``map_units_enveloped`` (``workers=N`` is sugar for
  ``make_executor("serial", workers=N)``: in-process for one worker,
  the multiprocessing :class:`~repro.run.executors.PoolExecutor` for
  more).
  Results always come back ordered by point index, so a parallel sweep
  is bitwise-identical to a serial one.  Before dispatch, points are
  grouped by *axis class*: configs that differ only in ``dram.*``
  and/or ``layout.*`` fields collapse into one simulation unit, and
  every unit — a lone point included — runs through
  :func:`~repro.run.runner.simulate_configs`, which shares the compute
  plan and trace stream and resolves per-config through the DRAM /
  layout fan-out seams (see DESIGN.md "The DRAM fan-out").  A lone
  unit under a multi-worker executor is split by memory or layout
  config into up to ``workers`` sub-units, so the executor stays the
  one layer that runs anything in parallel;
  :attr:`SweepRunner.last_grouping` reports the units dispatched.
  An optional :class:`~repro.store.ArtifactStore` persists the
  mid-level artifacts those seams share (compute schedules and fold
  demand streams) across processes and sessions; hand the same store
  to the :class:`ResultCache` and finished points persist there too.

Example::

    spec = SweepSpec(
        base=get_preset("scale_sim_v2_default"),
        axes=[Axis("dram.channels", (1, 2, 4, 8))],
        topologies=[get_model("resnet18", scale=8)],
    )
    results = SweepRunner(workers=4).run(spec)
    write_sweep_report(results, "outputs/channels_sweep.csv")
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.config.system import RunConfig, SystemConfig, field_value
from repro.core.simulator import RunResult
from repro.energy.accelergy import EnergyReport
from repro.errors import ConfigError
from repro.layout.integrate import LayoutEvalResult
from repro.run.executors import (
    Executor,
    ResultEnvelope,
    UnitFailure,
    make_executor,
)
from repro.run.runner import _layout_config, _memory_key, simulate_configs
from repro.sparsity.sparse_compute import SparseLayerResult
from repro.store.artifact_store import (
    ArtifactStore,
    canonical_artifact,
    content_address,
    set_active_store,
)
from repro.topology.topology import Topology

#: Config sections an axis may touch (the run section is metadata, not a knob).
_SWEEPABLE_SECTIONS = ("arch", "sparsity", "dram", "layout", "energy")

#: Axis classes that fan out *inside* one simulation unit: points whose
#: configs differ only in these sections share the compute plan, the
#: sparsity pass and the trace stream, and resolve per-config through
#: the DRAM / layout fan-out seams of
#: :func:`~repro.run.runner.simulate_configs`.
_GROUPABLE_SECTIONS = ("dram", "layout")

#: What a sweep does when a unit exhausts its attempt budget:
#: ``raise`` (default) surfaces the failure with the original traceback
#: chained; ``degrade`` completes the sweep with the points it could
#: compute and records the rest in :attr:`SweepRunner.last_failures`.
FAILURE_POLICIES = ("raise", "degrade")

@dataclass(frozen=True)
class Axis:
    """One swept dimension: a value list applied to one or more fields.

    ``fields`` holds dotted ``section.field`` paths into
    :class:`SystemConfig`; it defaults to ``(name,)`` so the common case
    is simply ``Axis("dram.channels", (1, 2, 4, 8))``.
    """

    name: str
    values: tuple[object, ...]
    fields: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("axis name must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values")
        fields = tuple(self.fields) or (self.name,)
        object.__setattr__(self, "fields", fields)
        for path in fields:
            _split_field_path(path)


def _split_field_path(path: str) -> tuple[str, str]:
    """Validate and split a dotted ``section.field`` path."""
    parts = path.split(".")
    if len(parts) != 2:
        raise ConfigError(
            f"sweep field {path!r} must be a dotted 'section.field' path"
        )
    section, name = parts
    if section not in _SWEEPABLE_SECTIONS:
        raise ConfigError(
            f"sweep field {path!r}: section must be one of {_SWEEPABLE_SECTIONS}"
        )
    return section, name


def apply_override(config: SystemConfig, path: str, value: object) -> SystemConfig:
    """Copy of ``config`` with one dotted field replaced, ``value``
    typed by :func:`~repro.config.system.field_value`."""
    section, name = _split_field_path(path)
    section_cfg = getattr(config, section)
    value = field_value(section_cfg, name, value, path)
    return config.replace(**{section: dataclasses.replace(section_cfg, **{name: value})})


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved grid point of a sweep."""

    index: int
    config: SystemConfig
    topology: Topology
    #: Ordered ``(axis_name, value)`` pairs identifying this point.
    assignment: tuple[tuple[str, object], ...]


@dataclass
class SweepSpec:
    """A declarative sweep: base config x axes x topologies.

    Axes may be given as :class:`Axis` instances or as a plain mapping
    ``{"dram.channels": (1, 2, 4)}``; topologies are the workloads every
    grid combination runs against.  Expansion order is deterministic:
    topologies outermost, then axes in declaration order (last axis
    fastest), exactly like nested for-loops.
    """

    base: SystemConfig
    axes: Sequence[Axis] = field(default_factory=list)
    topologies: Sequence[Topology] = field(default_factory=list)
    name: str = "sweep"
    #: ``False`` skips the cycle-accurate dense pass per point (and the
    #: energy model that consumes it) — for sparsity-only sweeps.
    simulate_dense: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.axes, Mapping):
            self.axes = [Axis(key, tuple(values)) for key, values in self.axes.items()]
        self.axes = [
            axis if isinstance(axis, Axis) else Axis(axis[0], tuple(axis[1]))
            for axis in self.axes
        ]
        self.topologies = list(self.topologies)
        if not self.topologies:
            raise ConfigError(f"sweep {self.name!r} needs at least one topology")
        seen = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ConfigError(f"duplicate sweep axis {axis.name!r}")
            seen.add(axis.name)

    def expand(self) -> list[SweepPoint]:
        """Materialise every grid point as a concrete, validated config."""
        points: list[SweepPoint] = []
        value_lists = [axis.values for axis in self.axes]
        for topology in self.topologies:
            for combo in itertools.product(*value_lists):
                config = self.base
                for axis, value in zip(self.axes, combo):
                    for path in axis.fields:
                        config = apply_override(config, path, value)
                index = len(points)
                run_name = f"{self.name}_{index:04d}_{topology.name}"
                config = config.replace(
                    run=RunConfig(run_name=run_name, output_dir=self.base.run.output_dir)
                )
                points.append(
                    SweepPoint(
                        index=index,
                        config=config,
                        topology=topology,
                        assignment=tuple(
                            (axis.name, value) for axis, value in zip(self.axes, combo)
                        ),
                    )
                )
        return points


# --------------------------------------------------------------- payloads


@dataclass
class _PointPayload:
    """What one simulated point yields (the cacheable unit)."""

    run_result: RunResult
    energy_report: EnergyReport | None
    sparse_results: list[SparseLayerResult]
    wall_seconds: float
    layout_results: list[LayoutEvalResult] = field(default_factory=list)


def _slim_run_result(run_result: RunResult) -> RunResult:
    """Drop per-fold schedules from a finished run.

    Fold schedules exist to drive the memory model *during* the run (and
    are regenerated from the config on demand).  Their columns still
    dominate a pickled payload: the ``arch_energy`` perfbench sweep's 36
    cached payloads pickle to 150 KiB slim and 9.4 MiB with schedules,
    the ``dram_grid`` sweep's to 99 KiB and 423 KiB.
    """
    layers = [
        dataclasses.replace(
            layer, compute=dataclasses.replace(layer.compute, fold_specs=[])
        )
        for layer in run_result.layers
    ]
    return dataclasses.replace(run_result, layers=layers)


# ------------------------------------------------------------------ cache


def _point_keys(
    points: Sequence[SweepPoint], simulate_dense: bool
) -> tuple[list[str], list[str]]:
    """Content keys and fan-out group keys of ``points``, in point order.

    Both keys hash one payload per point: the config sections, the
    topology's layers and ``simulate_dense``.  The content key
    (``sweep_point``) covers every sweepable section; the group key
    (``fanout_group``) blanks the groupable ``dram`` and ``layout``
    sections, so points sharing it differ only in those knobs and share
    one compute plan / sparsity pass, resolving per-config through the
    DRAM and layout fan-out seams.  Each distinct topology's layers are
    rendered once per call and each point's config sections once; the
    key bytes are those of rendering every point from scratch.
    """
    content_keys: list[str] = []
    group_keys: list[str] = []
    # Keyed by identity: the points keep their topologies alive.
    layers_of: dict[int, list] = {}
    for point in points:
        layers = layers_of.get(id(point.topology))
        if layers is None:
            layers = [canonical_artifact(layer) for layer in point.topology]
            layers_of[id(point.topology)] = layers
        sections = {
            section: dataclasses.asdict(getattr(point.config, section))
            for section in _SWEEPABLE_SECTIONS
        }
        payload = {
            "config": sections,
            "topology": layers,
            "simulate_dense": simulate_dense,
        }
        content_keys.append(content_address("sweep_point", payload))
        payload["config"] = {
            section: value
            for section, value in sections.items()
            if section not in _GROUPABLE_SECTIONS
        }
        group_keys.append(content_address("fanout_group", payload))
    return content_keys, group_keys


def content_key(
    config: SystemConfig, topology: Topology, simulate_dense: bool = True
) -> str:
    """Stable content hash of a simulation's inputs (a ``sweep_point`` key).

    The one-point case of :func:`_point_keys`.  The ``run`` section
    (name / output dir) is metadata and deliberately excluded, so
    renamed runs of the same point still hit the cache.
    """
    point = SweepPoint(index=0, config=config, topology=topology, assignment=())
    return _point_keys([point], simulate_dense)[0][0]


class ResultCache:
    """Content-addressed store of simulated sweep points.

    Always caches in memory; pass ``store`` to also persist payloads as
    its ``sweep_point`` kind, so repeated sweeps across processes skip
    re-simulation.  A corrupt file there reads as a miss and is removed,
    and writes are atomic (see :class:`~repro.store.ArtifactStore`).
    """

    def __init__(self, store: ArtifactStore | None = None) -> None:
        self._memory: dict[str, _PointPayload] = {}
        self.store = store
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memory)

    def peek(self, key: str) -> _PointPayload | None:
        """Look a payload up in memory without touching the counters."""
        return self._memory.get(key)

    def get(self, key: str) -> _PointPayload | None:
        """Look a payload up (memory, then the store), counting the hit or miss."""
        payload = self._memory.get(key)
        if payload is None and self.store is not None:
            payload = self.store.get("sweep_point", key)
            if payload is not None:
                self._memory[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: _PointPayload) -> None:
        """Store a payload in memory (and in the store when configured)."""
        self._memory[key] = payload
        if self.store is not None:
            self.store.put("sweep_point", key, payload)


# ----------------------------------------------------------------- runner


@dataclass
class SweepResult:
    """One sweep point's outcome, in grid order."""

    index: int
    topology_name: str
    assignment: tuple[tuple[str, object], ...]
    config: SystemConfig
    run_result: RunResult
    energy_report: EnergyReport | None = None
    sparse_results: list[SparseLayerResult] = field(default_factory=list)
    layout_results: list[LayoutEvalResult] = field(default_factory=list)
    from_cache: bool = False
    wall_seconds: float = 0.0

    @property
    def assignment_dict(self) -> dict[str, object]:
        """The axis assignment as a plain dict."""
        return dict(self.assignment)

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles of the dense run."""
        return self.run_result.total_cycles

    @property
    def total_compute_cycles(self) -> int:
        """Pure compute cycles of the dense run."""
        return self.run_result.total_compute_cycles

    @property
    def total_stall_cycles(self) -> int:
        """Stall + cold-start cycles of the dense run."""
        return self.run_result.total_stall_cycles

    @property
    def energy_mj(self) -> float:
        """Total energy in mJ (0 when the energy feature was off)."""
        return self.energy_report.total_mj if self.energy_report else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product (cycles x mJ)."""
        return self.total_cycles * self.energy_mj

    @property
    def sparse_compute_cycles(self) -> int:
        """Summed sparse compute cycles (0 when sparsity was off)."""
        return sum(r.sparse_compute_cycles for r in self.sparse_results)


@dataclass
class SweepFailure:
    """One sweep point that could not be computed (``degrade`` policy).

    Mirrors :class:`SweepResult`'s identity fields and carries the
    terminal :class:`~repro.run.executors.UnitFailure` of the unit the
    point belonged to — every point of a failed fan-out group yields
    its own :class:`SweepFailure` row.
    """

    index: int
    topology_name: str
    assignment: tuple[tuple[str, object], ...]
    config: SystemConfig
    attempts: int
    error_class: str
    message: str
    traceback_text: str

    @property
    def assignment_dict(self) -> dict[str, object]:
        """The axis assignment as a plain dict."""
        return dict(self.assignment)


#: One simulation unit: the point positions it covers, then the
#: :func:`~repro.run.runner.simulate_configs` arguments
#: ``(configs, topology, dense)`` shipped to the executor.
_Unit = tuple[list[int], list[SystemConfig], Topology, bool]


@dataclass(frozen=True)
class UnitFanout:
    """Fan-out detail of one simulation unit (one :class:`SweepGrouping` entry).

    ``points`` is how many grid points the unit collapsed; ``word_streams``
    how many distinct word-size line streams it builds (0 when no member
    enables DRAM); ``grid_passes`` the width of each config-batched
    :class:`~repro.dram.engine_grid.GridBatchedEngine` pass, one per
    pass class (queue depth, DRAM timing, issue rate) of each word size
    (:func:`~repro.dram.engine_grid.grid_partition`; a lone DRAM config
    is a pass of width 1, and the tuple is empty when no member enables
    DRAM).
    """

    points: int
    word_streams: int
    grid_passes: tuple[int, ...]


class SweepGrouping(tuple):
    """``(simulated_points, simulation_units)`` plus per-unit detail.

    A tuple subclass so every existing consumer of
    :attr:`SweepRunner.last_grouping` — including equality against a
    plain 2-tuple — keeps working; :attr:`units` adds one
    :class:`UnitFanout` per simulation unit in dispatch order.
    """

    units: tuple[UnitFanout, ...]

    def __new__(
        cls, points: int, unit_count: int, units: tuple[UnitFanout, ...] = ()
    ) -> SweepGrouping:
        self = tuple.__new__(cls, (points, unit_count))
        self.units = units
        return self


def _unit_fanout(unit: _Unit) -> UnitFanout:
    """Summarize how one dispatched unit will fan out internally."""
    from repro.dram.engine_grid import grid_partition

    members, configs, _, _ = unit
    words = {c.arch.word_bytes for c in configs if c.dram.enabled}
    grid_passes = tuple(
        len(cls) for passes in grid_partition(configs).values() for cls in passes
    )
    return UnitFanout(
        points=len(members), word_streams=len(words), grid_passes=grid_passes
    )


def _grouped_units(
    points: list[SweepPoint], group_keys: Sequence[str], simulate_dense: bool
) -> list[_Unit]:
    """Partition points into simulation units by fan-out group key.

    ``group_keys`` are the points' :func:`_point_keys` group keys, in
    point order.  Points sharing one differ only in groupable axis
    classes (``dram.*`` and/or ``layout.*``) and form one unit: one
    compute plan + one trace stream, with the dense run resolved per
    distinct memory config and the layout study per distinct layout
    config.  Unit order follows first appearance, so sweeps keep
    deterministic, index-ordered results.
    """
    groups: dict[str, list[int]] = {}
    for position, key in enumerate(group_keys):
        groups.setdefault(key, []).append(position)
    return [
        (
            members,
            [points[m].config for m in members],
            points[members[0]].topology,
            simulate_dense,
        )
        for members in groups.values()
    ]


def _split_unit(unit: _Unit, width: int) -> list[_Unit]:
    """Deal a lone fan-out unit into at most ``width`` sub-units.

    The split follows the fan-out class with more distinct values — the
    memory configs or the layout configs (layout on a tie) — dealt
    round-robin.  Each sub-unit owns whole values of that class and
    repeats the shared upstream (plan, trace stream) and the other
    class's work; splitting the wider class keeps that repeat smallest.
    Members keep their order inside each sub-unit.  A unit with fewer
    than two distinct values in both classes stays whole, as does a
    sparsity-only unit (it has no per-config work to spread).
    """
    members, configs, topology, dense = unit
    if not dense:
        return [unit]
    layout_keys = [_layout_config(c) if c.layout.enabled else None for c in configs]
    memory_keys = [_memory_key(c) for c in configs]
    keys = max(layout_keys, memory_keys, key=lambda ks: len(set(ks)))
    distinct = list(dict.fromkeys(keys))
    if len(distinct) < 2:
        return [unit]
    count = min(width, len(distinct))
    bucket_of = {value: i % count for i, value in enumerate(distinct)}
    buckets: list[list[int]] = [[] for _ in range(count)]
    for position, key in enumerate(keys):
        buckets[bucket_of[key]].append(position)
    return [
        ([members[p] for p in bucket], [configs[p] for p in bucket], topology, dense)
        for bucket in buckets
    ]


def _simulate_unit(
    unit_args: tuple[list[SystemConfig], Topology, bool],
    store: ArtifactStore | None = None,
) -> list[_PointPayload]:
    """Worker entry point: run one unit through :func:`simulate_configs`.

    Module-level so it pickles under every multiprocessing start method.
    ``store`` (bound via :func:`functools.partial` so the executor can
    ship it to any substrate) is installed as the process's active
    artifact store for the unit's duration — every mid-level producer
    underneath (plan memoization, fold-demand streams) then persists
    through it.
    """
    configs, topology, dense = unit_args
    previous = set_active_store(store) if store is not None else None
    try:
        start = time.perf_counter()
        outputs = simulate_configs(configs, topology, dense=dense)
        wall_seconds = (time.perf_counter() - start) / len(configs)
    finally:
        if store is not None:
            set_active_store(previous)
    return [
        _PointPayload(
            run_result=_slim_run_result(output.run_result),
            energy_report=output.energy_report,
            sparse_results=output.sparse_results,
            wall_seconds=wall_seconds,
            layout_results=output.layout_results,
        )
        for output in outputs
    ]


class SweepRunner:
    """Execute a :class:`SweepSpec` through an executor and a result cache.

    Args:
        workers: sugar for ``make_executor("serial", workers)``: ``1``
            runs in-process (:class:`~repro.run.executors.SerialExecutor`),
            more a :class:`~repro.run.executors.PoolExecutor` over that
            many processes.  Ordering and results are identical either
            way.
        cache: shared :class:`ResultCache`; a private in-memory cache is
            created when omitted (still deduplicates within the sweep).
        executor: explicit execution backend (mutually exclusive with
            ``workers > 1``) — any :class:`~repro.run.executors.Executor`,
            e.g. one from :func:`~repro.run.executors.make_executor`
            carrying its own attempt budget, or a
            :class:`~repro.run.executors.QueueExecutor` spooling units
            to a shared directory.
        store: optional :class:`~repro.store.ArtifactStore` persisting
            the mid-level artifacts simulation units share (compute
            schedules and fold-demand streams); its
            hit/miss counters cover lookups made in this process.
        failure_policy: ``raise`` (default) re-raises a unit's terminal
            failure with the original traceback chained; ``degrade``
            completes the sweep with the computable points and reports
            the rest through :attr:`last_failures`.
        progress: optional ``progress(done_units, total_units)``
            callback fired as simulation units reach terminal outcomes
            (``(0, total)`` fires before dispatch).  An exception it
            raises aborts the run — the sweep service's cooperative
            cancellation hangs off exactly that.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        executor: Executor | None = None,
        store: ArtifactStore | None = None,
        failure_policy: str = "raise",
        progress: Callable[[int, int], None] | None = None,
    ) -> None:
        if failure_policy not in FAILURE_POLICIES:
            raise ConfigError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if executor is None:
            executor = make_executor("serial", workers=workers)
        elif workers != 1:
            raise ConfigError(
                "pass either workers (pool sugar) or an explicit executor, not both"
            )
        self.executor = executor
        self.workers = getattr(executor, "workers", 1)
        self.store = store
        self.failure_policy = failure_policy
        self.progress = progress
        self.cache = cache if cache is not None else ResultCache()
        #: Points the most recent ``degrade``-policy :meth:`run` could
        #: not compute, as :class:`SweepFailure` rows in index order
        #: (always empty under the ``raise`` policy — the first failure
        #: raises instead).
        self.last_failures: list[SweepFailure] = []
        #: ``(simulated_points, simulation_units)`` of the most recent
        #: :meth:`run` — how far axis-class grouping collapsed the
        #: points that actually simulated (cache hits and duplicates
        #: never form units; a fully-cached run is ``(0, 0)``), counted
        #: after a lone unit's split.
        #: A :class:`SweepGrouping`, so per-unit fan-out detail rides
        #: along in ``last_grouping.units``.  ``None`` before any run.
        self.last_grouping: SweepGrouping | None = None

    def run(self, spec: SweepSpec) -> list[SweepResult]:
        """Run every grid point; results come back ordered by index.

        Under ``failure_policy="degrade"`` the returned list holds only
        the computable points (still in index order, rows byte-identical
        to a fault-free run); failed points land in
        :attr:`last_failures`.  Under ``raise`` (default) the first
        terminal unit failure re-raises with its traceback chained.
        """
        points = spec.expand()
        self.last_grouping = SweepGrouping(0, 0)
        self.last_failures = []
        keys, group_keys = _point_keys(points, spec.simulate_dense)

        # Each key is looked up (and counted) once: later duplicates of a
        # key within the sweep are cache hits by construction — the first
        # occurrence either hit or will be simulated — and get counted at
        # serve time below, so hits + misses always equals the grid size.
        cached: dict[int, _PointPayload] = {}
        unique: dict[str, SweepPoint] = {}
        unique_groups: list[str] = []
        seen: set[str] = set()
        for point, key, group_key in zip(points, keys, group_keys):
            if key in seen:
                continue
            seen.add(key)
            payload = self.cache.get(key)
            if payload is not None:
                cached[point.index] = payload
            else:
                unique[key] = point
                unique_groups.append(group_key)

        computed = self._compute(
            list(unique.values()),
            spec.simulate_dense,
            keys=list(unique),
            group_keys=unique_groups,
        )
        failed_keys: dict[str, UnitFailure] = {
            key: envelope.failure
            for key, envelope in zip(unique, computed)
            if not envelope.ok
        }
        if failed_keys and self.failure_policy == "raise":
            next(iter(failed_keys.values())).raise_()

        computed_first = {key: point.index for key, point in unique.items()}
        results: list[SweepResult] = []
        for point, key in zip(points, keys):
            if key in failed_keys:
                failure = failed_keys[key]
                self.last_failures.append(
                    SweepFailure(
                        index=point.index,
                        topology_name=point.topology.name,
                        assignment=point.assignment,
                        config=point.config,
                        attempts=failure.attempts,
                        error_class=failure.error_class,
                        message=failure.message,
                        traceback_text=failure.traceback_text,
                    )
                )
                continue
            if point.index in cached:
                payload = cached[point.index]
                from_cache = True
            elif computed_first.get(key) == point.index:
                payload = self._memory_payload(key)
                from_cache = False
            else:
                # A duplicate of an earlier point: served (and counted)
                # as a cache hit.
                payload = self.cache.get(key)
                if payload is None:  # pragma: no cover - internal invariant
                    raise RuntimeError(f"sweep point {key} missing after compute phase")
                from_cache = True
            results.append(
                SweepResult(
                    index=point.index,
                    topology_name=point.topology.name,
                    assignment=point.assignment,
                    config=point.config,
                    run_result=dataclasses.replace(
                        payload.run_result, run_name=point.config.run.run_name
                    ),
                    energy_report=payload.energy_report,
                    sparse_results=payload.sparse_results,
                    layout_results=payload.layout_results,
                    from_cache=from_cache,
                    wall_seconds=0.0 if from_cache else payload.wall_seconds,
                )
            )
        return results

    def _memory_payload(self, key: str) -> _PointPayload:
        payload = self.cache.peek(key)
        if payload is None:  # pragma: no cover - internal invariant
            raise RuntimeError(f"sweep point {key} missing after compute phase")
        return payload

    def _compute(
        self,
        points: list[SweepPoint],
        simulate_dense: bool,
        keys: list[str],
        group_keys: list[str],
    ) -> list[ResultEnvelope]:
        """Dispatch the cache-missed points; one envelope per point.

        A unit's terminal failure (attempt budget exhausted on the
        executor) fans out to an error envelope for every member point;
        success envelopes carry the member's :class:`_PointPayload`.

        Each unit's member payloads are written to the cache under
        ``keys`` (content keys aligned with ``points``, as ``group_keys``
        are their fan-out group keys) the moment the
        unit completes, through the executor's ``unit_done`` hook —
        crash-safe incremental persistence: a process killed mid-batch
        re-simulates only the units still in flight, because everything
        finished is already on disk.  Successes are cached even when a
        sibling failed, so a re-run resumes instead of re-simulating the
        healthy points.
        """
        if not points:
            return []
        units = _grouped_units(points, group_keys, simulate_dense)
        if len(units) == 1 and self.workers > 1:
            # A lone unit would leave the executor idle: split it.
            units = _split_unit(units[0], self.workers)
        self.last_grouping = SweepGrouping(
            len(points), len(units), tuple(_unit_fanout(unit) for unit in units)
        )
        fn = (
            functools.partial(_simulate_unit, store=self.store)
            if self.store is not None
            else _simulate_unit
        )
        if self.progress is not None:
            self.progress(0, len(units))

        def persist_unit(unit_index: int, envelope: ResultEnvelope) -> None:
            if not envelope.ok:
                return
            for position, payload in zip(units[unit_index][0], envelope.value):
                self.cache.put(keys[position], payload)

        unit_envelopes = self.executor.map_units_enveloped(
            fn,
            [unit[1:] for unit in units],
            progress=self.progress,
            unit_done=persist_unit,
        )
        point_envelopes: list[ResultEnvelope | None] = [None] * len(points)
        for (members, *_), envelope in zip(units, unit_envelopes):
            if envelope.ok:
                for position, payload in zip(members, envelope.value):
                    point_envelopes[position] = ResultEnvelope(
                        ok=True, value=payload, attempt=envelope.attempt
                    )
            else:
                for position in members:
                    point_envelopes[position] = envelope
        assert all(envelope is not None for envelope in point_envelopes)
        return point_envelopes  # type: ignore[return-value]


def single_point(
    config: SystemConfig,
    topology: Topology,
    cache: ResultCache | None = None,
) -> SweepResult:
    """Convenience wrapper: run one (config, topology) as a 1-point sweep."""
    spec = SweepSpec(base=config, axes=[], topologies=[topology], name=config.run.run_name)
    [result] = SweepRunner(workers=1, cache=cache).run(spec)
    return result


__all__ = [
    "Axis",
    "FAILURE_POLICIES",
    "ResultCache",
    "SweepFailure",
    "SweepGrouping",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "UnitFanout",
    "apply_override",
    "content_key",
    "single_point",
]
