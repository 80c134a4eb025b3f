"""Spans recorded from outside the program, around each layer's public calls.

:class:`Tracer` wraps a callable so every call becomes a span on the
calling thread's span stack.  When a span ends, its duration is charged
to its parent as covered child time, so a span's *self* time is its
duration minus the part its (directly nested) child spans cover; a
grandchild is already inside its child's duration.  Spans are folded
into per-name totals as they end rather than kept, which keeps tracing
cheap for calls made hundreds of thousands of times.

:func:`install` patches each ``repro`` package's entry points where
their callers look them up, and :func:`layer_metrics` turns the totals
into the benchmark's per-layer metrics.  Nothing here changes what a
wrapped call returns: the untraced and traced runs check the same
output digests.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable


class Tracer:
    """Per-name call counts, total and self seconds, plus free counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[object, tuple], None] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(result, args)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            covered = [0.0]
            stack.append(covered)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - covered[0]
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


def _patch(tracer: Tracer, owner: object, attr: str, name: str, on_result=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry point where its callers look it up."""
    import repro.dram.fanout as fanout
    import repro.layout.integrate as integrate
    from repro.core.compute_sim import ComputeSimulator
    from repro.dram.engine_batched import BatchedEngine
    from repro.dram.engine_grid import GridBatchedEngine
    from repro.energy.accelergy import AccelergyLite
    from repro.layout.conflict_vectorized import VectorizedConflictEvaluator
    from repro.memory.double_buffer import DoubleBufferMemory
    from repro.run.executors import SerialExecutor
    from repro.run.sweep import ResultCache, SweepRunner
    from repro.service.client import ServiceClient
    from repro.service.journal import JobJournal
    from repro.sparsity.sparse_compute import SparseComputeSimulator
    from repro.store.artifact_store import ArtifactStore

    def folds(result, args):
        tracer.count("core.folds", result.total_folds)

    def lines(result, args):
        tracer.count("dram.lines", result.total_lines)

    def grouping(result, args):
        runner = args[0]
        if runner.last_grouping is not None:
            points, units = tuple(runner.last_grouping)
            tracer.count("run.points", points)
            tracer.count("run.units", units)

    def hit(prefix):
        def on_result(result, args):
            tracer.count(f"{prefix}.gets")
            if result is not None:
                tracer.count(f"{prefix}.hits")

        return on_result

    _patch(tracer, GridBatchedEngine, "process_batch", "dram.grid")
    _patch(tracer, BatchedEngine, "process_batch", "dram.batched")
    _patch(tracer, fanout, "prepare_line_batch", "dram.prepare", lines)
    _patch(tracer, ComputeSimulator, "simulate_layer", "core.schedule", folds)
    _patch(tracer, DoubleBufferMemory, "run", "memory.run")
    _patch(tracer, VectorizedConflictEvaluator, "add_fold_demand", "layout.cascade")
    _patch(tracer, integrate, "build_fold_demand", "layout.fold_demand")
    _patch(tracer, integrate, "evaluate_layout_slowdown_many", "layout.trace")
    _patch(tracer, SparseComputeSimulator, "simulate_layer", "sparsity")
    _patch(tracer, AccelergyLite, "estimate_run", "energy")
    _patch(tracer, SweepRunner, "run", "run.sweep", grouping)
    _patch(tracer, SerialExecutor, "map_units_enveloped", "run.executor")
    _patch(tracer, ResultCache, "get", "run.cache_get", hit("run.cache"))
    _patch(tracer, ResultCache, "put", "run.cache_put")
    _patch(tracer, ArtifactStore, "get", "store.get", hit("store"))
    _patch(tracer, ArtifactStore, "put", "store.put")
    _patch(tracer, ServiceClient, "submit", "service.submit")
    _patch(tracer, ServiceClient, "status", "service.status")
    _patch(tracer, ServiceClient, "fetch_report", "service.fetch")
    _patch(tracer, JobJournal, "append", "service.journal")


#: Which spans make up each layer's self time (the "where the time goes" rows).
LAYER_SPANS = {
    "dram": ("dram.grid", "dram.batched", "dram.prepare"),
    "core": ("core.schedule",),
    "memory": ("memory.run",),
    "layout": ("layout.cascade", "layout.fold_demand", "layout.trace"),
    "sparsity": ("sparsity",),
    "energy": ("energy",),
    "run": ("run.sweep", "run.executor", "run.cache_get", "run.cache_put"),
    "store": ("store.get", "store.put"),
    "service": ("service.submit", "service.status", "service.fetch", "service.journal"),
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name's suffix."""
    if name.endswith(("_ratio", "_frac", ".share")):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, plan_cache_info, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``plan_cache_info`` is ``layer_compute.cache_info()`` read after the
    timed section; ``wall_s`` is the traced repetition's wall time, the
    base of each ``<layer>.share``.
    """
    s, n, c = tracer.self_s, tracer.calls, tracer.counters.get
    submits = n("service.submit")
    plan_lookups = plan_cache_info.hits + plan_cache_info.misses
    metrics = {
        "dram.grid_s": s("dram.grid"),
        "dram.grid_batches": n("dram.grid"),
        "dram.prepare_s": s("dram.prepare"),
        "dram.lines": c("dram.lines", 0),
        "dram.batched_s": s("dram.batched"),
        "dram.batched_batches": n("dram.batched"),
        "core.schedule_s": s("core.schedule"),
        "core.schedule_calls": n("core.schedule"),
        "core.plan_lru_hit_ratio": _ratio(plan_cache_info.hits, plan_lookups),
        "core.folds": c("core.folds", 0),
        "memory.run_s": s("memory.run"),
        "memory.run_calls": n("memory.run"),
        "layout.cascade_s": s("layout.cascade"),
        "layout.cascade_calls": n("layout.cascade"),
        "layout.fold_demand_s": s("layout.fold_demand"),
        "layout.folds": n("layout.fold_demand"),
        "layout.trace_s": s("layout.trace"),
        "sparsity.s": s("sparsity"),
        "sparsity.layers": n("sparsity"),
        "energy.s": s("energy"),
        "energy.runs": n("energy"),
        "run.sweep_s": s("run.sweep"),
        "run.executor_self_s": s("run.executor"),
        "run.units": c("run.units", 0),
        "run.points": c("run.points", 0),
        "run.cache_put_s": s("run.cache_put"),
        "run.cache_hit_ratio": _ratio(c("run.cache.hits", 0), c("run.cache.gets", 0)),
        "store.get_s": s("store.get"),
        "store.put_s": s("store.put"),
        "store.hit_ratio": _ratio(c("store.hits", 0), c("store.gets", 0)),
        "service.submit_ms": 1000.0 * _ratio(s("service.submit"), submits),
        "service.fetch_ms": 1000.0 * _ratio(s("service.fetch"), n("service.fetch")),
        "service.polls_per_job": _ratio(n("service.status"), submits),
        "service.journal_s": s("service.journal"),
        "service.journal_appends": n("service.journal"),
    }
    for layer, names in LAYER_SPANS.items():
        metrics[f"{layer}.share"] = _ratio(sum(s(name) for name in names), wall_s)
    return metrics
