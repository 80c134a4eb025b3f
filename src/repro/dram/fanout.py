"""The DRAM fan-out: one compute plan, an arbitrary ``dram.*`` grid.

Fourth instance of the fan-out seam (see DESIGN.md "The fan-out seam"):
the paper's memory-system studies (fig 9 channels, fig 10 request
queues, the DRAM ablations) sweep only ``dram.*`` knobs, yet each point
used to re-run the identical dense compute pass and re-plan the
identical fetch streams before the backend ever differed.  Here the
shared upstream artifact is the :class:`~repro.core.simulator.ComputePlan`
— per-layer fold schedules plus fetch plans, a pure function of the
architecture section — and :func:`simulate_many_dram` resolves it
against every memory configuration of a grid:

* the plan is built (and memoized) once;
* DRAM configs sharing a word size share one decoded line stream — the
  fetch-to-64B-line chop plus the round-robin issue order the vector
  engine would otherwise rematerialize per config (mirroring the
  ``prime_key_lut`` sharing of the layout fan-out);
* DRAM configs sharing a word size resolve *together*: one
  :class:`~repro.dram.engine_grid.GridBatchedEngine` pass walks the
  whole grid's stalls per line batch instead of one config at a time
  (the fifth engine-seam instance — see
  :mod:`repro.dram.engine_grid`).

Results are bit-identical to ``Simulator(config).run(topology)`` per
config — enforced by ``tests/dram/test_dram_fanout_equivalence.py`` and
``tests/dram/test_grid_engine_equivalence.py``.  The sweep runner
(:mod:`repro.run.sweep`) reaches this seam through
:func:`repro.run.runner.simulate_configs`, for groups of points that
differ only in ``dram.*`` / ``layout.*`` axes and single points alike.
The seam itself is serial: parallelism lives one layer up, where the
sweep splits an oversized unit and the executor runs the pieces.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.config.system import SystemConfig
from repro.dram.engine import LineRequestBatch
from repro.dram.engine_batched import prepare_line_batch
from repro.errors import DramError
from repro.store.artifact_store import ArtifactStore, active_store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # The simulator imports repro.dram.backend (whose package init loads
    # this module), so the runtime imports below are deferred into the
    # functions; annotations stay string-typed via __future__.
    from repro.core.simulator import ComputePlan, RunResult

#: Per-layer, per-fold line batches for one word size.
_LineBatches = list[list[LineRequestBatch]]


def _build_line_batches(plan: ComputePlan, word_bytes: int) -> _LineBatches:
    return [
        [prepare_line_batch(fetches, word_bytes) for fetches in compute.fold_specs]
        for compute in plan.computes
    ]


def _shared_line_batches(
    plan: ComputePlan,
    configs: Sequence[SystemConfig],
    store: ArtifactStore | None = None,
) -> dict[int, _LineBatches]:
    """One decoded line stream per word size the grid shares.

    Only DRAM-enabled configs consume line batches (the ideal-bandwidth
    backend works in words, straight from the fold schedule), and only a
    word size two or more of them use is worth prebuilding: a lone
    config resolves with ``line_batches=None`` exactly as
    ``Simulator.run`` does, decoding fold by fold.  With an artifact
    store (and a plan that carries its content address) each shared
    stream is served from / persisted to disk, keyed on the plan key +
    word size, so a cold process skips the fetch-to-line chop and the
    issue-order sort.
    """
    users = Counter(c.arch.word_bytes for c in configs if c.dram.enabled)
    batches: dict[int, _LineBatches] = {}
    for word_bytes in sorted(word for word, count in users.items() if count > 1):
        if store is not None and plan.store_key:
            key = store.key(
                "line_batches",
                {"plan": plan.store_key, "word_bytes": word_bytes},
            )
            batches[word_bytes] = store.get_or_build(
                "line_batches", key, lambda: _build_line_batches(plan, word_bytes)
            )
        else:
            batches[word_bytes] = _build_line_batches(plan, word_bytes)
    return batches


def _resolve_config(
    plan: ComputePlan,
    config: SystemConfig,
    line_batches: _LineBatches | None,
) -> RunResult:
    """One config's stall resolution against a fresh backend."""
    from repro.core.simulator import make_memory_backend, resolve_plan

    backend = make_memory_backend(config)
    return resolve_plan(
        plan,
        backend,
        config.run.run_name,
        line_batches=line_batches if config.dram.enabled else None,
    )


def _grid_groups(configs: Sequence[SystemConfig]) -> dict[int, list[int]]:
    """Indices of DRAM-enabled configs, grouped by word size.

    Only groups of two or more resolve through the grid engine — a lone
    config gains nothing from the config axis, and it and DRAM-disabled
    points keep the per-config path.
    """
    groups: dict[int, list[int]] = {}
    for index, config in enumerate(configs):
        if config.dram.enabled:
            groups.setdefault(config.arch.word_bytes, []).append(index)
    return {word: members for word, members in groups.items() if len(members) > 1}


def simulate_many_dram(
    plan: ComputePlan,
    configs: Sequence[SystemConfig],
    store: ArtifactStore | None = None,
) -> list[RunResult]:
    """Resolve one compute plan against a grid of memory configurations.

    Every config must share the plan's compute schedule — same array,
    dataflow and SRAM working sizes (:func:`plan_signature`); the
    ``dram.*`` section (technology, channels, queues, mapping,
    issue rate), ``arch.word_bytes`` (with SRAM kilobytes scaled to
    keep the word capacity fixed) and ``arch.bandwidth_words`` (the
    DRAM-disabled ideal backend) are free to vary.  Results come back
    in ``configs`` order, each bit-identical to
    ``Simulator(config).run(topology)`` for the planned topology.

    DRAM configs sharing a word size resolve through one
    :class:`~repro.dram.engine_grid.GridBatchedEngine` pass per line
    batch; other configs (a lone word size, DRAM-disabled points)
    resolve one at a time.

    Args:
        plan: the shared compute plan (:meth:`Simulator.plan`).
        configs: memory configurations to fan out over.
        store: artifact store for the shared decoded line streams;
            defaults to the process's active store (see
            :mod:`repro.store`).
    """
    from repro.core.simulator import plan_signature
    from repro.dram.engine_grid import resolve_plan_grid

    configs = list(configs)
    if not configs:
        return []
    for config in configs:
        signature = plan_signature(config.arch)
        if signature != plan.signature:
            raise DramError(
                f"config {config.run.run_name!r} has compute signature "
                f"{signature}, plan was built for {plan.signature}; "
                "dram.* fan-out requires an identical fold schedule"
            )
    batches = _shared_line_batches(
        plan, configs, store if store is not None else active_store()
    )

    # Grid passes first, stragglers alone.
    results: list[RunResult | None] = [None] * len(configs)
    grid_members: set[int] = set()
    for word_bytes, members in sorted(_grid_groups(configs).items()):
        grid_members.update(members)
        for index, result in zip(
            members,
            resolve_plan_grid(
                plan, [configs[i] for i in members], batches[word_bytes]
            ),
        ):
            results[index] = result
    for index, config in enumerate(configs):
        if index not in grid_members:
            results[index] = _resolve_config(
                plan, config, batches.get(config.arch.word_bytes)
            )
    return results  # type: ignore[return-value]


__all__ = ["simulate_many_dram"]
