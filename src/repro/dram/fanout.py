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
* DRAM configs sharing a word size share one line stream — each fold's
  fetches chopped into 64B lines once (:func:`prepare_line_batch`), not
  once per config;
* DRAM configs sharing a word size resolve *together*: one
  :class:`~repro.dram.engine_grid.GridBatchedEngine` walks their
  stalls per line batch, one pass per queue depth, DRAM timing and
  issue rate (:func:`~repro.dram.engine_grid.grid_partition`), instead
  of one config at a time (the fifth engine-seam instance — see
  :mod:`repro.dram.engine_grid`).  A lone DRAM config is a one-config
  grid, so this grid walk is the only production DRAM walk; a
  DRAM-disabled point resolves in closed form;
* a layer whose fold schedule repeats in the plan is walked again only
  by the configs whose start state differs from every earlier walk of
  it; the rest close it from that walk's record, and a fold no config
  walks is never chopped.

Results are bit-identical to resolving each config alone on the
scalar reference engine (:func:`repro.core.simulator.resolve_plan`
over a :class:`~repro.dram.backend.DramBackend`) — enforced by
``tests/dram/test_dram_fanout_equivalence.py`` and
``tests/dram/test_grid_engine_equivalence.py``.  The sweep runner
(:mod:`repro.run.sweep`) reaches this seam through
:func:`repro.run.runner.simulate_configs`, for groups of points that
differ only in ``dram.*`` / ``layout.*`` axes and single points alike.
The seam itself is serial: parallelism lives one layer up, where the
sweep splits an oversized unit and the executor runs the pieces.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import TYPE_CHECKING

from repro.config.system import SystemConfig
from repro.dram.engine import LineRequestBatch
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # The simulator imports repro.dram.backend (whose package init loads
    # this module), so the runtime imports below are deferred into the
    # functions; annotations stay string-typed via __future__.
    from repro.core.compute_sim import TileFetch
    from repro.core.simulator import ComputePlan, RunResult


def prepare_line_batch(
    fetches: tuple[TileFetch, ...], word_bytes: int
) -> LineRequestBatch:
    """One fold's fetches chopped into the 64B line streams a grid shares.

    ``perfbench/tracing.py`` wraps this module global by name to time
    the chop and count its lines (``dram.prepare_s``, ``dram.lines``).
    """
    return LineRequestBatch.from_fetches(fetches, word_bytes)


def simulate_many_dram(
    plan: ComputePlan, configs: Sequence[SystemConfig]
) -> list[RunResult]:
    """Resolve one compute plan against a grid of memory configurations.

    Every config must share the plan's compute schedule — same array,
    dataflow and SRAM working sizes (:func:`plan_signature`); the
    ``dram.*`` section (technology, channels, queues, mapping,
    issue rate), ``arch.word_bytes`` (with SRAM kilobytes scaled to
    keep the word capacity fixed) and ``arch.bandwidth_words`` (the
    DRAM-disabled ideal backend) are free to vary.  Results come back
    in ``configs`` order, each bit-identical to that config resolved
    alone; ``Simulator(config).run(topology)`` is the one-config case.

    Every DRAM config resolves through the
    :class:`~repro.dram.engine_grid.GridBatchedEngine` of its word size
    (:func:`~repro.dram.engine_grid.grid_partition`), a lone config as
    a one-config grid; DRAM-disabled points resolve in closed form on
    the ideal-bandwidth backend.

    Args:
        plan: the shared compute plan (:meth:`Simulator.plan`).
        configs: memory configurations to fan out over.
    """
    from repro.core.simulator import plan_signature, resolve_plan
    from repro.dram.engine_grid import grid_partition, resolve_plan_grid
    from repro.memory.double_buffer import IdealBandwidthBackend

    configs = list(configs)
    for config in configs:
        signature = plan_signature(config.arch)
        if signature != plan.signature:
            raise DramError(
                f"config {config.run.run_name!r} has compute signature "
                f"{signature}, plan was built for {plan.signature}; "
                "dram.* fan-out requires an identical fold schedule"
            )

    results: list[RunResult | None] = [None] * len(configs)
    for passes in grid_partition(configs).values():
        members = sorted(chain.from_iterable(passes))
        grid = resolve_plan_grid(plan, [configs[i] for i in members])
        for index, result in zip(members, grid):
            results[index] = result
    for index, config in enumerate(configs):
        if not config.dram.enabled:
            results[index] = resolve_plan(
                plan,
                IdealBandwidthBackend(config.arch.bandwidth_words),
                config.run.run_name,
            )
    return results  # type: ignore[return-value]


__all__ = ["simulate_many_dram"]
