"""High-level drivers: one-call simulation runs, sweeps, and the CLI."""

from repro.run.executors import make_executor, process_spool
from repro.run.runner import SimulationOutputs, run_simulation, simulate_configs
from repro.run.sweep import (
    Axis,
    ResultCache,
    SweepFailure,
    SweepResult,
    SweepRunner,
    SweepSpec,
    single_point,
)

__all__ = [
    "Axis",
    "ResultCache",
    "SimulationOutputs",
    "SweepFailure",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "make_executor",
    "process_spool",
    "run_simulation",
    "simulate_configs",
    "single_point",
]
