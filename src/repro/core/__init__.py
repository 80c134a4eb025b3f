"""Cycle-accurate systolic-array core (the SCALE-Sim v2 compute model)."""

from repro.core.dataflow import (
    Dataflow,
    GemmMapping,
    analytical_runtime,
    map_gemm,
    spatial_runtime,
    spatiotemporal1_runtime,
    spatiotemporal2_runtime,
)
from repro.core.compute_sim import ComputeSimulator, LayerComputeResult
from repro.core.simulator import LayerResult, RunResult, Simulator

__all__ = [
    "Dataflow",
    "GemmMapping",
    "analytical_runtime",
    "map_gemm",
    "spatial_runtime",
    "spatiotemporal1_runtime",
    "spatiotemporal2_runtime",
    "ComputeSimulator",
    "LayerComputeResult",
    "LayerResult",
    "RunResult",
    "Simulator",
]
