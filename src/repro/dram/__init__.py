"""RamulatorLite: a cycle-accurate banked DRAM model (paper Section V).

The line pipeline (front-end pacing + request queues + banks/buses)
lives behind the engine seam in :mod:`repro.dram.engine`.
"""

from repro.dram.timing import DramTiming, get_timing_preset
from repro.dram.address import LINE_BYTES, AddressMapper, DecodedAddress
from repro.dram.dram_sim import DramStats, RamulatorLite
from repro.dram.backend import DramBackend
from repro.dram.engine import (
    BatchResult,
    LineRequestBatch,
    LineStream,
    MemoryEngine,
    ReferenceEngine,
)
from repro.dram.engine_batched import BatchedEngine, issue_order_arrays
from repro.dram.engine_grid import GridBatchedEngine, resolve_plan_grid
from repro.dram.fanout import simulate_many_dram

__all__ = [
    "DramTiming",
    "get_timing_preset",
    "LINE_BYTES",
    "AddressMapper",
    "DecodedAddress",
    "DramStats",
    "RamulatorLite",
    "DramBackend",
    "BatchResult",
    "LineRequestBatch",
    "LineStream",
    "MemoryEngine",
    "ReferenceEngine",
    "BatchedEngine",
    "issue_order_arrays",
    "GridBatchedEngine",
    "resolve_plan_grid",
    "simulate_many_dram",
]
