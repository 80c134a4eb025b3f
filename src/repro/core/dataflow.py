"""Dataflows, the Table-II GEMM mapping, and the paper's runtime equations.

The paper (Section III-A) models runtime for an ``R x C`` array mapping a
GEMM whose dimensions are assigned to ``(Sr, Sc, T)`` per dataflow
(Table II, for ``O[M, N] = W[M, K] @ X[K, N]``):

==================  ====  ====  ===
Dataflow             Sr    Sc    T
==================  ====  ====  ===
Input stationary     K     N     M
Weight stationary    K     M     N
Output stationary    M     N     K
==================  ====  ====  ===

Single-core / spatial partitioning runtime (Eq. 1)::

    cycles = (2R + C + T - 2) * ceil(Sr / R) * ceil(Sc / C)

Spatio-temporal partitioning additionally splits the temporal dimension
across the core grid (Eqs. 2 and 3); see
:func:`spatiotemporal1_runtime` / :func:`spatiotemporal2_runtime`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MappingError
from repro.topology.layer import GemmShape
from repro.utils.math import ceil_div


class Dataflow(enum.Enum):
    """The three classic systolic dataflows."""

    OUTPUT_STATIONARY = "os"
    WEIGHT_STATIONARY = "ws"
    INPUT_STATIONARY = "is"

    @classmethod
    def parse(cls, text: str) -> "Dataflow":
        """Parse ``"os"``/``"ws"``/``"is"`` (case-insensitive)."""
        lowered = text.strip().lower()
        for member in cls:
            if member.value == lowered:
                return member
        raise MappingError(f"unknown dataflow {text!r}; expected one of os/ws/is")

    @property
    def stationary_operand(self) -> str:
        """Which operand stays resident in the PEs."""
        return {
            Dataflow.OUTPUT_STATIONARY: "ofmap",
            Dataflow.WEIGHT_STATIONARY: "filter",
            Dataflow.INPUT_STATIONARY: "ifmap",
        }[self]


@dataclass(frozen=True)
class GemmMapping:
    """A GEMM's dimensions assigned to spatial (Sr, Sc) and temporal (T) axes.

    ``sr_name``/``sc_name``/``t_name`` record which of M/N/K landed on
    each axis, which the trace engines use to build address patterns.
    """

    dataflow: Dataflow
    sr: int
    sc: int
    t: int
    sr_name: str
    sc_name: str
    t_name: str

    def __post_init__(self) -> None:
        for field_name in ("sr", "sc", "t"):
            value = getattr(self, field_name)
            if value < 1:
                raise MappingError(f"{field_name} must be >= 1, got {value}")

    def folds(self, rows: int, cols: int) -> int:
        """Number of spatial folds on an ``rows x cols`` array."""
        return ceil_div(self.sr, rows) * ceil_div(self.sc, cols)


def map_gemm(shape: GemmShape, dataflow: Dataflow) -> GemmMapping:
    """Assign GEMM dims to (Sr, Sc, T) per the paper's Table II."""
    if dataflow is Dataflow.INPUT_STATIONARY:
        return GemmMapping(dataflow, shape.k, shape.n, shape.m, "K", "N", "M")
    if dataflow is Dataflow.WEIGHT_STATIONARY:
        return GemmMapping(dataflow, shape.k, shape.m, shape.n, "K", "M", "N")
    return GemmMapping(dataflow, shape.m, shape.n, shape.k, "M", "N", "K")


def fold_cycles(rows: int, cols: int, t: int) -> int:
    """Cycles for one fold: ``2R + C + T - 2`` (preload, skew, stream, drain)."""
    if rows < 1 or cols < 1:
        raise MappingError(f"array dims must be >= 1, got {rows}x{cols}")
    if t < 1:
        raise MappingError(f"temporal extent must be >= 1, got {t}")
    return 2 * rows + cols + t - 2


def spatial_runtime(
    mapping: GemmMapping,
    rows: int,
    cols: int,
    partitions_row: int = 1,
    partitions_col: int = 1,
) -> int:
    """Eq. 1 — spatial partitioning runtime (Pr x Pc cores split Sr x Sc).

    With ``partitions_row == partitions_col == 1`` this is the plain
    single-core runtime.
    """
    sr_per_core = ceil_div(mapping.sr, partitions_row)
    sc_per_core = ceil_div(mapping.sc, partitions_col)
    folds = ceil_div(sr_per_core, rows) * ceil_div(sc_per_core, cols)
    return fold_cycles(rows, cols, mapping.t) * folds


def spatiotemporal1_runtime(
    mapping: GemmMapping,
    rows: int,
    cols: int,
    partitions_row: int = 1,
    partitions_col: int = 1,
) -> int:
    """Eq. 2 — partition Sr across Pr rows and T across Pc columns."""
    sr_per_core = ceil_div(mapping.sr, partitions_row)
    t_per_core = ceil_div(mapping.t, partitions_col)
    folds = ceil_div(sr_per_core, rows) * ceil_div(mapping.sc, cols)
    return fold_cycles(rows, cols, t_per_core) * folds


def spatiotemporal2_runtime(
    mapping: GemmMapping,
    rows: int,
    cols: int,
    partitions_row: int = 1,
    partitions_col: int = 1,
) -> int:
    """Eq. 3 — partition T across Pr rows and Sc across Pc columns."""
    t_per_core = ceil_div(mapping.t, partitions_row)
    sc_per_core = ceil_div(mapping.sc, partitions_col)
    folds = ceil_div(mapping.sr, rows) * ceil_div(sc_per_core, cols)
    return fold_cycles(rows, cols, t_per_core) * folds


def analytical_runtime(shape: GemmShape, dataflow: Dataflow, rows: int, cols: int) -> int:
    """Single-core runtime for a GEMM under a dataflow (Eq. 1, Pr=Pc=1)."""
    return spatial_runtime(map_gemm(shape, dataflow), rows, cols)


def mapping_efficiency(mapping: GemmMapping, rows: int, cols: int) -> float:
    """Average fraction of the array spatially occupied across folds.

    Edge folds map fewer than ``rows x cols`` useful elements; this is
    SCALE-Sim's "mapping efficiency" metric.  Summed over the folds,
    the used rows cover ``Sr`` and the used columns ``Sc`` exactly, so
    the occupied PE-folds are ``Sr * Sc`` (exact integers: the same
    float as the per-fold sum).
    """
    return mapping.sr * mapping.sc / (mapping.folds(rows, cols) * rows * cols)


def compute_utilization(shape: GemmShape, dataflow: Dataflow, rows: int, cols: int) -> float:
    """MACs per PE-cycle: ``macs / (R * C * runtime)``.

    Unlike :func:`mapping_efficiency` this also charges pipeline fill and
    drain, so it is always strictly smaller for finite workloads.
    """
    runtime = analytical_runtime(shape, dataflow, rows, cols)
    return shape.macs / (rows * cols * runtime)
