"""Report emission (SCALE-Sim's COMPUTE / BANDWIDTH / DETAILED reports).

SCALE-Sim writes one CSV per report kind per run; we reproduce the same
trio plus v3's additions (which live in their feature packages):

* ``COMPUTE_REPORT.csv``   — cycles, stalls, utilisation per layer.
* ``BANDWIDTH_REPORT.csv`` — average SRAM/DRAM bandwidth per layer.
* ``DETAILED_ACCESS_REPORT.csv`` — per-operand SRAM/DRAM access counts.
* :func:`write_sweep_report` — one row per :mod:`repro.run.sweep` point.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReportError
from repro.utils.csvio import write_csv

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulator import LayerResult
    from repro.run.sweep import SweepFailure, SweepResult


def write_compute_report(results: list["LayerResult"], out_dir: str | Path) -> Path:
    """Write COMPUTE_REPORT.csv; returns the file path."""
    header = [
        "LayerID",
        "LayerName",
        "Dataflow",
        "ComputeCycles",
        "StallCycles",
        "ColdStartCycles",
        "TotalCycles",
        "MappingEfficiency%",
        "ComputeUtilization%",
    ]
    rows = []
    for index, result in enumerate(results):
        rows.append(
            [
                index,
                result.layer_name,
                result.compute.dataflow.value,
                result.compute.compute_cycles,
                result.timeline.stall_cycles,
                result.timeline.cold_start_cycles,
                result.total_cycles,
                f"{result.compute.mapping_efficiency * 100:.2f}",
                f"{result.compute.compute_utilization * 100:.2f}",
            ]
        )
    return write_csv(Path(out_dir) / "COMPUTE_REPORT.csv", header, rows)


def write_bandwidth_report(results: list["LayerResult"], out_dir: str | Path) -> Path:
    """Write BANDWIDTH_REPORT.csv; returns the file path."""
    header = [
        "LayerID",
        "LayerName",
        "AvgIfmapSramBw(words/cycle)",
        "AvgFilterSramBw(words/cycle)",
        "AvgOfmapSramBw(words/cycle)",
        "AvgDramBw(words/cycle)",
        "DramBackpressureStall%",
        "AvgDramBwInclDrain(words/cycle)",
    ]
    rows = []
    for index, result in enumerate(results):
        cycles = max(1, result.total_cycles)
        compute = result.compute
        drained_cycles = max(1, result.total_cycles + result.drain_cycles)
        rows.append(
            [
                index,
                result.layer_name,
                f"{compute.ifmap_sram_reads / cycles:.4f}",
                f"{compute.filter_sram_reads / cycles:.4f}",
                f"{compute.ofmap_sram_writes / cycles:.4f}",
                f"{compute.total_dram_words / cycles:.4f}",
                f"{result.backpressure_stall_cycles / cycles * 100:.2f}",
                f"{compute.total_dram_words / drained_cycles:.4f}",
            ]
        )
    return write_csv(Path(out_dir) / "BANDWIDTH_REPORT.csv", header, rows)


def write_detailed_report(results: list["LayerResult"], out_dir: str | Path) -> Path:
    """Write DETAILED_ACCESS_REPORT.csv; returns the file path."""
    header = [
        "LayerID",
        "LayerName",
        "IfmapSramReads",
        "FilterSramReads",
        "OfmapSramWrites",
        "DramIfmapWords",
        "DramFilterWords",
        "DramOfmapWriteWords",
        "DramOfmapReadbackWords",
        "DramBackpressureStallCycles",
        "DramDrainCycles",
    ]
    rows = []
    for index, result in enumerate(results):
        compute = result.compute
        rows.append(
            [
                index,
                result.layer_name,
                compute.ifmap_sram_reads,
                compute.filter_sram_reads,
                compute.ofmap_sram_writes,
                compute.dram_ifmap_words,
                compute.dram_filter_words,
                compute.dram_ofmap_write_words,
                compute.dram_ofmap_readback_words,
                result.backpressure_stall_cycles,
                result.drain_cycles,
            ]
        )
    return write_csv(Path(out_dir) / "DETAILED_ACCESS_REPORT.csv", header, rows)


def write_sweep_report(results: list["SweepResult"], path: str | Path) -> Path:
    """Write one CSV row per sweep point, in grid order.

    Columns are the point id, the workload, one column per sweep axis,
    and the headline metrics.  Timing and cache provenance are left out
    on purpose: the file's bytes depend only on the simulated inputs, so
    serial and parallel sweeps of the same spec produce identical files.
    """
    if not results:
        raise ReportError(f"refusing to write an empty sweep report to {path}")
    axis_names = [name for name, _ in results[0].assignment]
    header = [
        "PointID",
        "Topology",
        *axis_names,
        "TotalCycles",
        "ComputeCycles",
        "StallCycles",
        "SparseComputeCycles",
        "EnergyMJ",
        "EdP",
    ]
    rows = []
    for result in results:
        assignment = result.assignment_dict
        if list(assignment) != axis_names:
            raise ReportError(
                f"sweep point {result.index} has axes {list(assignment)}, "
                f"expected {axis_names}"
            )
        rows.append(
            [
                result.index,
                result.topology_name,
                *[assignment[name] for name in axis_names],
                result.total_cycles,
                result.total_compute_cycles,
                result.total_stall_cycles,
                result.sparse_compute_cycles,
                f"{result.energy_mj:.6f}",
                f"{result.edp:.6f}",
            ]
        )
    return write_csv(path, header, rows)


def write_layout_sweep_report(results: list["SweepResult"], path: str | Path) -> Path:
    """Write one CSV row per (sweep point, layer) layout evaluation.

    The sweep counterpart of the per-run ``LAYOUT_REPORT.csv``: sweeps
    whose configs enable the layout study carry per-layer
    :class:`~repro.layout.integrate.LayoutEvalResult` rows on every
    point (computed through the trace fan-out when points differ only
    in ``layout.*`` axes).  Like :func:`write_sweep_report`, the bytes
    depend only on the simulated inputs.  The ``Evaluator`` column is
    kept for a stable format and always reads ``vectorized``.
    """
    header = [
        "PointID",
        "LayerID",
        "LayerName",
        "Dataflow",
        "NumBanks",
        "TotalBandwidth",
        "Evaluator",
        "CyclesEvaluated",
        "LayoutCycles",
        "BandwidthCycles",
        "Slowdown",
    ]
    rows = []
    for result in results:
        for layer_id, layout in enumerate(result.layout_results):
            rows.append(
                [
                    result.index,
                    layer_id,
                    layout.layer_name,
                    layout.dataflow.value,
                    layout.num_banks,
                    layout.total_bandwidth,
                    "vectorized",
                    layout.cycles_evaluated,
                    layout.layout_cycles,
                    layout.bandwidth_cycles,
                    f"{layout.slowdown:+.6f}",
                ]
            )
    if not rows:
        raise ReportError(
            f"refusing to write an empty layout sweep report to {path}"
        )
    return write_csv(path, header, rows)


def _single_line(text: str, limit: int = 600) -> str:
    """Flatten a traceback for a CSV cell, keeping its *tail*.

    The last frames and the exception line are the informative part of
    a traceback; everything above them is scaffolding, so truncation
    drops the head.
    """
    flat = " | ".join(part for part in text.strip().splitlines() if part.strip())
    if len(flat) > limit:
        flat = "..." + flat[-limit:]
    return flat


def write_failure_report(failures: list["SweepFailure"], path: str | Path) -> Path:
    """Write one CSV row per failed sweep point (``degrade`` policy).

    The companion file of :func:`write_sweep_report`: a degraded sweep
    writes its computable points to the normal report (those rows stay
    byte-identical to a fault-free run) and the rest here — the point's
    identity and axis assignment, how many attempts it burned, and the
    tail of its last traceback.  An empty failure list writes a
    header-only file, so the file's presence alone never has to be
    interpreted.
    """
    header = [
        "PointID",
        "Topology",
        "Assignment",
        "Attempts",
        "ErrorClass",
        "Error",
    ]
    rows = []
    for failure in failures:
        assignment = " ".join(
            f"{name}={value}" for name, value in failure.assignment
        )
        rows.append(
            [
                failure.index,
                failure.topology_name,
                assignment,
                failure.attempts,
                failure.error_class,
                _single_line(failure.traceback_text or failure.message),
            ]
        )
    return write_csv(path, header, rows)
