"""Layout-aware memory latency for whole layers (Figures 12 and 13).

Couples the cycle-accurate demand traces of :class:`TraceEngine` with
the bank-conflict evaluator seam: the ifmap SRAM is the multi-banked
buffer under study (it serves the highest-rate stream in every
dataflow), and each compute cycle's ifmap requests are costed under the
realistic bank model versus SCALE-Sim v2's flat bandwidth model.

Two entry points share one pipeline:

* :func:`evaluate_layout_slowdown` — one (banks, bandwidth, layout)
  configuration, a one-config fan-out.
* :func:`evaluate_layout_slowdown_many` — the **trace fan-out**: one
  streaming pass over the layer's fold traces feeds an arbitrary grid
  of evaluator configurations simultaneously.  The layout-independent
  work (operand matrices, trace generation, ifmap masking, the
  per-fold (cycle, offset) sort/dedup — see
  :class:`repro.layout.conflict.FoldDemand`) runs once; only the
  address -> (bank, line) mapping and the LRU stack-distance cascade
  run per configuration, with configurations sharing inter-line steps
  also sharing one (line, col) decode of the element space.  Results
  are bit-identical to independent calls: both paths consume the same
  artifacts, and the evaluators carry their bank state across calls.

The unit that flows down the pipeline is a **run**: ``(FoldDemand,
repeats)``, ``repeats`` consecutive folds with the same ifmap demand
(:meth:`TraceEngine.fold_runs`; in WS every column fold of a row fold
re-streams the same ifmap slice).  Each run's trace and artifact are
built once.  A long run reaches each evaluator in one call, which
evaluates copies only until the bank state stops changing; other runs
are expanded, and small consecutive folds are joined
(:meth:`FoldDemand.concat`) so each cascade call covers at least
``_FOLD_BATCH_OFFSETS`` offsets.  Runs stream with O(max(one fold,
batch budget)) memory; with an artifact store the layer's run list is
held instead, one artifact per run rather than per fold.

The vectorized evaluator (:mod:`repro.layout.conflict_vectorized`)
resolves each fold in a few numpy passes, which is what lets Figures
12/13 run at the paper's 128x128 array on full-layer traces; the scalar
:class:`~repro.layout.conflict.BankConflictEvaluator` is its executable
specification.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.dataflow import Dataflow
from repro.core.operand_matrix import FILTER_BASE, IFMAP_BASE, operand_matrices
from repro.core.systolic import TraceEngine
from repro.errors import LayoutError
from repro.layout.conflict import FoldDemand, build_fold_demand
from repro.layout.conflict_vectorized import (
    _FOLD_BATCH_OFFSETS,
    _LUT_MAX_ELEMENTS,
    VectorizedConflictEvaluator,
)
from repro.layout.spec import LayoutSpec, TensorView
from repro.store.artifact_store import active_store, canonical_artifact, content_address
from repro.topology.layer import ConvLayer, GemmLayer, Layer


@dataclass(frozen=True)
class LayoutEvalResult:
    """Layout-vs-bandwidth comparison for one layer."""

    layer_name: str
    dataflow: Dataflow
    num_banks: int
    total_bandwidth: int
    cycles_evaluated: int
    layout_cycles: int
    bandwidth_cycles: int
    slowdown: float


@dataclass(frozen=True)
class LayoutEvalConfig:
    """One evaluator configuration of a layout fan-out grid."""

    num_banks: int
    total_bandwidth_words: int
    ports_per_bank: int = 1
    layout: LayoutSpec | None = None
    row_buffers_per_bank: int = 4

    def resolve_layout(self, view: TensorView) -> LayoutSpec:
        """The configuration's layout (explicit, or the documented default)."""
        if self.total_bandwidth_words % self.num_banks:
            raise LayoutError(
                f"total bandwidth {self.total_bandwidth_words} not divisible by "
                f"{self.num_banks} banks"
            )
        if self.layout is not None:
            return self.layout
        return LayoutSpec.default_for(
            view,
            num_banks=self.num_banks,
            bandwidth_per_bank=self.total_bandwidth_words // self.num_banks,
            ports_per_bank=self.ports_per_bank,
        )


def _view_for_layer(layer: Layer) -> TensorView:
    if isinstance(layer, ConvLayer):
        return TensorView(c_dim=layer.channels, h_dim=layer.ifmap_h, w_dim=layer.ifmap_w)
    if isinstance(layer, GemmLayer):
        # X operand is K x N with addr = k * N + n: N plays "channel"
        # (fastest axis), K splits into a synthetic H x W.
        return TensorView.for_matrix(layer.k, layer.n)
    raise LayoutError(f"unsupported layer type: {type(layer).__name__}")


def fold_demand_store_key(
    layer: Layer,
    dataflow: Dataflow,
    array_rows: int,
    array_cols: int,
    max_folds: int | None,
) -> str:
    """Artifact-store content address of a layer's fold-demand stream.

    The stream is a pure function of (layer, dataflow, array shape) —
    no ``layout.*`` knob enters; ``max_folds`` is part of the key so
    capped studies never alias full-layer streams.
    """
    return content_address(
        "fold_demand",
        {
            "layer": canonical_artifact(layer),
            "dataflow": str(dataflow),
            "array_rows": array_rows,
            "array_cols": array_cols,
            "max_folds": max_folds,
        },
    )


def _fold_demand_stream(
    layer: Layer,
    dataflow: Dataflow,
    array_rows: int,
    array_cols: int,
    max_folds: int | None,
) -> Iterator[tuple[FoldDemand, int]]:
    """Each run's ``(ifmap demand artifact, repeats)``, in execution order.

    With an active artifact store the layer's whole run list is served
    from (or persisted to) disk — skipping trace generation and the
    per-fold (cycle, offset) sort entirely on a warm run — at the cost
    of materialising one artifact per run instead of streaming them.
    Without a store the runs stream lazily with O(one fold) memory.
    """
    store = active_store()
    if store is not None:
        key = fold_demand_store_key(layer, dataflow, array_rows, array_cols, max_folds)
        runs = store.get("fold_demand", key)
        if runs is None:
            runs = list(
                _generate_fold_demand(layer, dataflow, array_rows, array_cols, max_folds)
            )
            store.put("fold_demand", key, runs)
        return iter(runs)
    return _generate_fold_demand(layer, dataflow, array_rows, array_cols, max_folds)


def _generate_fold_demand(
    layer: Layer,
    dataflow: Dataflow,
    array_rows: int,
    array_cols: int,
    max_folds: int | None,
) -> Iterator[tuple[FoldDemand, int]]:
    """Yield each run's ``(ifmap demand artifact, repeats)``, in order.

    One artifact stands for ``repeats`` consecutive folds; a fold with
    ifmap demand on both port sides is one artifact, its row-port cycles
    first.  ``max_folds`` counts trace folds, so the run that reaches
    the cap is cut short.
    """
    engine = TraceEngine(operand_matrices(layer), dataflow, array_rows, array_cols)
    remaining = max_folds
    for fold, repeats in engine.fold_runs():
        if remaining is not None:
            if remaining < 1:
                break
            repeats = min(repeats, remaining)
            remaining -= repeats
        parts = []
        for matrix in (fold.row_port_demand, fold.col_port_demand):
            top = int(matrix.max()) if matrix.size else -1
            if top < IFMAP_BASE:
                continue  # bubbles only — the reference skips these too
            if top < FILTER_BASE:
                # Pure ifmap stream: feed the trace through unmasked.
                parts.append(build_fold_demand(matrix, base_offset=IFMAP_BASE))
                continue
            ifmap_only = np.where(
                (matrix >= IFMAP_BASE) & (matrix < FILTER_BASE), matrix, -1
            )
            if (ifmap_only >= 0).any():
                parts.append(build_fold_demand(ifmap_only, base_offset=IFMAP_BASE))
        if parts:
            yield FoldDemand.concat(parts), repeats
        if remaining == 0:
            break  # the cap is reached: trace no further fold


def _fold_batches(
    runs: Iterator[tuple[FoldDemand, int]],
) -> Iterator[tuple[FoldDemand, int]]:
    """Turn runs into ``(artifact, repeats)`` cascade calls.

    A run of at least three copies holding at least
    ``_FOLD_BATCH_OFFSETS`` offsets in all flushes the pending batch and
    passes alone, uncopied: the evaluator closes it after as few as two
    copies, so a shorter run would save nothing.  Every other run is
    expanded into consecutive folds, which are joined into batches: a
    batch is flushed once it holds at least ``_FOLD_BATCH_OFFSETS``
    offsets, and at the end of the stream.  A fold that alone reaches
    the budget is never joined or split: it flushes the pending batch
    and then passes alone.  Exact by :meth:`FoldDemand.concat`.
    """
    batch: list[FoldDemand] = []
    size = 0
    for fold, repeats in runs:
        if repeats >= 3 and repeats * fold.offsets.size >= _FOLD_BATCH_OFFSETS:
            if batch:
                yield FoldDemand.concat(batch), 1
                batch, size = [], 0
            yield fold, repeats
            continue
        for _ in range(repeats):
            if batch and fold.offsets.size >= _FOLD_BATCH_OFFSETS:
                yield FoldDemand.concat(batch), 1
                batch, size = [], 0
            batch.append(fold)
            size += fold.offsets.size
            if size >= _FOLD_BATCH_OFFSETS:
                yield FoldDemand.concat(batch), 1
                batch, size = [], 0
    if batch:
        yield FoldDemand.concat(batch), 1


def _make_evaluators(
    configs: Sequence[LayoutEvalConfig],
    layouts: Sequence[LayoutSpec],
) -> list[VectorizedConflictEvaluator]:
    """Build one evaluator per configuration, sharing decode work.

    Evaluators whose layouts share inter-line steps decode
    the element space once (one ``locate`` call) and derive each
    configuration's (bank, line) LUT from it — bit-exact to the LUT
    each would lazily build on its own.
    """
    evaluators = [
        VectorizedConflictEvaluator(
            layout,
            bandwidth_model_words=cfg.total_bandwidth_words,
            row_buffers_per_bank=cfg.row_buffers_per_bank,
        )
        for cfg, layout in zip(configs, layouts)
    ]
    by_steps: dict[
        tuple[TensorView, int, int, int], list[VectorizedConflictEvaluator]
    ] = {}
    for evaluator, layout in zip(evaluators, layouts):
        if layout.view.num_elements <= _LUT_MAX_ELEMENTS:
            # Keyed by the full (view, steps) decode identity: explicit
            # layouts may view the operand differently, and sharing a
            # decode across views would be wrong.
            steps = (layout.view, layout.c1_step, layout.h1_step, layout.w1_step)
            by_steps.setdefault(steps, []).append(evaluator)
    for group in by_steps.values():
        if len(group) < 2:
            continue  # a lone config's lazy LUT costs the same
        element_space = np.arange(group[0].layout.view.num_elements, dtype=np.int64)
        line_id, col_id, _ = group[0].layout.locate(element_space)
        for evaluator in group:
            evaluator.prime_key_lut(line_id, col_id)
    return evaluators


def _results_from_evaluators(
    layer: Layer,
    dataflow: Dataflow,
    configs: Sequence[LayoutEvalConfig],
    evaluators: Sequence[VectorizedConflictEvaluator],
) -> list[LayoutEvalResult]:
    return [
        LayoutEvalResult(
            layer_name=layer.name,
            dataflow=dataflow,
            num_banks=cfg.num_banks,
            total_bandwidth=cfg.total_bandwidth_words,
            cycles_evaluated=evaluator.cycles_evaluated,
            layout_cycles=evaluator.total_layout_cycles,
            bandwidth_cycles=evaluator.total_bandwidth_cycles,
            slowdown=evaluator.slowdown,
        )
        for cfg, evaluator in zip(configs, evaluators)
    ]


# ------------------------------------------------------------ entry points


def evaluate_layout_slowdown_many(
    layer: Layer,
    dataflow: Dataflow | str,
    array_rows: int,
    array_cols: int,
    configs: Sequence[LayoutEvalConfig],
    max_folds: int | None = None,
) -> list[LayoutEvalResult]:
    """Evaluate a whole grid of layout configurations in one trace pass.

    Generates each run of identical folds' demand artifact once (in WS
    a row fold's ``folds_col`` folds share one), feeds long runs to
    every configuration's evaluator in one call each, joins the other
    folds into batches of at least ``_FOLD_BATCH_OFFSETS`` offsets, and
    broadcasts each batch the same way.  Memory is O(max(one fold,
    batch budget)).  Results come back in ``configs`` order and are
    bit-identical to ``len(configs)`` independent
    :func:`evaluate_layout_slowdown` calls and to the per-fold scalar
    reference fed from :meth:`TraceEngine.fold_traces` (enforced by
    ``tests/layout/test_fanout_equivalence.py``).

    Args:
        configs: the evaluator configurations to fan out over.
        max_folds: cap on folds traced (None, the default, traces the
            full layer).
    """
    if isinstance(dataflow, str):
        dataflow = Dataflow.parse(dataflow)
    configs = list(configs)
    if not configs:
        return []
    view = _view_for_layer(layer)
    layouts = [cfg.resolve_layout(view) for cfg in configs]
    stream = _fold_demand_stream(layer, dataflow, array_rows, array_cols, max_folds)

    evaluators = _make_evaluators(configs, layouts)
    for batch, repeats in _fold_batches(stream):
        for evaluator in evaluators:
            evaluator.add_fold_demand(batch, repeats=repeats)
    return _results_from_evaluators(layer, dataflow, configs, evaluators)


def evaluate_layout_slowdown(
    layer: Layer,
    dataflow: Dataflow | str,
    array_rows: int,
    array_cols: int,
    num_banks: int,
    total_bandwidth_words: int,
    ports_per_bank: int = 1,
    layout: LayoutSpec | None = None,
    max_folds: int | None = None,
) -> LayoutEvalResult:
    """Slowdown of the banked-layout model versus the flat-BW model.

    Args:
        total_bandwidth_words: the on-chip bandwidth both models share;
            the layout model splits it evenly across ``num_banks``.
        layout: explicit layout; defaults to
            :meth:`LayoutSpec.default_for` on the layer's ifmap view.
        max_folds: cap on folds traced (None, the default, traces the
            full layer).
    """
    [result] = evaluate_layout_slowdown_many(
        layer,
        dataflow,
        array_rows,
        array_cols,
        [
            LayoutEvalConfig(
                num_banks=num_banks,
                total_bandwidth_words=total_bandwidth_words,
                ports_per_bank=ports_per_bank,
                layout=layout,
            )
        ],
        max_folds=max_folds,
    )
    return result
