"""Randomized fan-out equivalence: one trace pass == N independent calls.

``evaluate_layout_slowdown_many`` must be *bit-identical* to running
``evaluate_layout_slowdown`` once per configuration, and to feeding the
layer's fold demands to the scalar ``BankConflictEvaluator`` — for mixed
grids (bank counts, bandwidths, ports, explicit layouts, row-buffer
depths), across multiple folds (cross-fold LRU state rides on the shared
artifacts), and regardless of how configurations share (or don't share)
inter-line steps.  The artifact layer itself (``FoldDemand`` /
``add_fold_demand``) is fuzzed against ``add_demand_matrix`` for both
evaluator implementations, and the fan-out's fold batching
(``FoldDemand.concat``) against one call per fold.  Runs of identical
folds are checked on both sides: ``TraceEngine.fold_runs`` expanded
must equal ``fold_traces`` fold for fold, and an evaluator's closed
run (``add_fold_demand(..., repeats=r)``) must equal ``r`` reference
copies.  The spec side never uses runs: ``_reference_result`` feeds the
scalar evaluator straight from ``fold_traces``.
"""

import random
from itertools import islice

import numpy as np
import pytest

from repro.config.system import (
    ArchitectureConfig,
    LayoutConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.dataflow import Dataflow
from repro.core.operand_matrix import FILTER_BASE, IFMAP_BASE, operand_matrices
from repro.core.systolic import TraceEngine
from repro.errors import LayoutError
from repro.layout.conflict import (
    BankConflictEvaluator,
    CycleCost,
    FoldDemand,
    build_fold_demand,
)
from repro.layout.conflict_vectorized import (
    _FOLD_BATCH_OFFSETS,
    VectorizedConflictEvaluator,
)
from repro.layout.integrate import (
    LayoutEvalConfig,
    LayoutEvalResult,
    _fold_batches,
    _generate_fold_demand,
    evaluate_layout_slowdown,
    evaluate_layout_slowdown_many,
)
from repro.layout.spec import LayoutSpec, TensorView
from repro.run.runner import _layout_config
from repro.run.sweep import Axis, SweepRunner, SweepSpec
from repro.topology.layer import ConvLayer, GemmLayer
from repro.topology.topology import Topology


def _conv(rng: random.Random) -> ConvLayer:
    return ConvLayer(
        name="c",
        ifmap_h=rng.randint(6, 14),
        ifmap_w=rng.randint(6, 14),
        filter_h=3,
        filter_w=3,
        channels=rng.choice((4, 8, 16)),
        num_filters=rng.choice((8, 16)),
    )


def _gemm(rng: random.Random) -> GemmLayer:
    return GemmLayer(
        "g", m=rng.randint(16, 48), n=rng.randint(16, 64), k=rng.randint(8, 40)
    )


def _random_grid(rng: random.Random, view: TensorView) -> list[LayoutEvalConfig]:
    configs: list[LayoutEvalConfig] = []
    for _ in range(rng.randint(2, 7)):
        num_banks = rng.choice((1, 2, 4, 8))
        bandwidth = num_banks * rng.choice((1, 2, 4, 8, 16))
        layout = None
        if rng.random() < 0.25:
            capacity = bandwidth
            c1 = rng.randint(1, max(1, min(view.c_dim, capacity)))
            h1 = rng.randint(1, max(1, capacity // c1))
            w1 = rng.randint(1, max(1, capacity // (c1 * h1)))
            layout = LayoutSpec(
                view=view,
                c1_step=c1,
                h1_step=h1,
                w1_step=w1,
                num_banks=num_banks,
                bandwidth_per_bank=bandwidth // num_banks,
            )
        ports = rng.choice((1, 1, 2))
        rng.randrange(3)  # spare draw (the retired evaluator choice): seeds keep their grids
        configs.append(
            LayoutEvalConfig(
                num_banks=num_banks,
                total_bandwidth_words=bandwidth,
                ports_per_bank=ports,
                layout=layout,
                row_buffers_per_bank=rng.choice((1, 2, 4)),
            )
        )
    return configs


def _view_for(layer) -> TensorView:
    if isinstance(layer, ConvLayer):
        return TensorView(layer.channels, layer.ifmap_h, layer.ifmap_w)
    return TensorView.for_matrix(layer.k, layer.n)


def _ifmap_matrices(fold) -> list[np.ndarray]:
    """A trace fold's ifmap requests per port side (others masked to -1)."""
    return [
        np.where((matrix >= IFMAP_BASE) & (matrix < FILTER_BASE), matrix, -1)
        for matrix in (fold.row_port_demand, fold.col_port_demand)
    ]


def _reference_result(layer, dataflow, array, cfg, max_folds=None) -> LayoutEvalResult:
    """``cfg``'s result from the scalar ``BankConflictEvaluator``, the spec.

    Fed fold by fold from ``TraceEngine.fold_traces()``, one
    ``add_demand_matrix`` call per port side with ifmap requests, so it
    shares neither the run logic nor the ``FoldDemand`` artifacts.
    """
    dataflow = Dataflow.parse(dataflow) if isinstance(dataflow, str) else dataflow
    evaluator = BankConflictEvaluator(
        cfg.resolve_layout(_view_for(layer)),
        bandwidth_model_words=cfg.total_bandwidth_words,
        row_buffers_per_bank=cfg.row_buffers_per_bank,
    )
    engine = TraceEngine(operand_matrices(layer), dataflow, array, array)
    for fold in islice(engine.fold_traces(), max_folds):
        for matrix in _ifmap_matrices(fold):
            if (matrix >= 0).any():
                evaluator.add_demand_matrix(matrix, base_offset=IFMAP_BASE)
    return LayoutEvalResult(
        layer_name=layer.name,
        dataflow=dataflow,
        num_banks=cfg.num_banks,
        total_bandwidth=cfg.total_bandwidth_words,
        cycles_evaluated=evaluator.cycles_evaluated,
        layout_cycles=evaluator.total_layout_cycles,
        bandwidth_cycles=evaluator.total_bandwidth_cycles,
        slowdown=evaluator.slowdown,
    )


def test_fanout_is_bit_identical_to_independent_calls():
    """Mixed config grids over full multi-fold traces, checked against the spec."""
    for trial in range(12):
        rng = random.Random(31_000 + 7 * trial)
        layer = _conv(rng) if rng.random() < 0.6 else _gemm(rng)
        dataflow = rng.choice(("ws", "is", "os"))
        array = rng.choice((4, 8))
        view = _view_for(layer)
        configs = _random_grid(rng, view)
        max_folds = rng.choice((None, None, 2, 5))

        many = evaluate_layout_slowdown_many(
            layer, dataflow, array, array, configs, max_folds=max_folds
        )
        independent = [
            evaluate_layout_slowdown(
                layer,
                dataflow,
                array,
                array,
                cfg.num_banks,
                cfg.total_bandwidth_words,
                ports_per_bank=cfg.ports_per_bank,
                layout=cfg.layout,
                max_folds=max_folds,
            )
            for cfg in configs
        ]
        reference = [
            _reference_result(layer, dataflow, array, cfg, max_folds) for cfg in configs
        ]
        assert many == reference, trial
        # row_buffers_per_bank is not exposed by the single-call API;
        # compare those configs against a 4-deep independent grid run.
        for m, i, cfg in zip(many, independent, configs):
            if cfg.row_buffers_per_bank == 4:
                assert m == i, (trial, cfg)
            else:
                assert m.cycles_evaluated == i.cycles_evaluated, (trial, cfg)
                assert m.bandwidth_cycles == i.bandwidth_cycles, (trial, cfg)

        # Non-default row-buffer depths: a 1-config fan-out is the
        # independent call for that depth; grids must agree with it.
        deep = [cfg for cfg in configs if cfg.row_buffers_per_bank != 4]
        if deep:
            singles = [
                evaluate_layout_slowdown_many(
                    layer, dataflow, array, array, [cfg], max_folds=max_folds
                )[0]
                for cfg in deep
            ]
            grid = [m for m, cfg in zip(many, configs) if cfg.row_buffers_per_bank != 4]
            assert grid == singles, trial


def test_fanout_parallel_matches_serial():
    """A split ``layout.*`` sweep unit == the serial unit == the fan-out.

    A random ``LayoutEvalConfig`` grid (explicit layouts, row-buffer
    depths) is no sweep cross, so this sweeps random ``layout.*`` axes;
    ``SweepRunner(workers=3)`` deals the lone unit's layout configs over
    three sub-units, each streaming the trace again for its share.
    """
    rng = random.Random(777)
    layer = _conv(rng)
    spec = SweepSpec(
        base=SystemConfig(
            arch=ArchitectureConfig(array_rows=8, array_cols=8, dataflow="ws"),
            layout=LayoutConfig(enabled=True),
            run=RunConfig(run_name="split"),
        ),
        axes=[
            Axis("layout.num_banks", tuple(rng.sample((1, 2, 4, 8), 3))),
            Axis("layout.bandwidth_per_bank_words", tuple(rng.sample((1, 2, 4, 8), 2))),
            Axis("layout.ports_per_bank", (1, 2)),
        ],
        topologies=[Topology("fuzz", [layer])],
        name="split",
    )
    serial = SweepRunner(workers=1).run(spec)
    runner = SweepRunner(workers=3)
    parallel = runner.run(spec)
    assert tuple(runner.last_grouping) == (len(spec.expand()), 3)
    assert [r.layout_results for r in parallel] == [r.layout_results for r in serial]
    configs = [_layout_config(result.config) for result in parallel]
    fanout = evaluate_layout_slowdown_many(layer, "ws", 8, 8, configs)
    assert [r.layout_results for r in parallel] == [[result] for result in fanout]
    assert fanout == [_reference_result(layer, "ws", 8, cfg) for cfg in configs]


def test_fanout_preserves_config_order_and_metadata():
    rng = random.Random(5)
    layer = _gemm(rng)
    configs = [
        LayoutEvalConfig(num_banks=1, total_bandwidth_words=8),
        LayoutEvalConfig(num_banks=8, total_bandwidth_words=64),
        LayoutEvalConfig(num_banks=2, total_bandwidth_words=16),
    ]
    results = evaluate_layout_slowdown_many(layer, Dataflow.WEIGHT_STATIONARY, 4, 4, configs)
    assert [r.num_banks for r in results] == [1, 8, 2]
    assert [r.total_bandwidth for r in results] == [8, 64, 16]
    assert results[0].dataflow is Dataflow.WEIGHT_STATIONARY


def test_fanout_empty_grid():
    assert evaluate_layout_slowdown_many(_gemm(random.Random(1)), "ws", 4, 4, []) == []


def test_fold_demand_feed_matches_matrix_feed():
    """add_fold_demand == add_demand_matrix, both evaluators, chunked."""
    for trial in range(15):
        rng = random.Random(52_000 + trial)
        view = TensorView(rng.randint(1, 16), rng.randint(1, 10), rng.randint(1, 10))
        num_banks = rng.choice((1, 2, 4))
        bandwidth = rng.randint(1, 6)
        layout = LayoutSpec.default_for(
            view, num_banks=num_banks, bandwidth_per_bank=bandwidth
        )
        for name, evaluator in (
            ("reference", BankConflictEvaluator),
            ("vectorized", VectorizedConflictEvaluator),
        ):
            direct = evaluator(layout, 16, row_buffers_per_bank=2)
            via_artifact = evaluator(layout, 16, row_buffers_per_bank=2)
            for _ in range(rng.randint(1, 4)):
                rows, ports = rng.randint(1, 30), rng.randint(1, 6)
                base = rng.choice((0, 1000))
                demand = np.full((rows, ports), -1, dtype=np.int64)
                mask = np.random.default_rng(trial).random((rows, ports)) < 0.7
                demand[mask] = (
                    np.random.default_rng(trial + 1).integers(
                        0, 2 * view.num_elements, mask.sum()
                    )
                    + base
                )
                direct_costs = direct.add_demand_matrix(
                    demand, base_offset=base, return_costs=True
                )
                artifact_costs = via_artifact.add_fold_demand(
                    build_fold_demand(demand, base_offset=base), return_costs=True
                )
                assert direct_costs == artifact_costs, (trial, name)
            assert direct.total_layout_cycles == via_artifact.total_layout_cycles
            assert direct.total_bandwidth_cycles == via_artifact.total_bandwidth_cycles
            assert direct.total_requests == via_artifact.total_requests
            assert direct.cycles_evaluated == via_artifact.cycles_evaluated


def _small_fold(np_rng: np.random.Generator, view: TensorView) -> FoldDemand:
    """A random fold of a few cycles, some of them without requests."""
    rows, ports = int(np_rng.integers(1, 12)), int(np_rng.integers(1, 6))
    demand = np.full((rows, ports), -1, dtype=np.int64)
    mask = np_rng.random((rows, ports)) < 0.6
    mask[np_rng.random(rows) < 0.2] = False  # whole cycles of bubbles
    demand[mask] = np_rng.integers(0, view.num_elements, int(mask.sum()))
    return build_fold_demand(demand)


def _big_fold(view: TensorView, ports: int) -> FoldDemand:
    """A fold that alone reaches the batch budget (distinct offsets per cycle)."""
    rows = -(-_FOLD_BATCH_OFFSETS // ports) + 3
    demand = np.arange(rows * ports, dtype=np.int64).reshape(rows, ports)
    fold = build_fold_demand(demand % view.num_elements)
    assert fold.offsets.size >= _FOLD_BATCH_OFFSETS
    return fold


def test_concatenated_folds_match_per_fold_calls():
    """One call on ``FoldDemand.concat(batch)`` == one call per fold.

    Runs of small folds (with bubble-only cycles) and a fold over the
    batch budget between them go to both evaluators three ways: one
    call per fold, random consecutive batches joined by
    ``FoldDemand.concat``, and the fan-out's own ``_fold_batches``.
    Every row-buffer depth carries LRU state across batch edges.
    """
    for trial in range(8):
        rng = random.Random(61_000 + trial)
        np_rng = np.random.default_rng(61_000 + trial)
        view = TensorView(rng.choice((4, 8, 16)), rng.randint(2, 8), rng.randint(2, 8))
        num_banks = rng.choice((1, 2, 4))
        layout = LayoutSpec.default_for(
            view, num_banks=num_banks, bandwidth_per_bank=rng.randint(1, 6)
        )
        folds = [_small_fold(np_rng, view) for _ in range(rng.randint(4, 40))]
        if rng.random() < 0.5:
            big = _big_fold(view, ports=min(32, view.num_elements))
            folds.insert(rng.randrange(1, len(folds)), big)
        cuts = sorted(rng.sample(range(1, len(folds)), rng.randint(0, 3)))
        batches = [
            folds[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(folds)])
        ]
        fan_out = [batch for batch, _ in _fold_batches((fold, 1) for fold in folds)]
        assert len(fan_out) < len(folds), trial
        for evaluator_cls in (BankConflictEvaluator, VectorizedConflictEvaluator):
            for row_buffers in (1, 2, 4):
                feeds = {
                    "per_fold": [[fold] for fold in folds],
                    "batched": batches,
                    "fan_out": [[batch] for batch in fan_out],
                }
                evaluators = {}
                costs = {}
                for name, feed in feeds.items():
                    evaluator = evaluator_cls(layout, 8, row_buffers_per_bank=row_buffers)
                    costs[name] = [
                        cost
                        for batch in feed
                        for cost in evaluator.add_fold_demand(
                            FoldDemand.concat(batch), return_costs=True
                        )
                    ]
                    evaluators[name] = evaluator
                case = (trial, evaluator_cls.__name__, row_buffers)
                expected = evaluators["per_fold"]
                for name in ("batched", "fan_out"):
                    assert costs[name] == costs["per_fold"], (case, name)
                    got = evaluators[name]
                    assert got.total_layout_cycles == expected.total_layout_cycles, case
                    assert got.total_bandwidth_cycles == expected.total_bandwidth_cycles, case
                    assert got.total_requests == expected.total_requests, case
                    assert got.cycles_evaluated == expected.cycles_evaluated, case


def test_fold_batches_pass_big_folds_alone():
    """A fold over the budget is never joined: it passes through uncopied."""
    np_rng = np.random.default_rng(3)
    view = TensorView(8, 8, 8)
    big = _big_fold(view, ports=32)
    small = [_small_fold(np_rng, view) for _ in range(5)]
    runs = [(fold, 1) for fold in [*small[:2], big, *small[2:]]]
    batches = [batch for batch, _ in _fold_batches(iter(runs))]
    assert len(batches) == 3
    assert batches[1] is big
    assert batches[0].cycles == small[0].cycles + small[1].cycles
    assert FoldDemand.concat([big]) is big


def test_fold_batches_pass_long_runs_alone():
    """A run of >= 3 copies over the budget passes alone; other runs expand."""
    np_rng = np.random.default_rng(4)
    view = TensorView(8, 8, 8)
    big = _big_fold(view, ports=32)
    small = [_small_fold(np_rng, view) for _ in range(4)]
    tiny = small[3]
    long_tiny = -(-_FOLD_BATCH_OFFSETS // tiny.offsets.size)
    runs = [
        (small[0], 1),
        (small[1], 2),
        (big, 3),  # passes alone
        (small[2], 3),  # three copies, far below the budget: expanded
        (tiny, long_tiny),  # passes alone
        (big, 2),  # two copies: expanded, each big copy alone
    ]
    out = list(_fold_batches(iter(runs)))
    assert [repeats for _, repeats in out] == [1, 3, 1, long_tiny, 1, 1]
    assert out[1][0] is big and out[3][0] is tiny
    assert out[4][0] is big and out[5][0] is big
    assert out[0][0].cycles == small[0].cycles + 2 * small[1].cycles
    assert out[2][0].cycles == 3 * small[2].cycles
    assert sum(b.cycles * r for b, r in out) == sum(f.cycles * r for f, r in runs)


def test_fold_runs_expand_to_fold_traces():
    """``fold_runs`` expanded == ``fold_traces``'s ifmap demand, fold for fold.

    Random GEMM/conv layers on random (non-square) arrays, every
    dataflow.  WS collapses each row fold's ``folds_col`` folds into one
    run; OS and IS never repeat.
    """
    repeated = 0
    for trial in range(24):
        rng = random.Random(71_000 + trial)
        layer = _conv(rng) if rng.random() < 0.5 else _gemm(rng)
        rows, cols = rng.choice((2, 3, 4, 8)), rng.choice((2, 3, 4, 8))
        for dataflow in Dataflow:
            engine = TraceEngine(operand_matrices(layer), dataflow, rows, cols)
            runs = list(engine.fold_runs())
            expanded = [fold for fold, repeats in runs for _ in range(repeats)]
            traces = list(engine.fold_traces())
            case = (trial, dataflow, rows, cols)
            assert len(expanded) == len(traces), case
            for got, want in zip(expanded, traces):
                assert got.cycles == want.cycles, case
                for a, b in zip(_ifmap_matrices(got), _ifmap_matrices(want)):
                    assert np.array_equal(a, b), case
            if dataflow is Dataflow.WEIGHT_STATIONARY:
                assert len(runs) == engine.folds_row, case
                repeated += engine.folds_col > 1
            else:
                assert all(repeats == 1 for _, repeats in runs), case
    assert repeated > 0


def test_closed_runs_match_reference_copies(monkeypatch):
    """``add_fold_demand(fold, repeats=r)`` == ``r`` copies on the reference.

    Runs of small and big folds, from cold and from carried bank state,
    at every row-buffer depth, with and without per-cycle costs, and
    through the fan-out's ``_fold_batches``.  An LRU bank holds the most
    recent distinct lines, so a copy's outgoing state depends only on
    the fold once its lines are in: no run needs more than two
    evaluations.  A first copy that changes the state must not close
    the run.
    """
    evaluations = []
    evaluate = VectorizedConflictEvaluator._evaluate_fold

    def counting(self, fold, accumulate, return_costs):
        evaluations.append(fold)
        return evaluate(self, fold, accumulate, return_costs)

    monkeypatch.setattr(VectorizedConflictEvaluator, "_evaluate_fold", counting)
    for trial in range(6):
        rng = random.Random(73_000 + trial)
        np_rng = np.random.default_rng(73_000 + trial)
        view = TensorView(rng.choice((4, 8, 16)), rng.randint(2, 8), rng.randint(2, 8))
        layout = LayoutSpec.default_for(
            view,
            num_banks=rng.choice((1, 2, 4)),
            bandwidth_per_bank=rng.randint(1, 6),
        )
        runs = []
        for _ in range(rng.randint(3, 8)):
            fold = _small_fold(np_rng, view)
            long = -(-_FOLD_BATCH_OFFSETS // max(1, fold.offsets.size))
            runs.append((fold, rng.choice((1, 2, 3, 5, long))))
        if rng.random() < 0.5:
            big = _big_fold(view, ports=min(32, view.num_elements))
            runs.insert(rng.randrange(len(runs)), (big, rng.choice((2, 3, 4))))
        for row_buffers in (1, 2, 4, 8):
            case = (trial, row_buffers)
            reference = BankConflictEvaluator(layout, 8, row_buffers_per_bank=row_buffers)
            closed = VectorizedConflictEvaluator(layout, 8, row_buffers_per_bank=row_buffers)
            batched = VectorizedConflictEvaluator(layout, 8, row_buffers_per_bank=row_buffers)
            for fold, repeats in runs:
                want = reference.add_fold_demand(fold, True, repeats)
                del evaluations[:]
                assert closed.add_fold_demand(fold, True, repeats) == want, case
                assert len(evaluations) <= 2, case
            for batch, repeats in _fold_batches(iter(runs)):
                assert batched.add_fold_demand(batch, repeats=repeats) is None
            for got in (closed, batched):
                assert got.total_layout_cycles == reference.total_layout_cycles, case
                assert got.total_bandwidth_cycles == reference.total_bandwidth_cycles, case
                assert got.total_requests == reference.total_requests, case
                assert got.cycles_evaluated == reference.cycles_evaluated, case


class _DriftingEvaluator(VectorizedConflictEvaluator):
    """A stand-in cascade whose state only repeats every ``period`` copies.

    Each evaluation charges cycles that depend on the incoming state,
    then advances it; the state returns to its start only at the end of
    a period, so a run's closure must keep evaluating until it does.
    """

    def __init__(self, layout: LayoutSpec, period: int) -> None:
        super().__init__(layout, bandwidth_model_words=8)
        self.period = period
        self._bank_lines = {0: [0]}

    def _evaluate_fold(self, fold, accumulate, return_costs):
        step = self._bank_lines[0][0]
        settled = step == self.period - 1
        self._bank_lines = {0: [step if settled else step + 1]}
        cost = CycleCost(fold.cycles, step + 1, 1)
        self.total_layout_cycles += cost.layout_cycles
        self.total_bandwidth_cycles += 1
        self.total_requests += cost.requests
        self.cycles_evaluated += 1
        return [cost] if return_costs else None


def test_closure_waits_for_a_copy_that_keeps_its_state():
    """A run closes only once a copy hands on the state it received."""
    layout = LayoutSpec.default_for(TensorView(4, 4, 4), num_banks=2, bandwidth_per_bank=2)
    fold = _small_fold(np.random.default_rng(9), layout.view)
    for period in (1, 2, 3, 5):
        for repeats in (1, 2, 3, 4, 7, 12):
            one_call = _DriftingEvaluator(layout, period)
            per_copy = _DriftingEvaluator(layout, period)
            costs = one_call.add_fold_demand(fold, True, repeats)
            want = [c for _ in range(repeats) for c in per_copy.add_fold_demand(fold, True)]
            case = (period, repeats)
            assert costs == want, case
            assert one_call.total_layout_cycles == per_copy.total_layout_cycles, case
            assert one_call.total_requests == per_copy.total_requests, case
            assert one_call.cycles_evaluated == per_copy.cycles_evaluated, case
            assert one_call._bank_lines == per_copy._bank_lines, case


def test_max_folds_cut_a_run(monkeypatch):
    """Whole WS layers whose runs close, with ``max_folds`` cutting a run.

    Each row fold is a run of 8 copies of ~780 offsets, so long runs
    reach the evaluator in one closed call; a cap of 6, 15 or 20 folds
    cuts a run short, to a length that still passes alone or not.  No
    trace is generated past the cap.
    """
    traced = []
    one_fold = TraceEngine._one_fold
    monkeypatch.setattr(
        TraceEngine,
        "_one_fold",
        lambda self, *args: traced.append(args) or one_fold(self, *args),
    )
    layer = ConvLayer(
        name="c", ifmap_h=16, ifmap_w=16, filter_h=3, filter_w=3,
        channels=4, num_filters=32,
    )
    engine = TraceEngine(operand_matrices(layer), Dataflow.WEIGHT_STATIONARY, 4, 4)
    assert engine.folds_col == 8 and engine.folds_row == 9
    configs = [
        LayoutEvalConfig(num_banks=2, total_bandwidth_words=8, row_buffers_per_bank=depth)
        for depth in (1, 2, 4, 8)
    ]
    for max_folds in (1, 6, 15, 20):
        del traced[:]
        runs = list(_generate_fold_demand(layer, engine.dataflow, 4, 4, max_folds))
        assert sum(repeats for _, repeats in runs) == max_folds
        assert len(traced) == len(runs) == -(-max_folds // 8)
        assert any(repeats >= 3 for _, repeats in _fold_batches(iter(runs))) == (
            max_folds != 1
        )
        many = evaluate_layout_slowdown_many(
            layer, "ws", 4, 4, configs, max_folds=max_folds
        )
        assert many == [
            _reference_result(layer, "ws", 4, cfg, max_folds) for cfg in configs
        ], max_folds


def test_fanout_batches_small_folds(monkeypatch):
    """Many small folds reach the cascade in fewer calls, with the spec's results."""
    layer = ConvLayer(
        name="c", ifmap_h=12, ifmap_w=12, filter_h=3, filter_w=3,
        channels=8, num_filters=16,
    )
    folds = sum(
        repeats
        for _, repeats in _generate_fold_demand(layer, Dataflow.parse("ws"), 4, 4, None)
    )
    calls = []
    feed = VectorizedConflictEvaluator.add_fold_demand

    def counting(self, fold, return_costs=False, repeats=1):
        calls.append(fold.cycles)
        return feed(self, fold, return_costs, repeats)

    monkeypatch.setattr(VectorizedConflictEvaluator, "add_fold_demand", counting)
    configs = [
        LayoutEvalConfig(num_banks=4, total_bandwidth_words=16, row_buffers_per_bank=2)
    ]
    results = evaluate_layout_slowdown_many(layer, "ws", 4, 4, configs)
    assert 0 < len(calls) < folds
    assert results == [_reference_result(layer, "ws", 4, cfg) for cfg in configs]


def test_fanout_validates_bandwidth_divisibility():
    layer = _gemm(random.Random(2))
    with pytest.raises(LayoutError):
        evaluate_layout_slowdown_many(
            layer,
            "ws",
            4,
            4,
            [LayoutEvalConfig(num_banks=3, total_bandwidth_words=64)],
        )


def test_mixed_view_layouts_never_share_decodes():
    """Explicit layouts with different views must not share a key LUT.

    Regression: the shared-decode grouping once keyed only on inter-line
    steps, silently priming one view's decode into another's evaluator.
    """
    layer = GemmLayer("g", m=24, n=16, k=8)
    view_a = TensorView.for_matrix(layer.k, layer.n)
    view_b = TensorView(2, 8, 8)  # same num_elements, different shape
    assert view_a.num_elements == view_b.num_elements
    configs = [
        LayoutEvalConfig(
            num_banks=2,
            total_bandwidth_words=8,
            layout=LayoutSpec(
                view=view, c1_step=2, h1_step=2, w1_step=1,
                num_banks=2, bandwidth_per_bank=4,
            ),
        )
        for view in (view_a, view_b)
    ]
    many = evaluate_layout_slowdown_many(layer, "ws", 4, 4, configs)
    independent = [
        evaluate_layout_slowdown(
            layer, "ws", 4, 4, 2, 8, layout=cfg.layout
        )
        for cfg in configs
    ]
    assert many == independent


def test_store_backed_fanout_is_bit_identical_cold_and_warm(tmp_path):
    """Randomized grids with the fold-demand stream store-backed.

    A cold store materialises and persists each layer's fold-demand
    stream; a warm store serves it from disk.  Both must be
    bit-identical to the storeless fan-out (and hence, transitively, to
    independent calls).
    """
    from repro.store.artifact_store import ArtifactStore, set_active_store

    store = ArtifactStore(tmp_path / "store")
    for trial in range(6):
        rng = random.Random(52_000 + 11 * trial)
        layer = _conv(rng) if rng.random() < 0.5 else _gemm(rng)
        dataflow = rng.choice(("ws", "is", "os"))
        array = rng.choice((4, 8))
        configs = _random_grid(rng, _view_for(layer))
        max_folds = rng.choice((None, 3))

        reference = evaluate_layout_slowdown_many(
            layer, dataflow, array, array, configs, max_folds=max_folds
        )
        previous = set_active_store(store)
        try:
            cold = evaluate_layout_slowdown_many(
                layer, dataflow, array, array, configs, max_folds=max_folds
            )
            warm = evaluate_layout_slowdown_many(
                layer, dataflow, array, array, configs, max_folds=max_folds
            )
        finally:
            set_active_store(previous)
        assert cold == reference, trial
        assert warm == reference, trial
    # Each trial's second pass served its stream from disk.
    assert store.hits >= 6
