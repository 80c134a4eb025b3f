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
(``FoldDemand.concat``) against one call per fold.
"""

import random

import numpy as np
import pytest

from repro.config.system import (
    ArchitectureConfig,
    LayoutConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.dataflow import Dataflow
from repro.errors import LayoutError
from repro.layout.conflict import BankConflictEvaluator, FoldDemand, build_fold_demand
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


def _reference_result(layer, dataflow, array, cfg, max_folds=None) -> LayoutEvalResult:
    """``cfg``'s result from the scalar ``BankConflictEvaluator``, the spec."""
    dataflow = Dataflow.parse(dataflow) if isinstance(dataflow, str) else dataflow
    evaluator = BankConflictEvaluator(
        cfg.resolve_layout(_view_for(layer)),
        bandwidth_model_words=cfg.total_bandwidth_words,
        row_buffers_per_bank=cfg.row_buffers_per_bank,
    )
    for fold in _generate_fold_demand(layer, dataflow, array, array, max_folds):
        evaluator.add_fold_demand(fold)
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
    assert tuple(runner.last_grouping) == (spec.num_points, 3)
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
        fan_out = list(_fold_batches(iter(folds)))
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
    batches = list(_fold_batches(iter([*small[:2], big, *small[2:]])))
    assert len(batches) == 3
    assert batches[1] is big
    assert batches[0].cycles == small[0].cycles + small[1].cycles
    assert FoldDemand.concat([big]) is big


def test_fanout_batches_small_folds(monkeypatch):
    """Many small folds reach the cascade in fewer calls, with the spec's results."""
    layer = ConvLayer(
        name="c", ifmap_h=12, ifmap_w=12, filter_h=3, filter_w=3,
        channels=8, num_filters=16,
    )
    folds = sum(1 for _ in _generate_fold_demand(layer, Dataflow.parse("ws"), 4, 4, None))
    calls = []
    feed = VectorizedConflictEvaluator.add_fold_demand

    def counting(self, fold, return_costs=False):
        calls.append(fold.cycles)
        return feed(self, fold, return_costs)

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
