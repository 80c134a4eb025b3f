"""On-chip layout tuning: banks, ports and loop orders (Section VI).

Shows how the same total on-chip bandwidth behaves very differently
depending on how it is sliced into banks, and how a custom inter-line
loop order changes bank-conflict behaviour for a convolution's ifmap.

Both studies ride the trace fan-out: each sweep is a single
``evaluate_layout_slowdown_many`` call, so the layer's fold traces are
generated once per dataflow and broadcast to every configuration under
test instead of being regenerated per point.

Run with::

    python examples/layout_bank_tuning.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.layout.integrate import LayoutEvalConfig, evaluate_layout_slowdown_many
from repro.layout.spec import LayoutSpec, TensorView
from repro.topology.models import resnet18

LAYER = resnet18(scale=8).layer_named("conv2_1a")
ARRAY = 32
BANDWIDTH = 64
BANKS = (1, 2, 4, 8, 16)


def main() -> None:
    print(f"layer {LAYER.name}: ifmap {LAYER.ifmap_h}x{LAYER.ifmap_w}x{LAYER.channels}, "
          f"{ARRAY}x{ARRAY} array, {BANDWIDTH} words/cycle total\n")

    print("-- bank-count sweep at fixed bandwidth (Figure 12 style) --")
    print(f"{'dataflow':>9s}" + "".join(f"{b:>9d}b" for b in BANKS))
    grid = [
        LayoutEvalConfig(num_banks=banks, total_bandwidth_words=BANDWIDTH)
        for banks in BANKS
    ]
    for dataflow in ("is", "ws", "os"):
        # Full-layer traces, one streaming pass per dataflow: the fan-out
        # shares trace generation across the whole bank grid
        # (tests/layout/test_fanout_equivalence.py cross-checks it
        # against the scalar BankConflictEvaluator).
        results = evaluate_layout_slowdown_many(
            LAYER, dataflow, ARRAY, ARRAY, grid
        )
        print(f"{dataflow:>9s}" + "".join(f"{r.slowdown:>+9.3f}" for r in results))

    print("\n-- custom layouts: channel-major vs row-major inter-line order --")
    view = TensorView(c_dim=LAYER.channels, h_dim=LAYER.ifmap_h, w_dim=LAYER.ifmap_w)
    layouts = {
        "channel-major (C16 H2 W2)": LayoutSpec(
            view=view, c1_step=min(16, view.c_dim), h1_step=2, w1_step=2,
            num_banks=8, bandwidth_per_bank=8,
        ),
        "row-major (C4 H1 W16)": LayoutSpec(
            view=view, c1_step=4, h1_step=1, w1_step=min(16, view.w_dim),
            num_banks=8, bandwidth_per_bank=8,
        ),
    }
    custom = [
        LayoutEvalConfig(num_banks=8, total_bandwidth_words=BANDWIDTH, layout=layout)
        for layout in layouts.values()
    ]
    for name, result in zip(
        layouts, evaluate_layout_slowdown_many(LAYER, "ws", ARRAY, ARRAY, custom)
    ):
        print(f"  {name:28s} slowdown {result.slowdown:+.3f} "
              f"({result.layout_cycles:,} vs {result.bandwidth_cycles:,} cycles)")

    print("\nmore banks -> finer-grained access -> fewer conflicts, and the")
    print("inter-line order decides which dataflow streams stay conflict-free.")


if __name__ == "__main__":
    main()
