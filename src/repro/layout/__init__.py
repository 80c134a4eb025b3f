"""Multi-bank on-chip data-layout modelling (paper Section VI)."""

from repro.layout.spec import LayoutSpec, TensorView
from repro.layout.conflict import (
    BankConflictEvaluator,
    CycleCost,
    FoldDemand,
    build_fold_demand,
)
from repro.layout.conflict_vectorized import VectorizedConflictEvaluator
from repro.layout.integrate import (
    LayoutEvalConfig,
    LayoutEvalResult,
    evaluate_layout_slowdown,
    evaluate_layout_slowdown_many,
)

__all__ = [
    "LayoutSpec",
    "TensorView",
    "BankConflictEvaluator",
    "VectorizedConflictEvaluator",
    "CycleCost",
    "FoldDemand",
    "LayoutEvalConfig",
    "LayoutEvalResult",
    "build_fold_demand",
    "evaluate_layout_slowdown",
    "evaluate_layout_slowdown_many",
]
