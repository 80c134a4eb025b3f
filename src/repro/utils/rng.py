"""Deterministic random number generation.

All stochastic choices in the simulator (row-wise N:M draws, synthetic
operand values) flow through :func:`make_rng` so that every experiment is
reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC0FFEE


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a seeded :class:`numpy.random.Generator`.

    Args:
        seed: integer seed; ``None`` selects the package default so that
            "unseeded" runs are still reproducible.
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)
