"""Shared multiprocessing helpers."""

from __future__ import annotations

import multiprocessing


def pool_context() -> multiprocessing.context.BaseContext:
    """The preferred start-method context for worker pools.

    ``fork`` where available (cheap, inherits the parent's warm caches
    zero-copy), ``spawn`` otherwise.  Its one caller is
    :class:`repro.run.executors.PoolExecutor`, the only pool in the
    code base, so a start-method tweak here applies to every fork.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")
