"""Shared multiprocessing helpers."""

from __future__ import annotations

import multiprocessing
import os


def pool_context() -> multiprocessing.context.BaseContext:
    """The preferred start-method context for worker pools.

    ``fork`` where available (cheap, inherits the parent's warm caches
    zero-copy), ``spawn`` otherwise.  Its one caller is
    :class:`repro.run.executors.PoolExecutor`, the only pool in the
    code base, so a start-method tweak here applies to every fork.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def spread_worker(slots) -> None:
    """Pool initializer: start each worker on a CPU of its own.

    A new worker starts on its parent's CPU, and the kernel may leave
    two busy workers sharing it for hundreds of milliseconds while
    another allowed CPU idles: on a 2-vCPU VM a 2-worker pool of
    half-second tasks ran at half speed in every trial after a serial
    phase.  Each worker takes the next slot of the shared counter
    ``slots`` (a ``multiprocessing`` ``Value``), moves to that CPU of
    its allowed set, then gets the whole set back, so the scheduler
    stays free to move it later.  A no-op where affinity is unsupported
    or only one CPU is allowed.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return
    with slots.get_lock():
        slot = slots.value
        slots.value += 1
    try:
        os.sched_setaffinity(0, {allowed[slot % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass
