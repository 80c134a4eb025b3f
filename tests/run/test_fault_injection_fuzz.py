"""Recovery fuzz: executors under randomised seeded fault schedules.

The invariant under test (satellite of the fault-tolerance PR): any
schedule whose faults only touch attempts *below* the attempt budget is
recoverable by construction, so the run must converge to results
bit-identical to a fault-free run — no quarantined units, no spool
residue.  Schedules that exhaust the budget must quarantine with the
last traceback parked alongside.

The ``exit`` fault kind hard-kills its host process (``os._exit``), so
it only ever runs inside sacrificial worker subprocesses — never under
an in-process worker (it would take pytest down) and never under a
``multiprocessing.Pool`` (the pool cannot survive losing a worker).
"""

import multiprocessing
import threading

import pytest

from repro.errors import ExecutionError
from repro.run import faults
from repro.run.executors import (
    QUARANTINE_DIRNAME,
    PoolExecutor,
    QueueExecutor,
    SerialExecutor,
    process_spool,
)

SEEDS = range(5)

#: Kinds safe under any executor (no process loss, no spool required).
IN_PROCESS_KINDS = ("raise", "stall")

#: Kinds the spool protocol must additionally absorb.
QUEUE_KINDS = ("raise", "stall", "corrupt")

UNITS = list(range(6))


def _triple(unit):
    """Module-level mapped function so every executor can pickle it."""
    return unit * 3


def _map(executor, fn, units):
    """The map's values in unit order; a failed unit raises."""
    return [envelope.unwrap() for envelope in executor.map_units_enveloped(fn, units)]


def _fault_free():
    return [unit * 3 for unit in UNITS]


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_executor_converges_under_fuzz(seed):
    plan = faults.seeded_plan(
        seed, len(UNITS), kinds=IN_PROCESS_KINDS, max_attempt=2, stall_seconds=0.01
    )
    executor = SerialExecutor(max_attempts=4, backoff_base=0.001)
    with faults.armed(plan):
        envelopes = executor.map_units_enveloped(_triple, UNITS)
    assert [env.unwrap() for env in envelopes] == _fault_free()
    assert all(env.attempt <= 3 for env in envelopes)  # recoverable plans


@pytest.mark.parametrize("seed", SEEDS)
def test_pool_executor_converges_under_fuzz(seed):
    plan = faults.seeded_plan(
        seed, len(UNITS), kinds=IN_PROCESS_KINDS, max_attempt=2, stall_seconds=0.01
    )
    executor = PoolExecutor(2, max_attempts=4, backoff_base=0.001)
    with faults.armed(plan):
        assert _map(executor, _triple, UNITS) == _fault_free()


@pytest.mark.parametrize("seed", SEEDS)
def test_queue_executor_converges_under_fuzz(seed, tmp_path):
    plan = faults.seeded_plan(
        seed, len(UNITS), kinds=QUEUE_KINDS, max_attempt=2, stall_seconds=0.01
    )
    executor = QueueExecutor(
        tmp_path, poll_interval=0.01, timeout=60.0, max_attempts=4, backoff_base=0.001
    )
    with faults.armed(plan):
        assert _map(executor, _triple, UNITS) == _fault_free()
    assert not (tmp_path / QUARANTINE_DIRNAME).exists()
    assert list(tmp_path.iterdir()) == []  # spool fully retired


def test_exhausted_schedule_quarantines_with_traceback(tmp_path):
    # Fault every attempt of unit 2 up to and past the budget.
    plan = [
        faults.FaultSpec(kind="raise", unit=2, attempt=attempt)
        for attempt in range(1, 5)
    ]
    executor = QueueExecutor(
        tmp_path, poll_interval=0.01, timeout=60.0, max_attempts=3, backoff_base=0.001
    )
    with faults.armed(plan):
        envelopes = executor.map_units_enveloped(_triple, UNITS)
    assert [env.ok for env in envelopes] == [True, True, False, True, True, True]
    assert envelopes[2].failure.attempts == 3
    parked = sorted((tmp_path / QUARANTINE_DIRNAME).glob("*unit_000002*"))
    names = [path.name for path in parked]
    assert any(name.endswith(".task.pkl") for name in names)
    traceback_files = [path for path in parked if path.name.endswith(".traceback.txt")]
    assert "FaultInjected" in traceback_files[0].read_text()
    # Siblings of the poison unit still converged.
    assert [env.value for env in envelopes if env.ok] == [0, 3, 9, 12, 15]


def _producer(executor, results, errors):
    try:
        results.extend(_map(executor, _triple, UNITS))
    except Exception as exc:  # pragma: no cover - surfaced by the assert
        errors.append(exc)


def test_hard_exit_worker_is_reclaimed_by_next_worker(tmp_path):
    # A worker hard-exits mid-unit (the os._exit fault == SIGKILL/OOM):
    # its claim and lease survive it, the next worker's reclaim pass
    # notices the dead same-host owner and re-runs the unit.  The
    # producer never learns any of this happened.
    plan = [faults.FaultSpec(kind="exit", unit=0, attempt=1)]
    executor = QueueExecutor(
        tmp_path,
        run_local_worker=False,
        poll_interval=0.05,
        timeout=120.0,
        max_attempts=3,
        lease_ttl=60.0,  # reclaim must come from pid-death, not TTL decay
        backoff_base=0.001,
    )
    results: list = []
    errors: list = []
    producer = threading.Thread(target=_producer, args=(executor, results, errors))
    with faults.armed(plan):
        producer.start()
        exit_codes = []
        for _ in range(20):
            worker = multiprocessing.Process(target=process_spool, args=(tmp_path,))
            worker.start()
            worker.join(timeout=60.0)
            exit_codes.append(worker.exitcode)
            producer.join(timeout=0.2)
            if not producer.is_alive():
                break
    producer.join(timeout=120.0)
    assert not producer.is_alive()
    assert not errors
    assert results == _fault_free()
    # At least one sacrificial worker actually died the hard way.
    assert faults.HARD_EXIT_CODE in exit_codes
    assert not (tmp_path / QUARANTINE_DIRNAME).exists()
