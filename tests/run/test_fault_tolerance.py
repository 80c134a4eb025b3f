"""Unit tests for the executor fault-tolerance layer.

Covers the pieces individually — envelopes, retries, quarantine, lease
reclaim, batch reaping, sweep failure policies — while
``test_fault_injection_fuzz.py`` and ``test_crash_recovery.py`` exercise
them end to end under randomised and process-killing schedules.
"""

import multiprocessing
import os
import socket
import time

import pytest

from repro.config.system import RunConfig, SystemConfig
from repro.core.report import write_failure_report, write_sweep_report
from repro.errors import ConfigError, ExecutionError
from repro.run import faults
from repro.run.executors import (
    QUARANTINE_DIRNAME,
    PoolExecutor,
    QueueExecutor,
    ResultEnvelope,
    SerialExecutor,
    TaskRecord,
    UnitFailure,
    _backoff_seconds,
    _lease_path,
    _result_path,
    _spool_task_paths,
    _write_lease,
    process_spool,
    reap_dead_batches,
    reclaim_expired,
    release_claims,
)
from repro.run.sweep import Axis, SweepFailure, SweepRunner, SweepSpec
from repro.store.artifact_store import dump_json_atomic, dump_pickle_atomic
from repro.topology.models import toy_gemm


def _base() -> SystemConfig:
    return SystemConfig(run=RunConfig(run_name="unit_fault_tolerance"))


def _spec(**kwargs) -> SweepSpec:
    defaults = dict(
        base=_base(),
        axes=[Axis("arch.dataflow", ("os", "ws"))],
        topologies=[toy_gemm()],
        name="unit_ft",
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _double(unit):
    """Module-level mapped function so every executor can pickle it."""
    return unit * 2


def _map(executor, fn, units):
    """The map's values in unit order; a failed unit raises."""
    return [envelope.unwrap() for envelope in executor.map_units_enveloped(fn, units)]


def _return_none(unit):
    return None


def _poison(unit):
    raise ValueError(f"poison unit {unit!r}")


def _fast_queue(spool, **kwargs):
    defaults = dict(poll_interval=0.01, timeout=30.0, backoff_base=0.001)
    defaults.update(kwargs)
    return QueueExecutor(spool, **defaults)


def _dead_pid() -> int:
    """A pid guaranteed dead: a child that already exited."""
    proc = multiprocessing.Process(target=_noop)
    proc.start()
    proc.join()
    return proc.pid


def _noop():
    pass


# ----------------------------------------------------------- envelopes


def test_envelope_unwrap_success_and_failure():
    assert ResultEnvelope(ok=True, value=41).unwrap() == 41
    try:
        raise ValueError("boom")
    except ValueError as exc:
        failure = UnitFailure.from_exception(exc, attempt=2)
    envelope = ResultEnvelope(ok=False, failure=failure, attempt=2)
    with pytest.raises(ExecutionError, match="after 2 attempt"):
        envelope.unwrap()
    # The original exception rides along and is chained on raise.
    assert isinstance(failure.exception(), ValueError)
    assert "boom" in failure.traceback_text


def test_falsy_payloads_are_still_done(tmp_path):
    # Regression: the pre-envelope queue protocol treated a result that
    # unpickled to None as "not written yet" and polled until timeout.
    executor = _fast_queue(tmp_path, timeout=10.0)
    assert _map(executor, _return_none, [1, 2]) == [None, None]
    assert _map(executor, _double, [0]) == [0]  # falsy but real


def test_backoff_is_exponential_and_capped():
    assert _backoff_seconds(0.05, 1) == 0.05
    assert _backoff_seconds(0.05, 2) == 0.1
    assert _backoff_seconds(0.05, 20) == 5.0  # BACKOFF_CAP


# ------------------------------------------------------------- retries


def test_serial_executor_retries_transient_fault():
    executor = SerialExecutor(max_attempts=3, backoff_base=0.001)
    with faults.armed([faults.FaultSpec(kind="raise", unit=0, attempt=1)]):
        envelopes = executor.map_units_enveloped(_double, [5, 6])
    assert [env.value for env in envelopes] == [10, 12]
    assert envelopes[0].attempt == 2  # first attempt faulted
    assert envelopes[1].attempt == 1


def test_pool_executor_retries_transient_fault():
    executor = PoolExecutor(2, max_attempts=3, backoff_base=0.001)
    with faults.armed([faults.FaultSpec(kind="raise", unit=1, attempt=1)]):
        assert _map(executor, _double, [1, 2, 3]) == [2, 4, 6]


def test_queue_executor_recovers_torn_result_write(tmp_path):
    executor = _fast_queue(tmp_path, max_attempts=3)
    with faults.armed([faults.FaultSpec(kind="corrupt", unit=0, attempt=1)]):
        assert _map(executor, _double, [5, 6, 7]) == [10, 12, 14]
    assert list(tmp_path.iterdir()) == []  # spool fully retired


def test_serial_executor_exhausts_attempt_budget():
    executor = SerialExecutor(max_attempts=2, backoff_base=0.001)
    envelopes = executor.map_units_enveloped(_poison, [9])
    assert not envelopes[0].ok
    assert envelopes[0].failure.attempts == 2
    assert envelopes[0].failure.error_class == "ValueError"
    with pytest.raises(ExecutionError) as exc_info:
        envelopes[0].unwrap()
    assert isinstance(exc_info.value.__cause__, ValueError)


# ---------------------------------------------------------- quarantine


def test_queue_executor_quarantines_exhausted_units(tmp_path):
    executor = _fast_queue(tmp_path, max_attempts=2)
    with pytest.raises(ExecutionError, match="poison"):
        _map(executor, _poison, [3])
    quarantine = tmp_path / QUARANTINE_DIRNAME
    parked = sorted(quarantine.glob("*.task.pkl"))
    assert len(parked) == 1 and "unit_000000" in parked[0].name
    traceback_text = parked[0].with_name(
        parked[0].name[: -len(".task.pkl")] + ".traceback.txt"
    ).read_text()
    assert "ValueError" in traceback_text and "attempts: 2" in traceback_text
    # Only the quarantine survives; the batch dir itself is retired.
    assert [p.name for p in tmp_path.iterdir()] == [QUARANTINE_DIRNAME]


def test_quarantined_units_are_not_rerun(tmp_path):
    executor = _fast_queue(tmp_path, max_attempts=1)
    with pytest.raises(ExecutionError):
        _map(executor, _poison, [1])
    # A later pass over the same spool must not pick parked tasks up.
    assert process_spool(tmp_path) == 0


# ------------------------------------------------------- lease reclaim


def test_reclaim_expired_takes_over_dead_workers_claim(tmp_path):
    batch = tmp_path / f"batch_{os.getpid()}_0001"
    batch.mkdir()
    (task_path,) = _spool_task_paths(batch, 1)
    record = TaskRecord(fn=_double, unit=21, attempt=1)
    claim = task_path.with_name(task_path.name + ".claim.12345")
    dump_pickle_atomic(claim, record)
    now = time.time()
    dump_json_atomic(
        _lease_path(claim),
        {
            "owner_pid": _dead_pid(),
            "owner_host": socket.gethostname(),
            "claimed_at": now,
            "heartbeat_at": now,  # fresh heartbeat: death alone must expire it
            "lease_ttl": 300.0,
            "attempt": 1,
        },
    )
    assert reclaim_expired(tmp_path) == 1
    assert not claim.exists() and not _lease_path(claim).exists()
    # The task is claimable again, as the *next* attempt.
    assert process_spool(tmp_path) == 1
    envelope = _read_result(task_path)
    assert envelope.ok and envelope.value == 42
    assert envelope.attempt == 2


def test_reclaim_respects_live_lease(tmp_path):
    batch = tmp_path / f"batch_{os.getpid()}_0001"
    batch.mkdir()
    (task_path,) = _spool_task_paths(batch, 1)
    claim = task_path.with_name(task_path.name + ".claim.12345")
    dump_pickle_atomic(claim, TaskRecord(fn=_double, unit=1))
    _write_lease(claim, attempt=1, ttl=300.0)  # this process, fresh heartbeat
    assert reclaim_expired(tmp_path) == 0
    assert claim.exists()


def test_reclaim_falls_back_to_mtime_without_sidecar(tmp_path):
    batch = tmp_path / f"batch_{os.getpid()}_0001"
    batch.mkdir()
    (task_path,) = _spool_task_paths(batch, 1)
    claim = task_path.with_name(task_path.name + ".claim.12345")
    dump_pickle_atomic(claim, TaskRecord(fn=_double, unit=2))
    old = time.time() - 3600.0
    os.utime(claim, (old, old))
    assert reclaim_expired(tmp_path, lease_ttl=60.0) == 1
    assert task_path.exists()


def test_release_claims_hands_back_only_the_owners_claims(tmp_path):
    batch = tmp_path / f"batch_{os.getpid()}_0001"
    batch.mkdir()
    mine_path, theirs_path = _spool_task_paths(batch, 2)
    mine = mine_path.with_name(mine_path.name + f".claim.{os.getpid()}")
    theirs = theirs_path.with_name(theirs_path.name + ".claim.12345")
    for claim, unit in ((mine, 4), (theirs, 5)):
        dump_pickle_atomic(claim, TaskRecord(fn=_double, unit=unit))
        _write_lease(claim, attempt=1, ttl=300.0)
    assert release_claims(tmp_path) == 1
    assert not mine.exists() and not _lease_path(mine).exists()
    assert theirs.exists() and _lease_path(theirs).exists()
    # The released unit is claimable again, as the *next* attempt.
    assert process_spool(tmp_path) == 1
    envelope = _read_result(mine_path)
    assert envelope.ok and envelope.value == 8
    assert envelope.attempt == 2


def _read_result(task_path):
    import pickle

    return pickle.loads(_result_path(task_path).read_bytes())


# ------------------------------------------------- cleanup and reaping


def test_cleanup_removes_stale_claims_and_batch_dir(tmp_path):
    # Regression: _cleanup used to unlink only tasks and results, so a
    # leftover claim (a stalled duplicate worker) kept the batch dir —
    # and the spool — growing forever.
    executor = _fast_queue(tmp_path)
    batch = executor._new_batch_dir()
    task_paths = _spool_task_paths(batch, 2)
    for task_path in task_paths:
        dump_pickle_atomic(task_path, TaskRecord(fn=_double, unit=0))
    claim = task_paths[0].with_name(task_paths[0].name + ".claim.999")
    dump_pickle_atomic(claim, TaskRecord(fn=_double, unit=0))
    _write_lease(claim, attempt=1, ttl=300.0)
    executor._cleanup(batch, task_paths)
    assert not batch.exists()


def test_reap_dead_batches(tmp_path):
    dead = tmp_path / f"batch_{_dead_pid()}_0001"
    dead.mkdir()
    (dead / "unit_000000.task.pkl").write_bytes(b"x")
    live = tmp_path / f"batch_{os.getpid()}_0001"
    live.mkdir()
    (live / "unit_000000.task.pkl").write_bytes(b"x")
    empty = tmp_path / "batch_garbage"
    empty.mkdir()
    quarantine = tmp_path / QUARANTINE_DIRNAME
    quarantine.mkdir()
    (quarantine / "evidence.txt").write_text("keep me")
    assert reap_dead_batches(tmp_path) == 2  # dead producer + empty dir
    assert not dead.exists() and not empty.exists()
    assert live.exists() and quarantine.exists()


def test_process_spool_reap_flag(tmp_path):
    dead = tmp_path / f"batch_{_dead_pid()}_0001"
    dead.mkdir()
    (dead / "unit_000000.result.pkl").write_bytes(b"x")
    assert process_spool(tmp_path, reap=True) == 0
    assert not dead.exists()


def test_bare_tuple_task_is_dropped(tmp_path):
    # Only TaskRecord payloads are work: a bare (fn, unit) tuple, or a
    # pickle naming a module that does not exist, is foreign input,
    # dropped unexecuted like a corrupt pickle, and the worker loop
    # carries on with the next task.
    batch = tmp_path / f"batch_{os.getpid()}_0001"
    batch.mkdir()
    bare, unknown_module, record = _spool_task_paths(batch, 3)
    dump_pickle_atomic(bare, (_double, 8))
    unknown_module.write_bytes(b"cno_such_module\nThing\n.")
    dump_pickle_atomic(record, TaskRecord(fn=_double, unit=9))
    assert process_spool(tmp_path) == 1
    for foreign in (bare, unknown_module):
        assert not _result_path(foreign).exists()
        assert not list(batch.glob(foreign.name + "*"))  # task and claim gone
    envelope = _read_result(record)
    assert envelope.ok and envelope.value == 18


# ------------------------------------------------ sweep failure policy


def test_runner_validates_failure_policy_and_max_attempts(tmp_path):
    with pytest.raises(ConfigError, match="failure_policy"):
        SweepRunner(failure_policy="shrug")
    # The attempt budget rides on the executor, not on the runner.
    with pytest.raises(TypeError):
        SweepRunner(max_attempts=5)
    with pytest.raises(ConfigError, match="max_attempts"):
        SweepRunner(executor=SerialExecutor(max_attempts=0))
    runner = SweepRunner(executor=SerialExecutor(max_attempts=5))
    assert runner.executor.max_attempts == 5


def test_sweep_raise_policy_chains_original_fault():
    plan = [faults.FaultSpec(kind="raise", unit=0, attempt=a) for a in (1, 2)]
    runner = SweepRunner(executor=SerialExecutor(max_attempts=2))
    with faults.armed(plan):
        with pytest.raises(ExecutionError) as exc_info:
            runner.run(_spec())
    assert isinstance(exc_info.value.__cause__, faults.FaultInjected)


def test_sweep_degrade_policy_matches_fault_free_rows(tmp_path):
    spec = _spec()
    reference = SweepRunner().run(spec)
    reference_csv = write_sweep_report(reference, tmp_path / "ref.csv")

    plan = [faults.FaultSpec(kind="raise", unit=0, attempt=a) for a in (1, 2)]
    runner = SweepRunner(
        executor=SerialExecutor(max_attempts=2), failure_policy="degrade"
    )
    with faults.armed(plan):
        results = runner.run(_spec())

    # One point survives, one fails; the surviving row is byte-identical.
    assert len(results) == 1 and len(runner.last_failures) == 1
    degraded_csv = write_sweep_report(results, tmp_path / "deg.csv")
    reference_lines = reference_csv.read_text().splitlines()
    degraded_lines = degraded_csv.read_text().splitlines()
    assert degraded_lines[0] == reference_lines[0]
    assert all(line in reference_lines for line in degraded_lines[1:])

    failure = runner.last_failures[0]
    assert failure.error_class == "FaultInjected"
    assert failure.attempts == 2
    assert failure.index == 0
    assert "FaultInjected" in failure.traceback_text


def test_sweep_degrade_successes_are_cached_for_rerun():
    plan = [faults.FaultSpec(kind="raise", unit=0, attempt=a) for a in (1, 2)]
    runner = SweepRunner(
        executor=SerialExecutor(max_attempts=2), failure_policy="degrade"
    )
    with faults.armed(plan):
        first = runner.run(_spec())
    assert len(first) == 1
    # Disarmed re-run through the same runner: the surviving point comes
    # from cache, only the failed one re-simulates, and nothing fails.
    second = runner.run(_spec())
    assert len(second) == 2 and runner.last_failures == []
    assert any(result.from_cache for result in second)


def test_write_failure_report_roundtrip(tmp_path):
    failures = [
        SweepFailure(
            index=3,
            topology_name="toy_gemm",
            assignment=(("arch.dataflow", "ws"),),
            config=_base(),
            attempts=2,
            error_class="ValueError",
            message="boom",
            traceback_text="Traceback line one\nValueError: boom\n",
        )
    ]
    path = write_failure_report(failures, tmp_path / "failures.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "PointID,Topology,Assignment,Attempts,ErrorClass,Error"
    assert "arch.dataflow=ws" in lines[1]
    assert "ValueError" in lines[1]
    assert "\n" not in lines[1]  # traceback flattened to one cell
    empty = write_failure_report([], tmp_path / "empty.csv")
    assert empty.read_text().splitlines() == [lines[0]]
