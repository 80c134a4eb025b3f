"""Unit tests for the pluggable sweep-execution backends (repro.run.executors)."""

import multiprocessing
import os
import pickle

import pytest

from repro.errors import ConfigError
from repro.run.executors import (
    AVAILABLE_EXECUTORS,
    Executor,
    PoolExecutor,
    QueueExecutor,
    SerialExecutor,
    TaskRecord,
    _result_path,
    _spool_task_paths,
    make_executor,
    process_spool,
)
from repro.config.system import RunConfig, SystemConfig
from repro.run.sweep import Axis, SweepRunner, SweepSpec
from repro.store.artifact_store import dump_pickle_atomic
from repro.topology.models import toy_gemm
from repro.utils import pool as pool_utils


def _base() -> SystemConfig:
    return SystemConfig(run=RunConfig(run_name="unit_executors"))


def _spec(**kwargs) -> SweepSpec:
    defaults = dict(
        base=_base(),
        axes=[Axis("arch.dataflow", ("os", "ws"))],
        topologies=[toy_gemm()],
        name="unit",
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _double(unit):
    """Module-level mapped function so every executor can pickle it."""
    return unit * 2


def _map(executor, fn, units):
    """The map's values in unit order; a failed unit raises."""
    return [envelope.unwrap() for envelope in executor.map_units_enveloped(fn, units)]


def _pid(unit):
    return os.getpid()


def _affinity(unit):
    return sorted(os.sched_getaffinity(0))


_INITIALIZED_WITH = None


def _record_initializer(slots):
    global _INITIALIZED_WITH
    _INITIALIZED_WITH = type(slots.value).__name__


def _initialized_with(unit):
    return _INITIALIZED_WITH


def test_executor_protocol_matches_implementations(tmp_path):
    assert isinstance(SerialExecutor(), Executor)
    assert isinstance(PoolExecutor(2), Executor)
    assert isinstance(QueueExecutor(tmp_path), Executor)


def test_serial_executor_maps_in_order():
    executor = SerialExecutor()
    assert executor.workers == 1
    assert _map(executor, _double, [1, 2, 3]) == [2, 4, 6]
    assert _map(executor, _double, []) == []


def test_pool_executor_validates_workers():
    with pytest.raises(ConfigError):
        PoolExecutor(0)


def test_pool_executor_maps_in_order():
    executor = PoolExecutor(2)
    assert _map(executor, _double, [1, 2, 3, 4]) == [2, 4, 6, 8]
    assert _map(executor, _double, []) == []


def test_spread_worker_places_each_worker_then_releases(monkeypatch):
    # Each worker moves to the next allowed CPU (slots wrap around the
    # allowed set), then gets the whole set back.
    calls = []
    monkeypatch.setattr(pool_utils.os, "sched_getaffinity", lambda pid: {5, 2})
    monkeypatch.setattr(
        pool_utils.os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus))
    )
    slots = multiprocessing.Value("i", 0)
    for _ in range(3):
        pool_utils.spread_worker(slots)
    assert slots.value == 3
    assert calls == [{2}, {2, 5}, {5}, {2, 5}, {2}, {2, 5}]


def test_spread_worker_leaves_a_single_cpu_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(pool_utils.os, "sched_getaffinity", lambda pid: {3})
    monkeypatch.setattr(
        pool_utils.os, "sched_setaffinity", lambda pid, cpus: calls.append(cpus)
    )
    slots = multiprocessing.Value("i", 0)
    pool_utils.spread_worker(slots)
    assert calls == [] and slots.value == 0


def test_pool_workers_start_through_spread_worker(monkeypatch):
    from repro.run import executors

    monkeypatch.setattr(executors, "spread_worker", _record_initializer)
    assert _map(PoolExecutor(2), _initialized_with, [1, 2]) == ["int", "int"]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="CPU affinity is Linux-only"
)
def test_pool_workers_keep_the_full_cpu_set():
    # The placement is a start, not a pin: workers run with the
    # parent's whole allowed set.
    allowed = sorted(os.sched_getaffinity(0))
    assert _map(PoolExecutor(2), _affinity, [1, 2, 3]) == [allowed] * 3


def test_pool_executor_workers_one_is_serial():
    executor = PoolExecutor(1)
    assert _map(executor, _double, [1, 2]) == [2, 4]
    # No pool: every unit runs in this process.
    assert _map(executor, _pid, [1, 2]) == [os.getpid()] * 2


def test_queue_executor_roundtrips_through_spool(tmp_path):
    executor = QueueExecutor(tmp_path / "spool")
    assert _map(executor, _double, [5, 6, 7]) == [10, 12, 14]
    # Batch dirs are cleaned up after collection.
    assert list((tmp_path / "spool").iterdir()) == []


def test_queue_executor_multiple_batches(tmp_path):
    executor = QueueExecutor(tmp_path)
    assert _map(executor, _double, [1]) == [2]
    assert _map(executor, _double, [2, 3]) == [4, 6]


def test_queue_executor_external_worker(tmp_path):
    # Simulate a remote worker: enqueue without the local worker, drain
    # via process_spool (what the remote loop runs), then collect.
    spool = tmp_path / "spool"
    producer = QueueExecutor(spool, run_local_worker=False, timeout=10.0)
    batch_dir = producer._new_batch_dir()
    task_paths = _spool_task_paths(batch_dir, 3)
    records = [TaskRecord(fn=_double, unit=unit) for unit in [7, 8, 9]]
    for task_path, record in zip(task_paths, records):
        dump_pickle_atomic(task_path, record)
    assert process_spool(spool) == 3
    envelopes = producer._supervise(batch_dir, task_paths, records)
    assert [envelope.unwrap() for envelope in envelopes] == [14, 16, 18]


def test_process_spool_respects_max_tasks_and_claims(tmp_path):
    batch = tmp_path / f"batch_{os.getpid()}_0001"
    batch.mkdir()
    task_paths = _spool_task_paths(batch, 4)
    for task_path, unit in zip(task_paths, range(4)):
        dump_pickle_atomic(task_path, TaskRecord(fn=_double, unit=unit))
    assert process_spool(tmp_path, max_tasks=2) == 2
    assert process_spool(tmp_path) == 2  # the rest; claimed tasks stay claimed
    for index, task_path in enumerate(task_paths):
        envelope = pickle.loads(_result_path(task_path).read_bytes())
        assert envelope.unwrap() == index * 2


def test_process_spool_missing_dir_is_noop(tmp_path):
    assert process_spool(tmp_path / "nowhere") == 0


def test_queue_executor_timeout(tmp_path):
    executor = QueueExecutor(
        tmp_path, run_local_worker=False, poll_interval=0.01, timeout=0.05
    )
    with pytest.raises(TimeoutError, match="not completed"):
        _map(executor, _double, [1, 2])


def test_queue_executor_validates_poll_interval(tmp_path):
    with pytest.raises(ConfigError):
        QueueExecutor(tmp_path, poll_interval=0.0)


def test_make_executor_by_name(tmp_path):
    assert set(AVAILABLE_EXECUTORS) == {"serial", "pool", "queue"}
    assert isinstance(make_executor("serial"), SerialExecutor)
    pool = make_executor("pool", workers=3)
    assert isinstance(pool, PoolExecutor) and pool.workers == 3
    queue = make_executor("queue", spool_dir=tmp_path)
    assert isinstance(queue, QueueExecutor)
    with pytest.raises(ConfigError, match="spool"):
        make_executor("queue")
    with pytest.raises(ConfigError, match="unknown executor"):
        make_executor("slurm")


def _executor_fields(executor):
    """Everything the factory decides: class, width, budget, queue knobs."""
    return (
        type(executor).__name__,
        executor.workers,
        executor.max_attempts,
        getattr(executor, "lease_ttl", None),
        getattr(executor, "run_local_worker", None),
        getattr(executor, "timeout", None),
    )


class _Built(Exception):
    """Stops a CLI entry point once it has built its executor."""


def _cli_executor(monkeypatch, tmp_path, command, argv):
    """The executor ``sweep`` or ``serve`` builds for ``argv``."""
    from repro import service
    from repro.run import cli

    def sweep_runner(**kwargs):
        raise _Built(kwargs["executor"])

    def serve(manager, **kwargs):
        raise _Built(manager._make_executor())

    monkeypatch.setattr(cli, "SweepRunner", sweep_runner)
    monkeypatch.setattr(service, "serve", serve)
    if command == "sweep":
        source = ["--preset", "scale_sim_v2_default", "--model", "toy_gemm"]
        argv = [*source, "-p", str(tmp_path / "out"), *argv]
        entry = cli.sweep_main
    else:
        argv = ["--data-dir", str(tmp_path / "data"), *argv]
        entry = cli.serve_main
    with pytest.raises(_Built) as built:
        entry(argv)
    return built.value.args[0]


_SERIAL = ("SerialExecutor", 1, 3, None, None, None)


@pytest.mark.parametrize(
    "caller, argv, expected",
    [
        ("sweep", [], _SERIAL),
        ("sweep", ["--max-attempts", "2"], ("SerialExecutor", 1, 2, None, None, None)),
        ("sweep", ["--workers", "2"], ("PoolExecutor", 2, 3, None, None, None)),
        (
            "sweep",
            ["--executor", "serial", "--workers", "4", "--max-attempts", "2"],
            ("PoolExecutor", 4, 2, None, None, None),
        ),
        ("sweep", ["--executor", "pool"], ("PoolExecutor", 1, 3, None, None, None)),
        (
            "sweep",
            ["--executor", "queue", "--workers", "2"],
            ("QueueExecutor", 1, 3, 300.0, True, 300.0),
        ),
        (
            "sweep",
            ["--executor", "queue", "--max-attempts", "2", "--lease-ttl", "1.5"],
            ("QueueExecutor", 1, 2, 1.5, True, 300.0),
        ),
        ("serve", [], _SERIAL),
        (
            "serve",
            ["--workers", "2", "--max-attempts", "1"],
            ("PoolExecutor", 2, 1, None, None, None),
        ),
        ("serve", ["--executor", "pool"], ("PoolExecutor", 1, 3, None, None, None)),
        (
            "serve",
            ["--executor", "queue", "--workers", "2"],
            ("QueueExecutor", 1, 3, 300.0, True, None),
        ),
        (
            "serve",
            ["--executor", "queue", "--external-workers", "--lease-ttl", "1.5"],
            ("QueueExecutor", 1, 3, 1.5, False, None),
        ),
        ("runner", 1, _SERIAL),
        ("runner", 3, ("PoolExecutor", 3, 3, None, None, None)),
    ],
)
def test_every_caller_builds_through_the_factory(
    caller, argv, expected, monkeypatch, tmp_path
):
    # sweep, serve and SweepRunner(workers=) all reach make_executor;
    # serial with more than one worker is a pool that keeps its budget.
    if caller == "runner":
        executor = SweepRunner(workers=argv).executor
    else:
        executor = _cli_executor(monkeypatch, tmp_path, caller, argv)
    assert _executor_fields(executor) == expected


# ------------------------------------------------- SweepRunner integration


def test_runner_workers_is_pool_sugar():
    serial = SweepRunner()
    assert isinstance(serial.executor, SerialExecutor)
    pooled = SweepRunner(workers=3)
    assert isinstance(pooled.executor, PoolExecutor)
    assert pooled.workers == 3


def test_runner_rejects_executor_plus_workers():
    with pytest.raises(ConfigError, match="not both"):
        SweepRunner(workers=2, executor=SerialExecutor())


def test_runner_explicit_executors_match_serial(tmp_path):
    spec = _spec()
    reference = SweepRunner().run(spec)
    for executor in (PoolExecutor(2), QueueExecutor(tmp_path / "spool")):
        results = SweepRunner(executor=executor).run(_spec())
        assert len(results) == len(reference)
        for got, want in zip(results, reference):
            assert got.total_cycles == want.total_cycles
            assert got.total_stall_cycles == want.total_stall_cycles
            assert got.run_result == want.run_result


def test_runner_queue_executor_with_groups(tmp_path):
    # dram.* axes collapse into one fan-out group; the group unit must
    # survive the spool's pickle round trip.
    spec = SweepSpec(
        base=_base(),
        axes=[Axis("dram.channels", (1, 2, 4))],
        topologies=[toy_gemm()],
        name="queue_group",
    )
    reference = SweepRunner().run(spec)
    runner = SweepRunner(executor=QueueExecutor(tmp_path))
    results = runner.run(spec)
    assert runner.last_grouping == (3, 1)
    for got, want in zip(results, reference):
        assert got.run_result == want.run_result


def test_split_unit_runs_under_spawn_pool(monkeypatch):
    # Pin the pool's spawn branch: sub-units (configs, topology) reach
    # fresh interpreters by pickle, with no state inherited by fork.
    import multiprocessing

    from repro.config.system import DramConfig
    from repro.run import executors

    monkeypatch.setattr(
        executors, "pool_context", lambda: multiprocessing.get_context("spawn")
    )
    spec = _spec(
        base=_base().replace(dram=DramConfig(enabled=True)),
        axes=[Axis("dram.channels", (1, 2))],
    )
    serial = SweepRunner(workers=1).run(spec)
    runner = SweepRunner(workers=2)
    spawned = runner.run(spec)
    assert tuple(runner.last_grouping) == (2, 2)  # the lone unit was split
    assert [r.run_result for r in spawned] == [r.run_result for r in serial]
