"""Pluggable sweep-execution backends (the executor seam).

:class:`~repro.run.sweep.SweepRunner` used to *be* a multiprocessing
pool; now the pool is one of several :class:`Executor` implementations
behind a one-method seam (:meth:`Executor.map_units_enveloped`), so the
execution substrate can change — serial in-process, a local process
pool, a spool-directory job queue, and eventually cross-machine
sharding — without touching grouping, caching or result stitching.
:func:`make_executor` is the one place an executor is chosen and built,
for ``sweep``, ``serve`` and ``SweepRunner(workers=N)`` alike:

* :class:`SerialExecutor` — in-process, no pool.  The executable
  specification every other executor must match result-for-result.
* :class:`PoolExecutor` — a local ``multiprocessing`` pool
  (:func:`repro.utils.pool.pool_context` fork/spawn selection, each
  worker started on a CPU of its own by
  :func:`repro.utils.pool.spread_worker`) and the only layer of the
  code base that forks.  ``serial`` with more than one worker builds
  one.  A lone unit runs in-process;
  the sweep runner splits a lone oversized fan-out unit into up to
  ``workers`` sub-units before dispatch, so the pool is not left idle.
* :class:`QueueExecutor` — the cross-machine sharding drop-in point:
  units are pickled to a spool directory as claimable task files and
  results collected by polling.  :func:`process_spool` is the worker
  loop a remote consumer would run; the default in-process worker makes
  the executor self-contained today while pinning the on-disk protocol
  (atomic task writes, claim-by-rename, atomic result writes) that a
  distributed deployment relies on.

The mapped function contract: ``fn(unit)`` runs one simulation unit,
serially, in whatever process the executor picks.  Functions must be
picklable (module level, or :func:`functools.partial` over one) so
every executor can ship them to workers.

Fault tolerance (see DESIGN.md "Fault tolerance at the executor seam"):

* every attempt's outcome travels as a :class:`ResultEnvelope` — a
  success wraps its value (so legitimately-falsy payloads never look
  like "not ready" to a polling producer), a failure carries a
  structured :class:`UnitFailure` (class, message, traceback, attempt)
  instead of crashing the worker loop;
* spool claims carry a JSON **lease** sidecar (owner pid/host, claim
  and heartbeat times, TTL, attempt) refreshed by a heartbeat thread
  while the unit runs; :func:`process_spool` *reclaims* tasks whose
  lease expired — or whose same-host owner is dead — by renaming the
  claim back into a task with the attempt bumped, so a SIGKILLed
  worker's unit is simply re-run by the next worker;
* producers retry failed units with exponential backoff up to a bounded
  attempt budget, after which the unit is parked in
  ``<spool>/quarantine/`` with its last traceback alongside;
* :func:`repro.run.faults` can deterministically inject raises,
  hard-exits, stalls and torn result writes into any of the above — the
  recovery fuzz pins that recoverable schedules stay bit-identical to
  fault-free runs.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import re
import socket
import threading
import time
import traceback as traceback_module
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError, ExecutionError
from repro.run import faults
from repro.store.artifact_store import (
    dump_json_atomic,
    dump_pickle_atomic,
    load_json_guarded,
    load_pickle_guarded,
)
from repro.utils.pool import pool_context, spread_worker

#: Executor names selectable via the CLI's ``--executor`` flag.
AVAILABLE_EXECUTORS = ("serial", "pool", "queue")

#: Default per-unit attempt budget before a failure becomes terminal.
DEFAULT_MAX_ATTEMPTS = 3

#: Default seconds without a heartbeat before a claim's lease expires.
DEFAULT_LEASE_TTL = 300.0

#: Default base of the exponential retry backoff (seconds).
DEFAULT_BACKOFF_BASE = 0.05

#: Ceiling of one backoff sleep, so deep retries stay bounded.
BACKOFF_CAP = 5.0


def _backoff_seconds(
    base: float, retry_number: int, rng: random.Random | None = None
) -> float:
    """Exponential backoff before retry ``retry_number`` (1-based).

    With ``rng`` the capped exponential sleep is scaled by a uniform
    draw in ``[0.5, 1.0]`` ("equal jitter"), so many producers retrying
    against the same spool (or many clients retrying against the same
    server) spread out instead of thundering in lockstep.  Passing a
    seeded :class:`random.Random` makes the jitter sequence
    deterministic — the fault-injection fuzz stays reproducible.
    """
    seconds = min(base * (2.0 ** (retry_number - 1)), BACKOFF_CAP)
    if rng is not None:
        seconds *= 0.5 + 0.5 * rng.random()
    return seconds


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a same-host pid."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - permission/race: assume alive
        return True
    return True


# -------------------------------------------------------------- envelopes


@dataclass
class UnitFailure:
    """Structured record of one unit's failed attempt.

    ``pickled_exception`` holds the original exception when it survives
    a pickle round trip, so the producer can chain it (``raise ... from``)
    with full fidelity; the traceback text is always captured.
    """

    error_class: str
    message: str
    traceback_text: str
    attempts: int
    pickled_exception: bytes | None = None

    @classmethod
    def from_exception(cls, exc: BaseException, attempt: int) -> UnitFailure:
        try:
            blob = pickle.dumps(exc)
            pickle.loads(blob)  # some exceptions pickle but fail to rebuild
        except Exception:
            blob = None
        return cls(
            error_class=type(exc).__name__,
            message=str(exc),
            traceback_text="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempts=attempt,
            pickled_exception=blob,
        )

    def exception(self) -> BaseException | None:
        """Rebuild the original exception, when it was transportable."""
        if self.pickled_exception is None:
            return None
        try:
            return pickle.loads(self.pickled_exception)
        except Exception:  # pragma: no cover - env-dependent unpickle
            return None

    def raise_(self) -> None:
        """Raise an :class:`ExecutionError` carrying this failure."""
        error = ExecutionError(
            f"unit failed after {self.attempts} attempt(s): "
            f"{self.error_class}: {self.message}\n"
            f"--- last attempt traceback ---\n{self.traceback_text}"
        )
        error.failure = self
        cause = self.exception()
        if cause is not None:
            raise error from cause
        raise error


@dataclass
class ResultEnvelope:
    """One unit's terminal outcome: a value, or a structured failure.

    The envelope — not the bare payload — is what spool workers write
    and producers poll for, so a payload that pickles to ``None`` (or
    any falsy value) is still unambiguously "done".
    """

    ok: bool
    value: object = None
    failure: UnitFailure | None = None
    attempt: int = 1

    def unwrap(self) -> object:
        """The value, or raise the failure as an :class:`ExecutionError`."""
        if self.ok:
            return self.value
        assert self.failure is not None
        self.failure.raise_()


def run_attempt(
    fn: Callable, unit: object, unit_index: int, attempt: int
) -> ResultEnvelope:
    """Run one attempt of ``fn(unit)``, capturing the outcome.

    Exceptions become error envelopes instead of propagating, so one
    poison unit can never crash a worker loop or abort its siblings.
    ``unit_index`` keys the deterministic fault-injection schedule
    (:mod:`repro.run.faults`); disarmed, the hook is a no-op.
    """
    try:
        faults.maybe_inject(unit_index, attempt)
        value = fn(unit)
        return ResultEnvelope(ok=True, value=value, attempt=attempt)
    except Exception as exc:
        return ResultEnvelope(
            ok=False, failure=UnitFailure.from_exception(exc, attempt), attempt=attempt
        )


@runtime_checkable
class Executor(Protocol):
    """Maps simulation units to payload lists on some substrate."""

    #: Units the executor can run at once (1 for strictly serial
    #: substrates).  The sweep runner splits a lone fan-out unit into
    #: up to this many sub-units.
    workers: int

    def map_units_enveloped(
        self,
        fn: Callable,
        units: Sequence,
        progress: Callable[[int, int], None] | None = None,
        unit_done: Callable[[int, ResultEnvelope], None] | None = None,
    ) -> list[ResultEnvelope]:
        """Run ``fn`` over every unit, one terminal envelope per unit.

        Envelopes come back in unit order.  ``progress(done, total)``
        reports terminal units (an exception it raises aborts the map);
        ``unit_done(index, envelope)`` fires once per unit as soon as
        its terminal envelope exists.
        """
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Run every unit in-process, one after another.

    The executable specification: every other executor must return the
    same envelopes, retried with the same backoff and attempt budget.
    """

    workers = 1

    def __init__(
        self,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_seed: int | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._backoff_rng = random.Random(backoff_seed)

    def map_units_enveloped(
        self,
        fn: Callable,
        units: Sequence,
        progress: Callable[[int, int], None] | None = None,
        unit_done: Callable[[int, ResultEnvelope], None] | None = None,
    ) -> list[ResultEnvelope]:
        """Run units in order; per-unit outcomes never raise.

        ``progress(done, total)`` fires after each unit reaches its
        terminal envelope; an exception it raises aborts the map (the
        sweep service uses exactly that for cooperative cancellation).
        ``unit_done(index, envelope)`` fires once per unit with its
        terminal envelope, as soon as it exists — the sweep runner uses
        it to persist completed work before the batch finishes, so a
        crash mid-batch only loses in-flight units.
        """
        return _map_in_process(self, fn, units, progress, unit_done)


def _map_in_process(
    executor: SerialExecutor | PoolExecutor,
    fn: Callable,
    units: Sequence,
    progress: Callable[[int, int], None] | None,
    unit_done: Callable[[int, ResultEnvelope], None] | None,
) -> list[ResultEnvelope]:
    """Run units one after another, retried with the executor's backoff."""
    units = list(units)
    envelopes = []
    for index, unit in enumerate(units):
        envelope = run_attempt(fn, unit, index, 1)
        for attempt in range(2, executor.max_attempts + 1):
            if envelope.ok:
                break
            time.sleep(
                _backoff_seconds(
                    executor.backoff_base, attempt - 1, executor._backoff_rng
                )
            )
            envelope = run_attempt(fn, unit, index, attempt)
        envelopes.append(envelope)
        if unit_done is not None:
            unit_done(index, envelope)
        if progress is not None:
            progress(len(envelopes), len(units))
    return envelopes


def _pool_attempt(args: tuple) -> ResultEnvelope:
    """Pool worker entry point: one enveloped attempt (picklable)."""
    fn, index, unit, attempt = args
    return run_attempt(fn, unit, index, attempt)


class PoolExecutor:
    """Fan units out over a local ``multiprocessing`` pool.

    A single unit never pays pool overhead: it runs in-process, exactly
    as under :class:`SerialExecutor`.  (The sweep runner splits a lone
    fan-out unit before dispatch, so this case only remains for units
    it cannot split.)

    Every attempt crosses the pool as a :class:`ResultEnvelope`, so one
    raising unit no longer aborts the map for its siblings: failed units
    are retried (with backoff) in follow-up rounds up to the attempt
    budget, and only the caller's :meth:`ResultEnvelope.unwrap` turns a
    terminal failure into an :class:`~repro.errors.ExecutionError`.
    """

    def __init__(
        self,
        workers: int,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_seed: int | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        self.workers = workers
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._backoff_rng = random.Random(backoff_seed)

    def map_units_enveloped(
        self,
        fn: Callable,
        units: Sequence,
        progress: Callable[[int, int], None] | None = None,
        unit_done: Callable[[int, ResultEnvelope], None] | None = None,
    ) -> list[ResultEnvelope]:
        """Enveloped map: per-unit outcomes, failures retried then kept.

        ``progress(done, total)`` counts units whose envelope is
        terminal — a success, or a failure with no retry budget left.
        ``unit_done(index, envelope)`` fires once per unit the moment
        its envelope turns terminal (crash-safe incremental persistence
        in the sweep runner).
        """
        units = list(units)
        if self.workers == 1 or len(units) <= 1:
            return _map_in_process(self, fn, units, progress, unit_done)
        done = 0
        envelopes: list[ResultEnvelope | None] = [None] * len(units)
        pending = list(range(len(units)))
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                time.sleep(
                    _backoff_seconds(self.backoff_base, attempt - 1, self._backoff_rng)
                )
            jobs = [(fn, index, units[index], attempt) for index in pending]
            processes = min(self.workers, len(jobs))
            still_failing = []
            context = pool_context()
            with context.Pool(
                processes=processes,
                initializer=spread_worker,
                initargs=(context.Value("i", 0),),
            ) as pool:
                for index, envelope in zip(
                    pending, pool.imap(_pool_attempt, jobs, chunksize=1)
                ):
                    envelopes[index] = envelope
                    if not envelope.ok:
                        still_failing.append(index)
                    if envelope.ok or attempt == self.max_attempts:
                        done += 1
                        if unit_done is not None:
                            unit_done(index, envelope)
                        if progress is not None:
                            progress(done, len(units))
            pending = still_failing
            if not pending:
                break
        return envelopes  # type: ignore[return-value]


# ------------------------------------------------------------- job queue

#: Spool-file suffixes of the queue protocol.
_TASK_SUFFIX = ".task.pkl"
_RESULT_SUFFIX = ".result.pkl"
_LEASE_SUFFIX = ".lease.json"

#: Spool subdirectory where exhausted units are parked.
QUARANTINE_DIRNAME = "quarantine"

#: Garbage written by the ``corrupt`` fault kind in place of a result
#: pickle (deliberately not a valid pickle stream).
_TORN_RESULT_BYTES = b"\x00torn-result-write"

_UNIT_NAME_RE = re.compile(r"unit_(\d+)\.task\.pkl")
_BATCH_NAME_RE = re.compile(r"batch_(\d+)_")


@dataclass
class TaskRecord:
    """One spooled unit: the work plus its fault-tolerance metadata.

    This is the task file's on-disk payload.  ``attempt`` is bumped on
    every producer re-enqueue and every lease reclaim, so whichever
    worker runs the unit knows which attempt it is executing (and the
    fault harness can target attempts deterministically).
    """

    fn: Callable
    unit: object
    attempt: int = 1
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    lease_ttl: float = DEFAULT_LEASE_TTL


def _spool_task_paths(batch_dir: Path, count: int) -> list[Path]:
    return [batch_dir / f"unit_{index:06d}{_TASK_SUFFIX}" for index in range(count)]


def _result_path(task_path: Path) -> Path:
    return task_path.with_name(
        task_path.name[: -len(_TASK_SUFFIX)] + _RESULT_SUFFIX
    )


def _unit_index(task_path: Path) -> int:
    """The unit's batch-local index (keys the fault schedule)."""
    match = _UNIT_NAME_RE.fullmatch(task_path.name)
    return int(match.group(1)) if match else 0


def _lease_path(claim: Path) -> Path:
    return claim.with_name(claim.name + _LEASE_SUFFIX)


def _claim_task_path(claim: Path) -> Path:
    """The task path a claim file was renamed from."""
    return claim.with_name(claim.name.split(".claim.")[0])


def _write_lease(claim: Path, attempt: int, ttl: float) -> None:
    """Write/refresh the claim's lease sidecar (atomic, failure-tolerant)."""
    now = time.time()
    dump_json_atomic(
        _lease_path(claim),
        {
            "owner_pid": os.getpid(),
            "owner_host": socket.gethostname(),
            "claimed_at": now,
            "heartbeat_at": now,
            "lease_ttl": ttl,
            "attempt": attempt,
        },
    )


class _LeaseHeartbeat:
    """Background refresh of a claim's lease while its unit runs.

    A daemon thread rewrites the sidecar every ``ttl / 4`` seconds, so
    a slow-but-alive worker keeps its lease indefinitely while a
    SIGKILLed one stops heartbeating the instant it dies.  The thread
    dies with the process — exactly the property reclaim relies on.
    """

    def __init__(self, claim: Path, attempt: int, ttl: float) -> None:
        self._claim = claim
        self._attempt = attempt
        self._ttl = ttl
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> _LeaseHeartbeat:
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)

    def _run(self) -> None:
        interval = max(self._ttl / 4.0, 0.01)
        while not self._stop.wait(interval):
            if not self._claim.exists():
                return  # reclaimed or retired under us: stop quietly
            _write_lease(self._claim, self._attempt, self._ttl)


def _lease_expired(claim: Path, lease_ttl: float | None) -> bool:
    """Is this claim reclaimable?

    Expired means either (a) the lease sidecar's same-host owner pid is
    dead — a crashed worker is reclaimed immediately, no TTL wait — or
    (b) the last heartbeat is older than the TTL (a wedged worker whose
    heartbeat thread stopped, or a cross-host worker that vanished).  A
    claim without a readable sidecar (worker died inside the tiny
    rename-to-sidecar window) falls back to the claim file's mtime.
    """
    now = time.time()
    lease = load_json_guarded(_lease_path(claim))
    if lease is not None:
        ttl = lease_ttl if lease_ttl is not None else float(
            lease.get("lease_ttl", DEFAULT_LEASE_TTL)
        )
        owner_pid = int(lease.get("owner_pid", 0))
        same_host = lease.get("owner_host") == socket.gethostname()
        if same_host and owner_pid and not _pid_alive(owner_pid):
            return True
        return now - float(lease.get("heartbeat_at", 0.0)) > ttl
    ttl = lease_ttl if lease_ttl is not None else DEFAULT_LEASE_TTL
    try:
        return now - claim.stat().st_mtime > ttl
    except OSError:
        return False  # claim vanished (owner finished) — nothing to reclaim


def _is_claim_file(path: Path) -> bool:
    """A real claim file — not its lease sidecar or a reclaim token."""
    return (
        ".claim." in path.name
        and not path.name.endswith(_LEASE_SUFFIX)
        and ".reclaim." not in path.name
        and not path.name.endswith(".tmp")
    )


def _requeue_claim(claim: Path) -> bool:
    """Turn one claim back into a claimable task with the attempt bumped.

    The requeue itself is claim-by-rename all over again (claim ->
    private token), so two processes can never both resurrect one task.
    The winner re-writes the task file with the attempt bumped — the
    re-run is a *new attempt* against the retry budget and the fault
    schedule.  False when the owner finished or another process won
    the rename, or when the task is corrupt or foreign (dropped; the
    producer's loss path handles it).
    """
    token = claim.with_name(claim.name + f".reclaim.{os.getpid()}")
    try:
        claim.rename(token)
    except OSError:
        return False
    task = load_pickle_guarded(token)
    _lease_path(claim).unlink(missing_ok=True)
    token.unlink(missing_ok=True)
    if not isinstance(task, TaskRecord):
        return False
    task = dataclasses.replace(task, attempt=task.attempt + 1)
    try:
        dump_pickle_atomic(_claim_task_path(claim), task)
    except OSError:  # pragma: no cover - batch retired mid-requeue
        return False
    return True


def reclaim_expired(spool_dir: str | Path, lease_ttl: float | None = None) -> int:
    """Return expired claims to the spool as claimable tasks.

    Each expired claim is requeued by :func:`_requeue_claim`.  Returns
    the number of tasks reclaimed.
    """
    claims = sorted(Path(spool_dir).glob(f"*/unit_*{_TASK_SUFFIX}.claim.*"))
    return sum(
        _requeue_claim(claim)
        for claim in claims
        if _is_claim_file(claim) and _lease_expired(claim, lease_ttl)
    )


def release_claims(spool_dir: str | Path, owner_pid: int | None = None) -> int:
    """Hand this process's spool claims back as claimable tasks.

    The voluntary counterpart of :func:`reclaim_expired`: a draining
    process (the sweep service on SIGTERM) releases the claims it still
    holds so surviving workers — including cross-host ones that cannot
    observe pid death and would otherwise wait out the lease TTL — pick
    the units up immediately.  Same requeue (:func:`_requeue_claim`),
    so a concurrent reclaimer can never double-resurrect a task.
    Returns the number of claims released.
    """
    pid = os.getpid() if owner_pid is None else owner_pid
    claims = sorted(Path(spool_dir).glob(f"*/unit_*{_TASK_SUFFIX}.claim.{pid}"))
    return sum(_requeue_claim(claim) for claim in claims if _is_claim_file(claim))


def reap_dead_batches(spool_dir: str | Path) -> int:
    """Prune batch directories whose producer can never collect them.

    A batch directory is dead when it is empty, or when the producer
    pid embedded in its name (``batch_<pid>_<serial>``) is no longer
    alive *on this host* — its results would wait forever.  Quarantine
    is never touched.  A same-host janitor pass, not safe to point at a
    spool whose producers live on other machines.
    """
    spool_dir = Path(spool_dir)
    if not spool_dir.exists():
        return 0
    reaped = 0
    for batch_dir in sorted(spool_dir.iterdir()):
        if not batch_dir.is_dir() or batch_dir.name == QUARANTINE_DIRNAME:
            continue
        try:
            entries = list(batch_dir.iterdir())
        except OSError:  # pragma: no cover - concurrent removal
            continue
        match = _BATCH_NAME_RE.match(batch_dir.name)
        producer_dead = match is not None and not _pid_alive(int(match.group(1)))
        if entries and not producer_dead:
            continue
        for entry in entries:
            entry.unlink(missing_ok=True)
        try:
            batch_dir.rmdir()
            reaped += 1
        except OSError:  # pragma: no cover - concurrent writer refilled it
            pass
    return reaped


def process_spool(
    spool_dir: str | Path,
    max_tasks: int | None = None,
    lease_ttl: float | None = None,
    reap: bool = False,
    heartbeat: bool = True,
) -> int:
    """One pass of the queue worker loop: reclaim, claim, run, write.

    First returns any expired claims to the spool
    (:func:`reclaim_expired`), then scans every batch directory under
    ``spool_dir`` for unclaimed task files, claims each by an atomic
    rename (two workers can never claim the same task), executes the
    pickled task, and writes the result atomically next to it.  Returns
    the number of tasks executed.  This is exactly what a remote worker
    process — on this machine or another sharing the spool via a
    network filesystem — runs in a loop (``scale-sim-repro worker``).

    Tasks are :class:`TaskRecord` payloads: each runs under a lease
    (sidecar + heartbeat) and produces a :class:`ResultEnvelope` result
    — exceptions included, so a poison unit never kills the loop.  A
    spool file holding anything else (a corrupt pickle, a foreign
    object) is dropped unexecuted.

    Args:
        max_tasks: stop after executing this many tasks.
        lease_ttl: override for expiry checks (``None`` trusts each
            lease's own TTL).
        reap: prune dead batch directories after the pass
            (:func:`reap_dead_batches`).
        heartbeat: refresh leases while units run (disable only in
            tests that exercise expiry-under-execution).
    """
    spool_dir = Path(spool_dir)
    executed = 0
    if not spool_dir.exists():
        return 0
    reclaim_expired(spool_dir, lease_ttl=lease_ttl)
    for task_path in sorted(spool_dir.glob(f"*/unit_*{_TASK_SUFFIX}")):
        if spool_dir / QUARANTINE_DIRNAME in task_path.parents:
            continue  # parked units are evidence, not work
        if max_tasks is not None and executed >= max_tasks:
            break
        claim = task_path.with_name(task_path.name + f".claim.{os.getpid()}")
        try:
            task_path.rename(claim)
        except OSError:
            continue  # another worker won the claim
        task = load_pickle_guarded(claim)
        if not isinstance(task, TaskRecord):
            # Corrupt or foreign spool entry: dropped, the producer's
            # loss path recovers.
            claim.unlink(missing_ok=True)
            continue
        _execute_claimed(task_path, claim, task, lease_ttl, heartbeat)
        executed += 1
    if reap:
        reap_dead_batches(spool_dir)
    return executed


def _execute_claimed(
    task_path: Path,
    claim: Path,
    task: TaskRecord,
    lease_ttl: float | None,
    heartbeat: bool,
) -> None:
    """Run one claimed :class:`TaskRecord` under its lease."""
    ttl = lease_ttl if lease_ttl is not None else task.lease_ttl
    _write_lease(claim, task.attempt, ttl)
    index = _unit_index(task_path)
    if heartbeat:
        with _LeaseHeartbeat(claim, task.attempt, ttl):
            envelope = run_attempt(task.fn, task.unit, index, task.attempt)
    else:
        envelope = run_attempt(task.fn, task.unit, index, task.attempt)
    try:
        if faults.corrupt_requested(index, task.attempt):
            _result_path(task_path).write_bytes(_TORN_RESULT_BYTES)
        else:
            dump_pickle_atomic(_result_path(task_path), envelope)
    except OSError:  # pragma: no cover - batch retired mid-run
        pass
    _lease_path(claim).unlink(missing_ok=True)
    claim.unlink(missing_ok=True)


class QueueExecutor:
    """Spool-directory executor: the sharding drop-in point.

    Every map call creates one batch directory under the
    spool, writes each unit as an atomic :class:`TaskRecord` task file,
    lets workers claim tasks (:func:`process_spool`), and supervises
    the result files: success envelopes are collected, error envelopes
    are re-enqueued with exponential backoff until the attempt budget
    runs out (then parked in ``<spool>/quarantine/`` with the last
    traceback), vanished results (torn writes) count as one more failed
    attempt, and expired leases are reclaimed so a dead worker's unit
    re-runs elsewhere.  With ``run_local_worker=True`` (the default)
    the executor drains its own spool in-process between polls — the
    full serialize/claim/execute/collect round trip runs through disk,
    so the on-disk protocol is exercised end to end even with no
    external worker attached.

    Args:
        spool_dir: shared directory tasks and results flow through.
        run_local_worker: drain the spool in-process (default); pass
            ``False`` when external workers own execution.
        poll_interval: seconds between result-collection scans.
        timeout: seconds to wait for all results before raising
            (``None`` waits indefinitely — external-worker setups).
        max_attempts: per-unit attempt budget before quarantine.
        lease_ttl: seconds without a heartbeat before a claim is
            considered abandoned and reclaimed.
        backoff_base: base of the exponential re-enqueue backoff.
    """

    workers = 1

    def __init__(
        self,
        spool_dir: str | Path,
        run_local_worker: bool = True,
        poll_interval: float = 0.05,
        timeout: float | None = 300.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_seed: int | None = None,
    ) -> None:
        if poll_interval <= 0:
            raise ConfigError(f"poll_interval must be > 0, got {poll_interval}")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        if lease_ttl <= 0:
            raise ConfigError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.run_local_worker = run_local_worker
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.lease_ttl = lease_ttl
        self.backoff_base = backoff_base
        self._backoff_rng = random.Random(backoff_seed)
        self._batch_serial = 0

    @property
    def quarantine_dir(self) -> Path:
        """Where exhausted units are parked (created on first use)."""
        return self.spool_dir / QUARANTINE_DIRNAME

    def _new_batch_dir(self) -> Path:
        # Pid + per-instance serial: unique across concurrent producers
        # sharing one spool and across calls within one producer.
        while True:
            self._batch_serial += 1
            batch = self.spool_dir / f"batch_{os.getpid()}_{self._batch_serial:04d}"
            try:
                batch.mkdir(parents=True, exist_ok=False)
                return batch
            except FileExistsError:  # pragma: no cover - pid reuse race
                continue

    def map_units_enveloped(
        self,
        fn: Callable,
        units: Sequence,
        progress: Callable[[int, int], None] | None = None,
        unit_done: Callable[[int, ResultEnvelope], None] | None = None,
    ) -> list[ResultEnvelope]:
        """Enveloped map: per-unit outcomes, terminal failures kept.

        ``progress(done, total)`` fires from the supervision loop on
        every poll pass (with whatever count has arrived so far), so a
        caller can use it both as a completion signal and as a
        cancellation poll while external workers hold the units.
        ``unit_done(index, envelope)`` fires once per unit as its
        terminal envelope is collected from the spool.
        """
        units = list(units)
        if not units:
            return []
        batch_dir = self._new_batch_dir()
        task_paths = _spool_task_paths(batch_dir, len(units))
        records = [
            TaskRecord(
                fn=fn,
                unit=unit,
                attempt=1,
                max_attempts=self.max_attempts,
                lease_ttl=self.lease_ttl,
            )
            for unit in units
        ]
        try:
            for task_path, record in zip(task_paths, records):
                dump_pickle_atomic(task_path, record)
            return self._supervise(
                batch_dir, task_paths, records, progress=progress, unit_done=unit_done
            )
        finally:
            self._cleanup(batch_dir, task_paths)

    # ------------------------------------------------------- supervision

    def _supervise(
        self,
        batch_dir: Path,
        task_paths: list[Path],
        records: list[TaskRecord],
        progress: Callable[[int, int], None] | None = None,
        unit_done: Callable[[int, ResultEnvelope], None] | None = None,
    ) -> list[ResultEnvelope]:
        """The producer loop: collect, retry, reclaim, quarantine."""
        envelopes: dict[int, ResultEnvelope] = {}
        announced: set[int] = set()
        enqueued_attempt = {index: 1 for index in range(len(task_paths))}
        requeue_after: dict[int, tuple[float, TaskRecord]] = {}
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        while len(envelopes) < len(task_paths):
            if self.run_local_worker:
                process_spool(self.spool_dir)
            for index, task_path in enumerate(task_paths):
                if index in envelopes:
                    continue
                if index in requeue_after:
                    due, record = requeue_after[index]
                    if time.monotonic() >= due:
                        del requeue_after[index]
                        dump_pickle_atomic(task_path, record)
                        enqueued_attempt[index] = record.attempt
                    continue
                self._check_unit(
                    index, task_path, records, envelopes, enqueued_attempt, requeue_after
                )
            if unit_done is not None:
                for index in sorted(envelopes.keys() - announced):
                    announced.add(index)
                    unit_done(index, envelopes[index])
            if progress is not None:
                progress(len(envelopes), len(task_paths))
            if len(envelopes) == len(task_paths):
                break
            if deadline is not None and time.monotonic() > deadline:
                missing = [
                    task_paths[i].name
                    for i in range(len(task_paths))
                    if i not in envelopes
                ]
                raise TimeoutError(
                    f"queue executor: {len(missing)} unit(s) not completed "
                    f"within {self.timeout}s: {', '.join(missing[:5])}"
                )
            time.sleep(self.poll_interval)
        return [envelopes[index] for index in range(len(task_paths))]

    def _check_unit(
        self,
        index: int,
        task_path: Path,
        records: list[TaskRecord],
        envelopes: dict[int, ResultEnvelope],
        enqueued_attempt: dict[int, int],
        requeue_after: dict[int, tuple[float, TaskRecord]],
    ) -> None:
        """Poll one unit: collect its envelope or advance its recovery."""
        payload = load_pickle_guarded(_result_path(task_path))
        if payload is None:
            # No result yet.  If the task file and every claim of it are
            # gone too, the unit vanished: a torn result write (the
            # guarded load above just unlinked the garbage) or a writer
            # that crashed between unlinks.  Re-check the result once
            # more to close the claim-unlink/result-write race window.
            if (
                task_path.exists()
                or self._in_flight(task_path)
                or load_pickle_guarded(_result_path(task_path)) is not None
            ):
                return
            failure = UnitFailure(
                error_class="ResultLost",
                message="result pickle missing or corrupt after execution",
                traceback_text="",
                attempts=enqueued_attempt[index],
            )
            self._record_failure(
                index, task_path, records, envelopes, requeue_after, failure
            )
            return
        if payload.ok:
            envelopes[index] = payload
            return
        _result_path(task_path).unlink(missing_ok=True)
        assert payload.failure is not None
        self._record_failure(
            index, task_path, records, envelopes, requeue_after, payload.failure
        )

    def _record_failure(
        self,
        index: int,
        task_path: Path,
        records: list[TaskRecord],
        envelopes: dict[int, ResultEnvelope],
        requeue_after: dict[int, tuple[float, TaskRecord]],
        failure: UnitFailure,
    ) -> None:
        """Retry a failed attempt with backoff, or quarantine the unit."""
        next_attempt = failure.attempts + 1
        if next_attempt > records[index].max_attempts:
            self._quarantine(task_path, records[index], failure)
            envelopes[index] = ResultEnvelope(
                ok=False, failure=failure, attempt=failure.attempts
            )
            return
        record = dataclasses.replace(records[index], attempt=next_attempt)
        due = time.monotonic() + _backoff_seconds(
            self.backoff_base, next_attempt - 1, self._backoff_rng
        )
        requeue_after[index] = (due, record)

    def _in_flight(self, task_path: Path) -> bool:
        """Is any worker holding (or reclaiming) a claim on this unit?"""
        return any(task_path.parent.glob(task_path.name + ".claim.*"))

    def _quarantine(
        self, task_path: Path, record: TaskRecord, failure: UnitFailure
    ) -> None:
        """Park an exhausted unit beside its last traceback."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{task_path.parent.name}_{task_path.name[: -len(_TASK_SUFFIX)]}"
        dump_pickle_atomic(
            self.quarantine_dir / f"{stem}{_TASK_SUFFIX}",
            dataclasses.replace(record, attempt=failure.attempts),
        )
        (self.quarantine_dir / f"{stem}.traceback.txt").write_text(
            f"unit: {task_path}\n"
            f"attempts: {failure.attempts}\n"
            f"error: {failure.error_class}: {failure.message}\n\n"
            f"{failure.traceback_text}"
        )

    def _cleanup(self, batch_dir: Path, task_paths: list[Path]) -> None:
        """Retire a finished batch: tasks, results, claims, leases, dir.

        Claims and lease sidecars of in-flight duplicates (a reclaimed
        unit whose original worker is still stalling) are removed too —
        the batch is decided, any straggler's write lands in a void and
        its writer is guarded against the missing directory.
        """
        for task_path in task_paths:
            task_path.unlink(missing_ok=True)
            _result_path(task_path).unlink(missing_ok=True)
        try:
            for leftover in batch_dir.iterdir():
                leftover.unlink(missing_ok=True)
            batch_dir.rmdir()
        except OSError:  # pragma: no cover - concurrent straggler write
            pass


def make_executor(
    name: str,
    workers: int = 1,
    spool_dir: str | Path | None = None,
    max_attempts: int | None = None,
    lease_ttl: float | None = None,
    run_local_worker: bool = True,
    timeout: float | None = 300.0,
) -> Executor:
    """Build an executor by CLI name: the one place one is chosen.

    ``serial`` runs in-process, and with ``workers > 1`` is a pool that
    keeps ``max_attempts``; ``pool`` wraps ``workers`` processes;
    ``queue`` spools through ``spool_dir`` (required) and ignores
    ``workers``.  ``max_attempts`` / ``lease_ttl`` override the
    fault-tolerance defaults where the backend supports them;
    ``run_local_worker`` and ``timeout`` are the queue's own (see
    :class:`QueueExecutor`).
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    key = name.strip().lower()
    attempts = DEFAULT_MAX_ATTEMPTS if max_attempts is None else max_attempts
    if key == "serial" and workers > 1:
        key = "pool"
    if key == "serial":
        return SerialExecutor(max_attempts=attempts)
    if key == "pool":
        return PoolExecutor(workers, max_attempts=attempts)
    if key == "queue":
        if spool_dir is None:
            raise ConfigError("queue executor requires a spool directory")
        return QueueExecutor(
            spool_dir,
            run_local_worker=run_local_worker,
            timeout=timeout,
            max_attempts=attempts,
            lease_ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
        )
    raise ConfigError(
        f"unknown executor {name!r}; available: {', '.join(AVAILABLE_EXECUTORS)}"
    )


__all__ = [
    "AVAILABLE_EXECUTORS",
    "BACKOFF_CAP",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "Executor",
    "PoolExecutor",
    "QUARANTINE_DIRNAME",
    "QueueExecutor",
    "ResultEnvelope",
    "SerialExecutor",
    "TaskRecord",
    "UnitFailure",
    "make_executor",
    "process_spool",
    "reap_dead_batches",
    "reclaim_expired",
    "release_claims",
    "run_attempt",
]
