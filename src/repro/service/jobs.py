"""The job state machine and the crash-safe job manager.

The service half that knows nothing about HTTP.  A job is a
:class:`~repro.run.request.SweepRequest`, the typed boundary CLI
``sweep`` and ``submit`` share: admission builds it once, so a payload
the boundary rejects is a 400 and queues nothing, and its wire form is
what the journal keeps.  :class:`Job` is one accepted job's state
machine (``queued -> running -> done/degraded/failed/cancelled``)
riding on a durable :class:`~repro.service.journal.JobJournal`; and
:class:`JobManager` owns admission control, the worker threads, crash
recovery, and graceful drain:

* **admission control** — a bounded queue (``max_queued``) and a
  bounded set of concurrently-running jobs (``max_active`` worker
  threads, each running its job's units through the configured
  executor at ``workers`` parallelism — the server's concurrent-unit
  budget is ``max_active x workers``).  Past the queue bound
  :meth:`JobManager.submit` raises :class:`QueueFullError`, which the
  HTTP layer maps to 429 + ``Retry-After``;
* **crash recovery** — :meth:`JobManager.recover` (run at startup)
  replays every job journal under the data directory: jobs with a
  terminal event are loaded as finished history, jobs without one are
  re-enqueued.  Re-running is idempotent: completed units are
  ``sweep_point`` hits in the shared on-disk
  :class:`~repro.store.ArtifactStore`, so only results lost with the
  dead process are re-simulated;
* **graceful drain** — :meth:`begin_drain` stops admission (new
  submits raise :class:`DrainingError` -> 503), :meth:`drain` waits for
  running jobs up to a timeout, journals the stragglers as
  ``interrupted``, hands the process's spool claims back to surviving
  workers (:func:`repro.run.executors.release_claims`), and stamps the
  server journal with a clean/dirty stop marker.

Everything here is stdlib + the existing run/store seams — no new
dependencies.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from pathlib import Path

from repro.core.report import write_failure_report, write_sweep_report
from repro.errors import ReproError, ServiceError
from repro.run.executors import (
    _TASK_SUFFIX,
    make_executor,
    release_claims,
)
from repro.run.request import SweepRequest
from repro.run.sweep import ResultCache, SweepRunner
from repro.service.journal import JobJournal
from repro.store import ArtifactStore, dump_json_atomic

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "degraded", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "degraded", "failed", "cancelled")

#: Subdirectory of the data dir holding one directory per job.
JOBS_DIRNAME = "jobs"


class InvalidJobError(ServiceError):
    """A request failed validation: its job payload, body or query (HTTP 400)."""

    http_status = 400


class UnknownJobError(ServiceError):
    """No job with the requested id exists (HTTP 404)."""

    http_status = 404


class JobStateError(ServiceError):
    """The job is in the wrong state for the request (HTTP 409)."""

    http_status = 409


class QueueFullError(ServiceError):
    """The bounded job queue is at capacity (HTTP 429 + Retry-After)."""

    http_status = 429

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DrainingError(ServiceError):
    """The server is draining and admits no new work (HTTP 503)."""

    http_status = 503


class JobCancelled(Exception):
    """Raised inside a running job when its cancellation was requested."""


# ------------------------------------------------------------------- job


class Job:
    """One accepted job: durable identity plus volatile run state."""

    def __init__(self, job_id: str, spec: SweepRequest, job_dir: Path) -> None:
        self.id = job_id
        self.spec = spec
        self.dir = job_dir
        self.journal = JobJournal.for_job_dir(job_dir)
        self.state = "queued"
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.attempt = 0
        self.units_done = 0
        self.units_total: int | None = None
        self.points: int | None = None
        self.rows = 0
        self.failures: list[dict] = []
        self.error: dict | None = None
        self.cancel_requested = threading.Event()
        self.recovered = False

    @property
    def report_path(self) -> Path:
        return self.dir / f"{self.spec.name}_report.csv"

    @property
    def failures_path(self) -> Path:
        return self.dir / f"{self.spec.name}_failures.csv"

    def status_dict(self) -> dict:
        """The GET /jobs/<id> body."""
        status: dict = {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempt": self.attempt,
            "recovered": self.recovered,
            "cancel_requested": self.cancel_requested.is_set(),
            "progress": {
                "units_done": self.units_done,
                "units_total": self.units_total,
            },
            "points": self.points,
            "rows": self.rows,
            "failures": self.failures,
        }
        if self.error is not None:
            status["error"] = self.error
        if self.state in ("done", "degraded"):
            status["report"] = self.report_path.name
            if self.failures_path.exists():
                status["failures_report"] = self.failures_path.name
        return status

    def summary_dict(self) -> dict:
        """The GET /jobs list entry."""
        return {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "created_at": self.created_at,
            "units_done": self.units_done,
            "units_total": self.units_total,
        }


# ---------------------------------------------------------------- manager


class JobManager:
    """Owns the job table, the queue, the workers, and recovery.

    Thread-safe: the HTTP layer calls :meth:`submit` / :meth:`get` /
    :meth:`wait_finished` / :meth:`cancel` / :meth:`health` from
    request threads while ``max_active`` worker threads run jobs.  All
    shared state is guarded by one condition variable, which idle
    workers and long-polls both wait on, so it is always notified with
    ``notify_all``; job execution itself happens outside the lock.

    Args:
        data_dir: root of all durable state (jobs, store, spool).
        executor_name: ``serial`` (default), ``pool`` or ``queue`` —
            how each job's simulation units execute.
        workers: per-job unit parallelism; ``serial`` with more than
            one worker is a pool (:func:`~repro.run.executors.make_executor`).
        max_queued: admission bound on jobs waiting to run.
        max_active: worker threads = jobs running concurrently.
        max_attempts / lease_ttl: executor fault-tolerance overrides.
        external_workers: with the ``queue`` executor, don't drain the
            spool in-process — remote ``scale-sim-repro worker``
            processes own execution.
        job_runner: test seam — replaces the real sweep execution with
            ``fn(manager, job)``; everything else (journal, states,
            admission, drain) runs unchanged.
    """

    def __init__(
        self,
        data_dir: str | Path,
        executor_name: str = "serial",
        workers: int = 1,
        max_queued: int = 16,
        max_active: int = 1,
        max_attempts: int | None = None,
        lease_ttl: float | None = None,
        external_workers: bool = False,
        job_runner=None,
    ) -> None:
        if max_queued < 1:
            raise ServiceError(f"max_queued must be >= 1, got {max_queued}")
        if max_active < 1:
            raise ServiceError(f"max_active must be >= 1, got {max_active}")
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / JOBS_DIRNAME
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.executor_name = executor_name
        self.workers = workers
        self.max_queued = max_queued
        self.max_active = max_active
        self.max_attempts = max_attempts
        self.lease_ttl = lease_ttl
        self.external_workers = external_workers
        self.store = ArtifactStore(self.data_dir / "store")
        self.cache = ResultCache(self.store)
        self.spool_dir = self.data_dir / "spool"
        self.server_journal = JobJournal(self.data_dir / "server.jsonl")
        self._job_runner = job_runner if job_runner is not None else _run_sweep_job
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._queue: deque[str] = deque()
        self._cond = threading.Condition()
        self._draining = False
        self._stopping = False
        self._threads: list[threading.Thread] = []
        self._active = 0
        self.started_at = time.time()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Recover journaled jobs, then start the worker threads."""
        self.recover()
        self.server_journal.append(
            "server_started",
            executor=self.executor_name,
            max_queued=self.max_queued,
            max_active=self.max_active,
        )
        for number in range(self.max_active):
            thread = threading.Thread(
                target=self._worker_loop, name=f"job-worker-{number}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def recover(self) -> int:
        """Replay every job directory; re-enqueue unfinished work.

        Jobs with a terminal journal event are registered as finished
        history (their reports are already on disk).  Jobs without one
        — the server died while they were queued or running — are
        re-enqueued in submission order, *bypassing* the admission
        bound: they were admitted once and are owed.  Only the
        payload's shape is checked here, so a job admitted under looser
        rules is still recovered and fails when it runs.  Returns the
        number of jobs re-enqueued.
        """
        recovered = 0
        entries = []
        for job_dir in self.jobs_dir.iterdir() if self.jobs_dir.exists() else []:
            if not job_dir.is_dir():
                continue
            journal = JobJournal.for_job_dir(job_dir)
            events = journal.replay()
            submitted = next(
                (event for event in events if event.get("event") == "submitted"), None
            )
            if submitted is None:
                # A directory with no intact submitted line: the server
                # died inside submit() before the journal's first fsync
                # finished.  The client never got an id back, so nothing
                # is owed; leave the husk for operators.
                continue
            entries.append((submitted.get("time", 0.0), job_dir, events, submitted))
        for _, job_dir, events, submitted in sorted(entries, key=lambda item: item[0]):
            payload = submitted.get("payload")
            try:
                spec = SweepRequest.from_payload(payload)
            except ReproError:
                continue  # journaled by an incompatible future/past version
            job = Job(job_dir.name, spec, job_dir)
            job.created_at = submitted.get("time", job.created_at)
            terminal = None
            for event in reversed(events):
                if event.get("event") in TERMINAL_STATES:
                    terminal = event
                    break
            with self._cond:
                self._jobs[job.id] = job
                self._order.append(job.id)
                if terminal is not None:
                    _load_finished(job, events, terminal)
                else:
                    job.recovered = True
                    job.attempt = sum(
                        1 for event in events if event.get("event") == "started"
                    )
                    job.journal.append("recovered")
                    self._queue.append(job.id)
                    recovered += 1
                    self._cond.notify_all()
        return recovered

    def begin_drain(self) -> None:
        """Stop admission; running jobs continue.  Safe to call twice."""
        with self._cond:
            if self._draining:
                return
            self._draining = True
            self._cond.notify_all()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for running jobs, then stamp the stop marker.

        Queued jobs stay journaled (a restart re-enqueues them); only
        *running* jobs are waited for.  On timeout the stragglers are
        journaled ``interrupted`` and the process's spool claims are
        handed back so surviving remote workers pick the units up
        immediately.  Returns ``True`` for a clean (fully drained)
        stop.
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._active > 0 and time.monotonic() < deadline:
                self._cond.wait(timeout=min(0.2, max(0.01, deadline - time.monotonic())))
            clean = self._active == 0
            stragglers = [
                job for job in self._jobs.values() if job.state == "running"
            ]
            queued = len(self._queue)
            self._stopping = True
            self._cond.notify_all()
        for job in stragglers:
            job.journal.append("interrupted", reason="drain timeout")
        if self.spool_dir.exists():
            release_claims(self.spool_dir)
        self.server_journal.append(
            "server_stopped",
            clean=clean,
            interrupted=len(stragglers),
            queued_left=queued,
        )
        return clean

    # ------------------------------------------------------------ admission

    def submit(self, payload: object) -> Job:
        """Admit one job (or raise); the accepted job is already durable.

        Order matters for crash-safety: the job directory and its
        ``submitted`` journal line are written *before* the job becomes
        visible in the queue, so any job a client ever saw an id for is
        recoverable, and a crash inside submit leaves at most an inert
        directory without a journal.  Admission builds the sweep once,
        so a payload the boundary rejects is an :class:`InvalidJobError`
        and queues nothing.
        """
        try:
            spec = SweepRequest.from_payload(payload)
            spec.build()
        except ReproError as exc:
            raise InvalidJobError(str(exc)) from exc
        with self._cond:
            if self._draining:
                raise DrainingError("server is draining; not accepting jobs")
            if len(self._queue) >= self.max_queued:
                raise QueueFullError(
                    f"job queue is full ({self.max_queued} queued)",
                    retry_after=1.0,
                )
            job_id = uuid.uuid4().hex[:12]
            job_dir = self.jobs_dir / job_id
        job_dir.mkdir(parents=True)
        job = Job(job_id, spec, job_dir)
        dump_json_atomic(job_dir / "spec.json", spec.to_payload())
        job.journal.append("submitted", job_id=job_id, payload=spec.to_payload())
        with self._cond:
            if self._draining:
                # Drain began between validation and enqueue: journal the
                # rejection so the directory self-describes, and refuse.
                job.journal.append("cancelled", reason="server draining at submit")
                raise DrainingError("server is draining; not accepting jobs")
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._queue.append(job_id)
            self._cond.notify_all()
        return job

    def get(self, job_id: str) -> Job:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id}")
        return job

    def jobs(self) -> list[Job]:
        with self._cond:
            return [self._jobs[job_id] for job_id in self._order]

    def wait_finished(self, job_id: str, timeout: float) -> Job:
        """The job once it is terminal, the manager stops, or ``timeout`` passes.

        Blocks on the manager's condition, which every transition to a
        terminal state and the stop at the end of :meth:`drain` notify,
        so a waiter wakes as soon as its answer is final.  A
        ``timeout`` of 0 returns at once, like :meth:`get`.
        """
        job = self.get(job_id)
        deadline = time.monotonic() + timeout
        with self._cond:
            while job.state not in TERMINAL_STATES and not self._stopping:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._cond.wait(left)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now, or request a running job to stop.

        A queued job transitions to ``cancelled`` immediately.  A
        running job gets its flag set and transitions at the next unit
        boundary (a unit is never interrupted mid-simulation).
        Cancelling a terminal job raises :class:`JobStateError`.
        """
        job = self.get(job_id)
        with self._cond:
            if job.state == "queued":
                try:
                    self._queue.remove(job_id)
                except ValueError:  # pragma: no cover - popped concurrently
                    pass
                else:
                    job.state = "cancelled"
                    job.finished_at = time.time()
                    job.journal.append("cancelled", reason="client request")
                    self._cond.notify_all()
                    return job
            if job.state in TERMINAL_STATES:
                raise JobStateError(f"job {job_id} is already {job.state}")
        job.cancel_requested.set()
        return job

    # -------------------------------------------------------------- health

    def spool_depth(self) -> int:
        """Unclaimed task files waiting in the spool (queue executor)."""
        if not self.spool_dir.exists():
            return 0
        return sum(1 for _ in self.spool_dir.glob(f"*/unit_*{_TASK_SUFFIX}"))

    def health(self) -> dict:
        """The GET /healthz body: states, counters, backlog, warmth."""
        with self._cond:
            states = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            queued_depth = len(self._queue)
            draining = self._draining
        return {
            "status": "draining" if draining else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "executor": self.executor_name,
            "jobs": states,
            "queue": {"depth": queued_depth, "max_queued": self.max_queued},
            "active": {"running": states["running"], "max_active": self.max_active},
            "result_cache": {"hits": self.cache.hits, "misses": self.cache.misses},
            "artifact_store": {"hits": self.store.hits, "misses": self.store.misses},
            "spool": {"depth": self.spool_depth()},
        }

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    # -------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and (self._draining or not self._queue):
                    self._cond.wait(timeout=0.5)
                    if self._stopping:
                        break
                if self._stopping:
                    return
                job_id = self._queue.popleft()
                job = self._jobs[job_id]
                if job.state != "queued":  # cancelled while queued
                    continue
                job.state = "running"
                job.started_at = time.time()
                job.attempt += 1
                self._active += 1
            try:
                job.journal.append("started", attempt=job.attempt)
                if job.cancel_requested.is_set():
                    raise JobCancelled()
                self._job_runner(self, job)
            except JobCancelled:
                job.journal.append("cancelled", reason="client request")
                self._finish(job, "cancelled")
            except ReproError as exc:
                self._record_failure(job, exc)
            except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
                self._record_failure(job, exc)
            else:
                state = "degraded" if job.failures else "done"
                job.journal.append(
                    state,
                    rows=job.rows,
                    failures=len(job.failures),
                    report=job.report_path.name,
                )
                self._finish(job, state)

    def _record_failure(self, job: Job, exc: Exception) -> None:
        job.error = {"error_class": type(exc).__name__, "message": str(exc)}
        job.journal.append("failed", **job.error)
        self._finish(job, "failed")

    def _finish(self, job: Job, state: str) -> None:
        with self._cond:
            job.state = state
            job.finished_at = time.time()
            self._active -= 1
            self._cond.notify_all()

    # ------------------------------------------------------------ execution

    def _make_executor(self):
        """A fresh executor per job (queue-executor state is per-batch).

        A queue waits as long as the job takes and, with external
        workers, leaves the spool to them.
        """
        return make_executor(
            self.executor_name,
            workers=self.workers,
            spool_dir=self.spool_dir,
            max_attempts=self.max_attempts,
            lease_ttl=self.lease_ttl,
            run_local_worker=not self.external_workers,
            timeout=None,
        )


def _load_finished(job: Job, events: list[dict], terminal: dict) -> None:
    """Rebuild a finished job's visible state from its journal."""
    job.state = terminal["event"]
    job.finished_at = terminal.get("time")
    job.attempt = sum(1 for event in events if event.get("event") == "started")
    for event in events:
        if event.get("event") == "started" and job.started_at is None:
            job.started_at = event.get("time")
        if event.get("event") == "progress":
            job.units_done = int(event.get("units_done", 0))
            job.units_total = int(event.get("units_total", 0)) or None
    if terminal["event"] in ("done", "degraded"):
        job.rows = int(terminal.get("rows", 0))
        job.points = job.rows + int(terminal.get("failures", 0))
    if terminal["event"] == "failed":
        job.error = {
            "error_class": str(terminal.get("error_class", "unknown")),
            "message": str(terminal.get("message", "")),
        }


def _run_sweep_job(manager: JobManager, job: Job) -> None:
    """The real job runner: one SweepRunner pass through the seams.

    Progress callbacks double as the cancellation poll: the executor
    invokes them between units (and on every queue-executor poll pass),
    and a raised :class:`JobCancelled` aborts the run at that boundary.
    Reports are written *before* the terminal journal event, so a crash
    between the two re-runs the job into pure cache hits and rewrites
    identical bytes.
    """
    spec = job.spec.build()

    def progress(done: int, total: int) -> None:
        if job.cancel_requested.is_set():
            raise JobCancelled()
        if (done, total) != (job.units_done, job.units_total):
            job.units_done = done
            job.units_total = total
            job.journal.append("progress", units_done=done, units_total=total)

    executor = manager._make_executor()
    runner = SweepRunner(
        cache=manager.cache,
        store=manager.store,
        executor=executor,
        failure_policy=job.spec.failure_policy,
        progress=progress,
    )
    results = runner.run(spec)
    if job.cancel_requested.is_set():
        # Cancellation that raced the last unit: the work is done and
        # cached, but the client asked for a cancel — honour it.
        raise JobCancelled()
    job.rows = len(results)
    job.points = len(results) + len(runner.last_failures)
    job.failures = [
        {
            "index": failure.index,
            "topology": failure.topology_name,
            "assignment": dict(failure.assignment),
            "attempts": failure.attempts,
            "error_class": failure.error_class,
            "message": failure.message,
        }
        for failure in runner.last_failures
    ]
    if results:
        write_sweep_report(results, job.report_path)
    write_failure_report(runner.last_failures, job.failures_path)
    if not results:
        raise ServiceError("sweep produced no successful points")


__all__ = [
    "DrainingError",
    "InvalidJobError",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobStateError",
    "QueueFullError",
    "TERMINAL_STATES",
    "UnknownJobError",
]
