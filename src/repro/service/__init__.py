"""Sweep-as-a-service: a crash-safe HTTP job server over the sweep seams.

The package turns the existing sweep machinery (SweepSpec -> SweepRunner
-> executors -> ResultCache/ArtifactStore) into a long-running service:

* :mod:`repro.service.journal` — durable append-only job journals, the
  crash-proof source of truth;
* :mod:`repro.service.jobs` — the job state machine and the
  :class:`JobManager` (admission control, recovery, graceful drain);
  a job is a :class:`~repro.run.request.SweepRequest`;
* :mod:`repro.service.server` — the stdlib HTTP layer;
* :mod:`repro.service.client` — a retrying client that honours the
  server's 429/503 + ``Retry-After`` admission contract.

Entry points: ``scale-sim-repro serve`` runs the server,
``scale-sim-repro submit/status/fetch`` talk to it.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import (
    DrainingError,
    InvalidJobError,
    Job,
    JobCancelled,
    JobManager,
    JobStateError,
    QueueFullError,
    UnknownJobError,
)
from repro.service.journal import JOURNAL_FILENAME, TERMINAL_EVENTS, JobJournal
from repro.service.server import SweepHTTPServer, serve, start_server

__all__ = [
    "DrainingError",
    "InvalidJobError",
    "JOURNAL_FILENAME",
    "Job",
    "JobCancelled",
    "JobJournal",
    "JobManager",
    "JobStateError",
    "QueueFullError",
    "ServiceClient",
    "SweepHTTPServer",
    "TERMINAL_EVENTS",
    "UnknownJobError",
    "serve",
    "start_server",
]
