"""Durable job journals: the service's crash-proof source of truth.

Every job the service accepts lives in its own directory under
``<data-dir>/jobs/``, and everything that ever happened to it is one
line in that directory's append-only ``journal.jsonl``.  The journal —
not any in-memory structure — is the authoritative record: the server
can be SIGKILLed at any instant and a restart replays the journals to
rebuild exactly the jobs it owed its clients.

The format is deliberately boring: one JSON object per line, appended
via a single ``write`` + ``fsync`` (:func:`repro.store.append_json_line`)
so a crash can tear at most the final line, which replay then ignores
(:func:`repro.store.read_json_lines`).  Each line carries at least
``event`` and ``time``; the first line of a valid journal is always the
``submitted`` event embedding the job's full wire payload, so the
journal alone is enough to re-run the job.

Event vocabulary (see DESIGN.md "Sweep-as-a-service"):

* ``submitted``  — payload accepted; embeds the job spec.
* ``started``    — a run attempt began (repeats after recovery).
* ``progress``   — ``units_done`` / ``units_total`` advanced.
* ``recovered``  — a restarted server re-enqueued this unfinished job.
* ``interrupted``— a draining server timed out with this job running.
* ``done`` / ``degraded`` / ``failed`` / ``cancelled`` — terminal.

A journal whose last terminal event exists describes a finished job;
one without describes work the server still owes and must re-enqueue on
startup.  Re-running is idempotent because every simulated point lands
in the shared on-disk store (as a ``sweep_point``) *before* the
terminal event is journaled — a replayed job re-simulates only the
units whose results were lost with the process.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.store import append_json_line, read_json_lines

#: File name of a job's journal inside its job directory.
JOURNAL_FILENAME = "journal.jsonl"

#: Events that end a job's life; at most one per journal.
TERMINAL_EVENTS = ("done", "degraded", "failed", "cancelled")


class JobJournal:
    """Append-only event log of one job (or of the server itself)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @classmethod
    def for_job_dir(cls, job_dir: str | Path) -> JobJournal:
        return cls(Path(job_dir) / JOURNAL_FILENAME)

    def append(self, event: str, **fields: object) -> dict:
        """Durably append one event line; returns the written record."""
        record: dict = {"event": event, "time": time.time(), **fields}
        append_json_line(self.path, record)
        return record

    def replay(self) -> list[dict]:
        """All intact events, oldest first (torn tail dropped)."""
        return read_json_lines(self.path)


__all__ = ["JOURNAL_FILENAME", "TERMINAL_EVENTS", "JobJournal"]
