"""Content-addressed, atomic on-disk store: the one disk format.

Everything the simulator persists lives here, one kind per
subdirectory: finished sweep points (``sweep_point``, written through
:class:`~repro.run.sweep.ResultCache`), per-layer compute schedules
(``layer_compute``, the :class:`~repro.core.simulator.ComputePlan`
pieces) and layout demand artifacts (``fold_demand``,
:class:`~repro.layout.conflict.FoldDemand` runs).  A cold process
loads them instead of rebuilding them.  The DRAM fan-out's line streams
are not stored: the fan-out rebuilds them from the plan in under a
millisecond.

* **keys** are SHA-256 hashes of a canonical JSON rendering of the
  artifact's *inputs* (never of the artifact itself), salted with
  :data:`STORE_SCHEMA_VERSION` — bump the version whenever a stored
  artifact's shape or meaning changes and every existing store
  re-populates instead of serving stale objects;
* **writes** are atomic: pickle to a per-process temp name, then
  ``os.replace`` into place, so any number of processes can share one
  store directory without ever exposing a half-written file;
* **reads** are guarded: a truncated or corrupt pickle (a crashed
  writer on a non-atomic filesystem, a disk error, a flipped bit)
  counts as a miss and the bad file is unlinked so the next write
  repairs it.

Producers look the store up through the *active-store* seam
(:func:`set_active_store` / :func:`active_store`) so the hot functions
they hook — ``layer_compute`` and the fold-demand stream — keep their
signatures; :class:`~repro.run.sweep.SweepRunner` installs the store
around each simulation unit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path

#: The one salt folded into every key on disk.  Bump it whenever any
#: stored kind's shape or meaning changes without an input change — a
#: new ``layer_compute`` layout, or simulator output that changes
#: without a config-field change (``sweep_point``) — so existing store
#: directories re-populate instead of serving stale objects.  v2: a
#: ``layer_compute`` artifact carries a columnar ``FoldSchedule`` instead
#: of a per-fold list.  v3: ``FoldSchedule`` holds only ``folds``,
#: ``cycles`` and ``slots`` (the per-fold grid fields are gone); a v2
#: pickle would load into a schedule without ``folds`` and fail on the
#: first walk.  v4: a ``fold_demand`` entry is a list of ``(FoldDemand,
#: repeats)`` runs instead of one ``FoldDemand`` per fold.
STORE_SCHEMA_VERSION = "store-v4-2026-10"


def load_pickle_guarded(path: Path) -> object | None:
    """Load a pickle, treating corruption as absence.

    A truncated or corrupt file — a crashed writer, a disk error — is
    unlinked so the next ``put`` repairs it; a file another process
    removed mid-read simply reads as missing.  Any exception the load
    raises counts: a flipped bit can surface as a bad opcode, a garbled
    string, an unknown module or a huge allocation.  Returns ``None``
    in every failure case (stored payloads are never ``None``).
    """
    try:
        with path.open("rb") as handle:
            return pickle.load(handle)
    except Exception:
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - unlink race / read-only dir
            pass
        return None


def dump_pickle_atomic(path: Path, payload: object) -> None:
    """Write a pickle via a per-process temp name + atomic replace.

    Concurrent writers sharing a directory never interleave into one
    temp file (the pid disambiguates) and readers never observe a
    partial payload (``os.replace`` is atomic on every supported OS).
    """
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with tmp.open("wb") as handle:
        pickle.dump(payload, handle)
    tmp.replace(path)


def load_json_guarded(path: Path) -> dict | None:
    """Load a small JSON sidecar, treating corruption as absence.

    The JSON counterpart of :func:`load_pickle_guarded` — used for the
    queue executor's lease sidecars, which a SIGKILLed worker can leave
    truncated.  Unlike the pickle guard the bad file is *not* unlinked:
    a lease sidecar's existence is itself information (the claim is
    held), and the mtime fallback still applies to it.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def dump_json_atomic(path: Path, payload: dict) -> None:
    """Write a small JSON file via a per-process temp name + replace.

    Same discipline as :func:`dump_pickle_atomic`; swallows ``OSError``
    because lease sidecars are written into batch directories a
    concurrent producer may retire at any moment — a failed heartbeat
    write just means the lease ages toward reclaim, which is correct.
    """
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        tmp.replace(path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - double fault
            pass


def append_json_line(path: Path, payload: dict) -> None:
    """Append one JSON object as a line to an append-only journal.

    Unlike the replace-based writers above, journals grow by appending:
    the record is written as a single ``write`` call on an ``O_APPEND``
    handle and fsynced, so concurrent appenders never interleave within
    a line and a crash can tear at most the final line — which
    :func:`read_json_lines` then skips.  The payload must be a single
    JSON object with no embedded newlines.
    """
    line = json.dumps(payload, sort_keys=True, default=str)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_json_lines(path: Path) -> list[dict]:
    """Replay an append-only JSON-lines journal, tolerating a torn tail.

    A line that fails to decode (a writer SIGKILLed mid-append, a disk
    error) ends the replay: everything before it is returned, everything
    from it on is ignored.  Only the *suffix* is dropped — a corrupt
    line mid-file would hide later events, but appends are single
    ``write`` calls so corruption can only be a tail.  A missing file
    reads as an empty journal.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    events: list[dict] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            break
        if not isinstance(payload, dict):
            break
        events.append(payload)
    return events


def canonical_artifact(value: object) -> object:
    """A JSON-ready canonical rendering of an artifact-key ingredient.

    Dataclasses (layers, config sections) render as their field dict
    tagged with the class name — two different layer types with equal
    fields must not collide — and everything else passes through to
    ``json.dumps(default=str)``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        data = dataclasses.asdict(value)
        data["__kind__"] = type(value).__name__
        return data
    return value


def content_address(kind: str, payload: dict) -> str:
    """Stable SHA-256 key of an artifact's inputs under the current schema."""
    blob = json.dumps(
        {"schema": STORE_SCHEMA_VERSION, "kind": kind, "payload": payload},
        sort_keys=True,
        default=str,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


class ArtifactStore:
    """Content-addressed pickle store, one subdirectory per artifact kind.

    Safe to share between processes: writes are atomic, reads treat
    corruption as a miss.  ``hits`` / ``misses`` count this instance's
    lookups only (worker processes keep their own counters).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, kind: str, key: str) -> Path:
        """On-disk location of one artifact."""
        return self.directory / kind / f"{key}.pkl"

    def get(self, kind: str, key: str) -> object | None:
        """Look an artifact up, counting the hit or miss."""
        payload = load_pickle_guarded(self.path(kind, key))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, kind: str, key: str, payload: object) -> None:
        """Store an artifact atomically."""
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        dump_pickle_atomic(path, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArtifactStore({str(self.directory)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )


# ------------------------------------------------------------ active store

#: The process-wide store producers consult (see module docstring).
_ACTIVE_STORE: ArtifactStore | None = None


def set_active_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install the process-wide store; returns the previous one.

    Callers restore the returned value when their scope ends, so nested
    installs (a sweep unit inside a test that set its own store) unwind
    correctly.
    """
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = store
    return previous


def active_store() -> ArtifactStore | None:
    """The store producers should consult, or ``None`` when disabled."""
    return _ACTIVE_STORE


__all__ = [
    "ArtifactStore",
    "STORE_SCHEMA_VERSION",
    "active_store",
    "append_json_line",
    "canonical_artifact",
    "content_address",
    "dump_json_atomic",
    "dump_pickle_atomic",
    "load_json_guarded",
    "load_pickle_guarded",
    "read_json_lines",
    "set_active_store",
]
