"""The HTTP face of the sweep service: stdlib server, JSON in and out.

A deliberately thin layer: every route parses the request, calls one
:class:`~repro.service.jobs.JobManager` method, and serialises the
answer.  All policy — admission, journaling, recovery, drain — lives in
the manager; all transport — threading, sockets, signals — lives here.

Routes::

    GET    /healthz                 liveness + counters (always 200)
    GET    /readyz                  200 accepting / 503 draining
    POST   /jobs                    submit a job (JSON body)
    GET    /jobs                    list jobs
    GET    /jobs/<id>               job status + progress + failures
    GET    /jobs/<id>?wait=S        the same, once the job is final or
                                    S seconds (at most MAX_WAIT_SECONDS)
                                    have passed
    GET    /jobs/<id>/report.csv    the sweep report (terminal jobs)
    GET    /jobs/<id>/failures.csv  the failure report (degraded jobs)
    DELETE /jobs/<id>               cancel

Service errors map to HTTP statuses via their ``http_status`` attribute
(:class:`~repro.service.jobs.QueueFullError` additionally sets
``Retry-After``); a bad request body or ``wait`` value is an
:class:`~repro.service.jobs.InvalidJobError` (400).  A long-poll
(``?wait=S``) holds its daemon handler thread until the job is final,
the manager stops, or ``S`` seconds pass, so a client learns of a
finished job without polling.

:func:`serve` wires SIGTERM/SIGINT to graceful drain: admission stops
(``/readyz`` flips to 503), in-flight jobs get ``drain_timeout``
seconds to finish, then the process exits — 0 for a clean drain, 1 if
jobs had to be journaled ``interrupted``.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

from repro.errors import ServiceError
from repro.service.jobs import InvalidJobError, JobManager, QueueFullError

#: Largest request body the server will read, in bytes.  Inline
#: topology CSVs and config texts are small; anything bigger is abuse.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Longest a ``GET /jobs/<id>?wait=S`` holds its handler thread, in
#: seconds; a larger ``S`` is clamped to it.
MAX_WAIT_SECONDS = 30.0


class SweepHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that carries the job manager.

    ``daemon_threads`` so wedged request handlers can never block
    process exit after drain, and ``allow_reuse_address`` so a
    restarted server rebinds its port immediately.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager


class _Handler(BaseHTTPRequestHandler):
    server: SweepHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # request logging is noise for an API server; healthz suffices

    def _send_json(
        self, status: int, payload: dict, extra_headers: dict | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ServiceError) -> None:
        status = getattr(exc, "http_status", 500)
        headers = {}
        if isinstance(exc, QueueFullError):
            headers["Retry-After"] = str(max(1, round(exc.retry_after)))
        self._send_json(
            status,
            {"error": type(exc).__name__, "message": str(exc)},
            headers,
        )

    def _send_file(self, path: Path, content_type: str) -> None:
        if not path.exists():
            self._send_json(404, {"error": "NotFound", "message": path.name})
            return
        body = path.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> object:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise InvalidJobError(f"request body exceeds {MAX_BODY_BYTES} bytes")
            raise InvalidJobError("request body required")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidJobError(f"request body is not valid JSON: {exc}") from exc

    def _dispatch(self, method: str) -> None:
        manager = self.server.manager
        path, _, query = self.path.partition("?")
        parts = [part for part in path.split("/") if part]
        try:
            route = (method, *parts)
            if route == ("GET", "healthz"):
                self._send_json(200, manager.health())
            elif route == ("GET", "readyz"):
                if manager.draining:
                    self._send_json(503, {"status": "draining"})
                else:
                    self._send_json(200, {"status": "ok"})
            elif route == ("POST", "jobs"):
                job = manager.submit(self._read_json_body())
                self._send_json(202, job.status_dict())
            elif route == ("GET", "jobs"):
                self._send_json(
                    200, {"jobs": [job.summary_dict() for job in manager.jobs()]}
                )
            elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                job = manager.wait_finished(parts[1], _wait_seconds(query))
                self._send_json(200, job.status_dict())
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "report.csv"
            ):
                self._send_file(manager.get(parts[1]).report_path, "text/csv")
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "failures.csv"
            ):
                self._send_file(manager.get(parts[1]).failures_path, "text/csv")
            elif method == "DELETE" and len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, manager.cancel(parts[1]).status_dict())
            else:
                self._send_json(
                    404, {"error": "NotFound", "message": f"no route {self.path}"}
                )
        except ServiceError as exc:
            self._send_error(exc)
        except Exception as exc:  # noqa: BLE001 - a handler must answer
            self._send_json(
                500, {"error": type(exc).__name__, "message": str(exc)}
            )

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def _wait_seconds(query: str) -> float:
    """The ``wait`` of a status query, clamped to :data:`MAX_WAIT_SECONDS`.

    Absent means 0 (answer at once).  A value that is not a finite
    number >= 0, or a repeated ``wait``, is an :class:`InvalidJobError`.
    """
    values = parse_qs(query, keep_blank_values=True).get("wait", ["0"])
    try:
        seconds = float(values[0]) if len(values) == 1 else math.nan
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0:
        raise InvalidJobError(
            f"wait must be one finite number of seconds >= 0, got {values}"
        )
    return min(seconds, MAX_WAIT_SECONDS)


def start_server(manager: JobManager, host: str = "127.0.0.1", port: int = 0):
    """In-process server for tests: started manager + listening socket.

    Returns ``(httpd, thread)``; the caller owns shutdown
    (``httpd.shutdown()`` then ``manager.drain()``).
    """
    manager.start()
    httpd = SweepHTTPServer((host, port), manager)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, thread


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8537,
    drain_timeout: float = 30.0,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain; returns exit code.

    Prints ``serving on http://host:port`` (flushed) once the socket is
    bound, so wrappers and tests can discover an ephemeral ``--port 0``.
    """
    manager.start()
    httpd = SweepHTTPServer((host, port), manager)
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        manager.begin_drain()  # readyz flips to 503 before we stop serving
        stop.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
    }
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    bound_host, bound_port = httpd.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        stop.wait()
        clean = manager.drain(timeout=drain_timeout)
        httpd.shutdown()
        thread.join(timeout=5.0)
        return 0 if clean else 1
    finally:
        httpd.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_WAIT_SECONDS",
    "SweepHTTPServer",
    "serve",
    "start_server",
]
