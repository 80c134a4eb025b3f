"""A polite stdlib client for the sweep service.

:class:`ServiceClient` wraps ``urllib.request`` with the behaviour the
server's admission contract expects: a 429 or 503 answer is not an
error but a *schedule* — the client sleeps ``max(Retry-After, jittered
exponential backoff)`` and retries, up to ``max_retries`` times, before
surfacing :class:`~repro.errors.ServiceError`.  Connection errors
(server restarting mid-drain) retry on the same schedule.  The jitter
comes from the executors' :func:`~repro.run.executors._backoff_seconds`
with a private ``random.Random`` so tests can pin ``backoff_seed`` and
assert exact sleep sequences.

:meth:`ServiceClient.wait` long-polls: each status request asks the
server to hold its answer until the job is final (``?wait=S``, at most
half the socket timeout), so a job's end is seen one request after it
happens.  Against a server that answers at once it falls back to
sleeping ``poll`` seconds between requests.

Used by the ``scale-sim-repro submit/status/fetch`` subcommands and by
the service tests; importable on its own for scripting::

    client = ServiceClient("http://127.0.0.1:8537")
    job = client.submit({"preset": "scale_sim_v2_default", "model": "toy_gemm"})
    client.wait(job["id"])
    print(client.fetch_report(job["id"]))
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.errors import ServiceError
from repro.run.executors import DEFAULT_BACKOFF_BASE, _backoff_seconds
from repro.service.jobs import TERMINAL_STATES

#: HTTP statuses that mean "try again later", per the admission contract.
RETRYABLE_STATUSES = (429, 503)


class ServiceClient:
    """Talks to one sweep server; retries 429/503 with capped backoff.

    Args:
        base_url: e.g. ``http://127.0.0.1:8537`` (trailing slash ok).
        timeout: per-request socket timeout in seconds.
        max_retries: attempts beyond the first for retryable answers;
            0 disables retrying entirely.
        backoff_base: first retry delay (doubles per retry, capped).
        backoff_seed: seed for deterministic jitter (tests); ``None``
            for OS entropy.
        sleep: test seam replacing :func:`time.sleep`.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        max_retries: int = 5,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_seed: int | None = None,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._rng = random.Random(backoff_seed)
        self._sleep = sleep

    # ------------------------------------------------------------ transport

    def _request(self, method: str, path: str, payload: dict | None = None):
        """One HTTP exchange -> (status, headers, body bytes).

        4xx/5xx come back as ordinary values (the retry loop and the
        error mapping live in :meth:`_call`); only transport-level
        failures raise, as :class:`ConnectionError`.
        """
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()
        except (urllib.error.URLError, OSError) as exc:
            raise ConnectionError(str(exc)) from exc

    def _call(self, method: str, path: str, payload: dict | None = None) -> dict:
        """Request with the retry schedule; returns the decoded JSON body."""
        last_error = "no attempts made"
        for retry in range(self.max_retries + 1):
            try:
                status, headers, body = self._request(method, path, payload)
            except ConnectionError as exc:
                last_error = f"connection failed: {exc}"
                status = None
            else:
                if status not in RETRYABLE_STATUSES:
                    return self._decode(status, body)
                last_error = f"HTTP {status}: {body.decode('utf-8', 'replace')}"
            if retry == self.max_retries:
                break
            delay = _backoff_seconds(self.backoff_base, retry + 1, self._rng)
            if status is not None:
                retry_after = _parse_retry_after(headers)
                delay = max(delay, retry_after)
            self._sleep(delay)
        raise ServiceError(
            f"{method} {path} failed after {self.max_retries + 1} attempt(s): "
            f"{last_error}"
        )

    @staticmethod
    def _decode(status: int, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": "BadResponse", "message": body[:200].decode(
                "utf-8", "replace"
            )}
        if status >= 400:
            raise ServiceError(
                f"HTTP {status}: {payload.get('message', payload.get('error', '?'))}"
            )
        return payload

    # ----------------------------------------------------------------- api

    def submit(self, payload: dict) -> dict:
        """POST /jobs; returns the accepted job's status document."""
        return self._call("POST", "/jobs", payload)

    def status(self, job_id: str, wait: float = 0.0) -> dict:
        """GET /jobs/<id>; returns the job's status document.

        With ``wait`` > 0 the server holds the answer until the job is
        final, the server stops, or ``wait`` seconds (capped by the
        server's ``MAX_WAIT_SECONDS``) pass.  Keep ``wait`` below the
        socket ``timeout``.
        """
        query = "?" + urllib.parse.urlencode({"wait": wait}) if wait > 0 else ""
        return self._call("GET", f"/jobs/{job_id}{query}")

    def list_jobs(self) -> list[dict]:
        return self._call("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._call("DELETE", f"/jobs/{job_id}")

    def health(self) -> dict:
        return self._call("GET", "/healthz")

    def ready(self) -> bool:
        try:
            status, _, _ = self._request("GET", "/readyz")
        except ConnectionError:
            return False
        return status == 200

    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 0.2) -> dict:
        """Long-poll until the job reaches a terminal state; returns its status.

        Each request waits server-side for up to the time left or half
        the socket timeout, whichever is less.  ``poll`` seconds are
        slept only after an answer that is not yet final: a server that
        does not hold answers is polled at that interval.
        """
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            status = self.status(job_id, wait=max(0.0, min(left, self.timeout / 2)))
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            self._sleep(poll)

    def fetch_report(self, job_id: str, which: str = "report") -> bytes:
        """GET the job's ``report`` or ``failures`` CSV as raw bytes."""
        if which not in ("report", "failures"):
            raise ServiceError(f"which must be 'report' or 'failures', got {which!r}")
        status, _, body = self._request("GET", f"/jobs/{job_id}/{which}.csv")
        if status != 200:
            raise ServiceError(
                f"fetching {which}.csv for {job_id} failed: HTTP {status}"
            )
        return body


def _parse_retry_after(headers: dict) -> float:
    """The Retry-After header in seconds; 0.0 when absent or unparsable."""
    raw = headers.get("Retry-After")
    if raw is None:
        return 0.0
    try:
        return max(0.0, float(raw))
    except (TypeError, ValueError):
        return 0.0


__all__ = ["RETRYABLE_STATUSES", "ServiceClient"]
