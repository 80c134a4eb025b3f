"""Concurrency hammer: many client threads against one live server.

Execution is stubbed (``job_runner`` seam) so the test exercises the
contended paths — admission, the job table, cancellation, journaling —
at full speed.  The invariants: the server never hangs, never loses a
job it admitted, answers every over-capacity submit with the documented
429, and every admitted job reaches exactly one terminal state with an
intact journal.
"""

import threading

import pytest

from repro.errors import ServiceError
from repro.service import JobManager, ServiceClient, start_server
from repro.service.journal import TERMINAL_EVENTS

_PAYLOAD = {
    "name": "hammer",
    "preset": "scale_sim_v2_default",
    "model": "toy_gemm",
}

THREADS = 8
SUBMITS_PER_THREAD = 6


@pytest.mark.timeout(120)
def test_hammer_submit_poll_cancel(tmp_path):
    manager = JobManager(
        tmp_path / "data",
        job_runner=lambda m, j: None,
        max_queued=4,
        max_active=2,
    )
    httpd, _ = start_server(manager)
    base_url = f"http://127.0.0.1:{httpd.server_address[1]}"
    admitted: list[str] = []
    rejected: list[int] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def hammer(seed: int) -> None:
        client = ServiceClient(
            base_url, max_retries=10, backoff_seed=seed, backoff_base=0.01
        )
        try:
            for number in range(SUBMITS_PER_THREAD):
                status, headers, _ = client._request("POST", "/jobs", _PAYLOAD)
                if status == 429:
                    # Over capacity: contract is 429 + Retry-After, then
                    # the retrying path must eventually get through.
                    assert "Retry-After" in headers
                    with lock:
                        rejected.append(status)
                    job = client.submit(_PAYLOAD)
                else:
                    assert status == 202
                    job = client._decode(status, _)
                with lock:
                    admitted.append(job["id"])
                if number % 3 == 2:
                    try:
                        client.cancel(job["id"])
                    except ServiceError:
                        pass  # already terminal: the documented 409
                client.wait(job["id"], timeout=60.0, poll=0.01)
        except Exception as exc:  # pragma: no cover - surfaced below
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(seed,)) for seed in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)
    alive = [thread for thread in threads if thread.is_alive()]
    try:
        assert not alive, f"{len(alive)} hammer threads wedged"
        assert not errors, errors

        jobs = manager.jobs()
        assert len(jobs) == len(admitted) == len(set(admitted))
        terminal = {"done", "cancelled"}
        for job in jobs:
            assert job.state in terminal, (job.id, job.state)
            events = [event["event"] for event in job.journal.replay()]
            assert events[0] == "submitted"
            assert sum(1 for name in events if name in TERMINAL_EVENTS) == 1
        health = manager.health()
        assert health["queue"]["depth"] == 0
        assert health["jobs"]["running"] == 0
    finally:
        httpd.shutdown()
        manager.drain(timeout=10.0)
