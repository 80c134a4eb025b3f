"""Fast-lane service tests: spec validation, HTTP round trips, admission.

Everything here runs in-process: the real ThreadingHTTPServer on an
ephemeral port, the real client, and — where execution speed matters —
the ``job_runner`` test seam replacing actual simulation so admission,
cancellation, and drain semantics can be exercised without sweeps.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigError, ServiceError
from repro.run.request import SweepRequest
from repro.run.sweep import Axis, SweepRunner, SweepSpec
from repro.config.presets import get_preset
from repro.core.report import write_sweep_report
from repro.service import (
    InvalidJobError,
    JobManager,
    ServiceClient,
    start_server,
)
from repro.service import server
from repro.service.journal import JobJournal
from repro.topology.models import toy_gemm


@pytest.fixture
def service(tmp_path):
    """A live server over a real JobManager; yields (manager, client)."""
    manager = JobManager(tmp_path / "data", max_queued=8, max_active=1)
    httpd, thread = start_server(manager)
    client = ServiceClient(
        f"http://127.0.0.1:{httpd.server_address[1]}",
        max_retries=0,
        backoff_seed=0,
    )
    yield manager, client
    httpd.shutdown()
    manager.drain(timeout=10.0)


def _stub_service(tmp_path, job_runner, **kwargs):
    manager = JobManager(tmp_path / "data", job_runner=job_runner, **kwargs)
    httpd, thread = start_server(manager)
    client = ServiceClient(
        f"http://127.0.0.1:{httpd.server_address[1]}",
        max_retries=0,
        backoff_seed=0,
    )
    return manager, httpd, client


_PAYLOAD = {
    "name": "smoke",
    "preset": "scale_sim_v2_default",
    "model": "toy_gemm",
    "axes": {"arch.dataflow": ["os", "ws"]},
}


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "mutation",
    [
        {"preset": None},                            # no config source
        {"config_text": "[general]"},                # both config sources
        {"model": None},                             # no workload
        {"topology_csv": "Layer,M,N,K\n"},           # both workloads
        {"name": "../escape"},                       # path-unsafe name
        {"scale": 0},
        {"scale": True},
        {"axes": {"arch.dataflow": []}},
        {"axes": [{"field": "x"}]},
        {"axes": {"": [1]}},
        {"axes": {"arch.dataflow": [[1, 2]]}},
        {"failure_policy": "explode"},
        {"max_attempts": 0},
        {"preset": "no_such_preset"},
        {"model": "no_such_model"},
        {"bogus_field": 1},
    ],
)
def test_job_spec_rejects_bad_payloads(mutation):
    payload = dict(_PAYLOAD)
    for key, value in mutation.items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    with pytest.raises(ConfigError):
        SweepRequest.from_payload(payload)


def test_job_spec_round_trips_through_payload():
    spec = SweepRequest.from_payload(_PAYLOAD)
    again = SweepRequest.from_payload(spec.to_payload())
    assert again.to_payload() == spec.to_payload()
    assert again.failure_policy == "degrade"  # the service default


def test_job_spec_rejects_non_object_payload():
    with pytest.raises(ConfigError):
        SweepRequest.from_payload(["not", "an", "object"])


@pytest.mark.parametrize(
    "mutation",
    [
        {"axes": {"dram.channels": ["two"]}},        # text that is no integer
        {"axes": {"dram.channels": [1.5]}},          # float for an int field
        {"axes": {"arch.num_pes": [4]}},             # a property, not a field
        {"axes": {"dram.no_such_field": [1]}},
        {"axes": {"no.such_field": [1, 2]}},         # not a config section
        {"axes": {"arch.dataflow": ["xyz"]}},
        {"axes": {"arch.array_rows": [True]}},       # a bool is no integer
        {"axes": {"dram.address_mapping": ["zzz"]}},
        {"preset": None, "config_text": "[nope]"},
        {"model": None, "topology_csv": "Layer,M,N,K\n"},  # header, no layers
    ],
)
def test_submit_rejects_what_the_boundary_rejects(tmp_path, mutation):
    manager = JobManager(tmp_path / "data", job_runner=lambda m, j: None)
    payload = dict(_PAYLOAD)
    for key, value in mutation.items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    with pytest.raises(InvalidJobError):
        manager.submit(payload)
    assert manager.jobs() == []
    assert list((tmp_path / "data" / "jobs").iterdir()) == []


@pytest.mark.parametrize("executor_name", ["serial", "pool"])
def test_pool_executor_keeps_max_attempts(tmp_path, executor_name):
    """``--workers > 1`` turns serial into a pool with the same retry budget."""
    from repro.run.executors import PoolExecutor

    manager = JobManager(
        tmp_path / "data", executor_name=executor_name, workers=2, max_attempts=1
    )
    executor = manager._make_executor()
    assert isinstance(executor, PoolExecutor)
    assert executor.workers == 2
    assert executor.max_attempts == 1


@pytest.mark.parametrize(
    "server_attempts, job_attempts, workers, expected",
    [
        (None, None, 1, ("SerialExecutor", 3)),
        (2, None, 1, ("SerialExecutor", 2)),
        (2, 5, 1, ("SerialExecutor", 5)),
        (None, 1, 2, ("PoolExecutor", 1)),
    ],
)
def test_job_runs_with_its_own_max_attempts(
    tmp_path, monkeypatch, server_attempts, job_attempts, workers, expected
):
    """A job's ``max_attempts`` is its executor's budget; the server's is the default."""
    from repro.service import jobs

    built = []

    def sweep_runner(**kwargs):
        built.append(kwargs["executor"])
        raise RuntimeError("stop once the executor is built")

    monkeypatch.setattr(jobs, "SweepRunner", sweep_runner)
    manager = JobManager(tmp_path / "data", workers=workers, max_attempts=server_attempts)
    manager.start()
    payload = dict(_PAYLOAD)
    if job_attempts is not None:
        payload["max_attempts"] = job_attempts
    try:
        job = manager.submit(payload)
        assert manager.wait_finished(job.id, timeout=30.0).state == "failed"
    finally:
        manager.drain(timeout=10.0)
    [executor] = built
    assert (type(executor).__name__, executor.max_attempts) == expected


# ------------------------------------------------------- end-to-end smoke


def test_submit_wait_fetch_matches_direct_run(service, tmp_path):
    manager, client = service
    job = client.submit(_PAYLOAD)
    assert job["state"] in ("queued", "running")
    final = client.wait(job["id"], timeout=120.0)
    assert final["state"] == "done"
    assert final["rows"] == 2
    assert final["progress"] == {"units_done": 2, "units_total": 2}

    spec = SweepSpec(
        base=get_preset("scale_sim_v2_default"),
        axes=[Axis("arch.dataflow", ("os", "ws"))],
        topologies=[toy_gemm()],
        name="smoke",
    )
    reference = write_sweep_report(SweepRunner().run(spec), tmp_path / "ref.csv")
    assert client.fetch_report(job["id"]) == reference.read_bytes()

    # A second identical job is pure cache hits, visible in /healthz.
    second = client.submit(_PAYLOAD)
    client.wait(second["id"], timeout=60.0)
    health = client.health()
    assert health["result_cache"]["hits"] >= 2
    assert health["jobs"]["done"] == 2
    assert health["artifact_store"] is not None


def test_unknown_routes_and_jobs_are_404(service):
    manager, client = service
    with pytest.raises(ServiceError, match="404"):
        client.status("doesnotexist")
    with pytest.raises(ServiceError, match="404"):
        client._call("GET", "/no/such/route")


def test_failed_job_reports_error(tmp_path):
    def failing_runner(manager, job):
        raise RuntimeError("simulated mid-run failure")

    manager, httpd, client = _stub_service(tmp_path, failing_runner)
    try:
        job = client.submit(_PAYLOAD)
        final = client.wait(job["id"], timeout=60.0)
        assert final["state"] == "failed"
        assert "error" in final
    finally:
        httpd.shutdown()
        manager.drain(timeout=10.0)


def test_bad_payload_is_a_400(service):
    manager, client = service
    status, headers, body = client._request(
        "POST", "/jobs", dict(_PAYLOAD, axes={"no.such_field": [1, 2]})
    )
    assert status == 400
    assert json.loads(body)["error"] == "InvalidJobError"


def _post_raw(client, body: bytes):
    """POST raw bytes to /jobs -> (HTTP status, headers, decoded JSON answer)."""
    request = urllib.request.Request(
        client.base_url + "/jobs", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.headers, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read())


@pytest.mark.parametrize(
    "body",
    [
        b"",                                        # no body
        b"{not json",                               # not JSON
        b"\xff\xfe",                                # not UTF-8
        json.dumps(dict(_PAYLOAD, name="x" * 64)).encode(),  # over the cap
    ],
    ids=["empty", "not-json", "not-utf8", "oversized"],
)
def test_bad_request_body_is_a_400(service, monkeypatch, body):
    monkeypatch.setattr(server, "MAX_BODY_BYTES", 128)
    manager, client = service
    status, headers, answer = _post_raw(client, body)
    assert status == 400
    assert answer["error"] == "InvalidJobError"
    if len(body) > 128:  # the body stays unread: the server hangs up
        assert headers["Connection"] == "close"
    assert manager.jobs() == []


def test_upper_case_axis_value_is_accepted(service):
    """``"WS"`` is the dataflow a ``.cfg`` file's ``Dataflow = WS`` names."""
    manager, client = service
    status, headers, body = client._request(
        "POST", "/jobs", dict(_PAYLOAD, axes={"arch.dataflow": ["WS"]})
    )
    assert status == 202
    final = client.wait(json.loads(body)["id"], timeout=60.0)
    assert final["state"] == "done" and final["rows"] == 1


# ------------------------------------------------- admission and capacity


def test_queue_full_returns_429_with_retry_after(tmp_path):
    release = threading.Event()

    def blocked_runner(manager, job):
        release.wait(timeout=30.0)

    manager, httpd, client = _stub_service(
        tmp_path, blocked_runner, max_queued=1, max_active=1
    )
    try:
        first = client.submit(_PAYLOAD)   # occupies the single worker
        deadline = time.monotonic() + 10.0
        while manager.get(first["id"]).state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.submit(_PAYLOAD)           # occupies the single queue slot

        # The bound is hit: a raw request must see 429 + Retry-After.
        status, headers, body = client._request("POST", "/jobs", _PAYLOAD)
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert json.loads(body)["error"] == "QueueFullError"

        # The retrying client turns the schedule into success once the
        # worker frees up.
        patient = ServiceClient(
            client.base_url, max_retries=8, backoff_seed=7,
            sleep=lambda s: (time.sleep(min(s, 0.05)), release.set()),
        )
        third = patient.submit(_PAYLOAD)
        assert patient.wait(third["id"], timeout=30.0)["state"] == "done"
    finally:
        release.set()
        httpd.shutdown()
        manager.drain(timeout=10.0)


def test_drain_stops_admission_and_flips_readyz(tmp_path):
    manager, httpd, client = _stub_service(tmp_path, lambda m, j: None)
    try:
        assert client.ready()
        manager.begin_drain()
        assert not client.ready()
        status, headers, body = client._request("POST", "/jobs", _PAYLOAD)
        assert status == 503
        assert client.health()["status"] == "draining"
        assert manager.drain(timeout=10.0) is True
    finally:
        httpd.shutdown()


def test_cancel_queued_and_running_jobs(tmp_path):
    started = threading.Event()
    release = threading.Event()

    def blocked_runner(manager, job):
        started.set()
        while not release.wait(timeout=0.02):
            if job.cancel_requested.is_set():
                from repro.service.jobs import JobCancelled

                raise JobCancelled()

    manager, httpd, client = _stub_service(
        tmp_path, blocked_runner, max_queued=4, max_active=1
    )
    try:
        running = client.submit(_PAYLOAD)
        assert started.wait(timeout=10.0)
        queued = client.submit(_PAYLOAD)

        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] == "cancelled"

        client.cancel(running["id"])
        final = client.wait(running["id"], timeout=30.0)
        assert final["state"] == "cancelled"

        # Cancelling a terminal job is a 409 conflict.
        with pytest.raises(ServiceError, match="409"):
            client.cancel(queued["id"])
    finally:
        release.set()
        httpd.shutdown()
        manager.drain(timeout=10.0)


# ---------------------------------------------------------------- long-poll


def _watch_long_polls(manager):
    """Spy on the long-polls a live server runs against ``manager``.

    Returns ``(polls, blocked, wakes)``: ``polls`` lists each
    ``wait_finished`` call's ``(job_id, timeout)``; ``blocked`` is set
    once a long-poll waits on the manager's condition, which it does
    while holding the lock, so whatever the test does next under that
    lock happens after the poll is waiting; ``wakes`` lists each such
    wait's ``(timeout, notified)`` (``notified`` False means timed out).
    """
    polls, pollers, wakes = [], set(), []
    blocked = threading.Event()
    wait_finished, cond_wait = manager.wait_finished, manager._cond.wait

    def tracked_wait_finished(job_id, timeout):
        polls.append((job_id, timeout))
        pollers.add(threading.get_ident())
        try:
            return wait_finished(job_id, timeout)
        finally:
            pollers.discard(threading.get_ident())

    def spied_wait(timeout=None):
        if threading.get_ident() not in pollers:
            return cond_wait(timeout)
        blocked.set()
        notified = cond_wait(timeout)
        wakes.append((timeout, notified))
        return notified

    manager.wait_finished = tracked_wait_finished
    manager._cond.wait = spied_wait
    return polls, blocked, wakes


def _in_thread(fn, *args, **kwargs):
    """Start ``fn`` on a thread; returns a join that yields its result."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn(*args, **kwargs)))
    thread.start()

    def join():
        thread.join(timeout=30.0)
        assert box, "the call did not return"
        return box[0]

    return join


def _blocked_stub(tmp_path):
    """A stub service whose runner holds each job until ``release`` is set."""
    started, release = threading.Event(), threading.Event()

    def blocked_runner(manager, job):
        started.set()
        release.wait(timeout=30.0)

    manager, httpd, client = _stub_service(tmp_path, blocked_runner)
    return manager, httpd, client, started, release


def test_wait_sees_the_end_in_one_request_without_sleeping(tmp_path):
    manager, httpd, client, started, release = _blocked_stub(tmp_path)
    polls, blocked, wakes = _watch_long_polls(manager)
    sleeps = []
    client._sleep = sleeps.append
    try:
        job = client.submit(_PAYLOAD)
        releaser = _in_thread(lambda: blocked.wait(timeout=30.0) and release.set())
        final = client.wait(job["id"], timeout=60.0)
        releaser()
        assert final["state"] == "done"
        assert len(polls) == 1
        assert 0 < polls[0][1] <= client.timeout / 2
        assert [notified for _, notified in wakes] == [True]
        assert sleeps == []
    finally:
        release.set()
        httpd.shutdown()
        manager.drain(timeout=10.0)


def test_cancelling_a_queued_job_wakes_its_long_poll(tmp_path):
    manager, httpd, client, started, release = _blocked_stub(tmp_path)
    polls, blocked, wakes = _watch_long_polls(manager)
    try:
        client.submit(_PAYLOAD)             # holds the single worker
        assert started.wait(timeout=10.0)
        queued = client.submit(_PAYLOAD)
        answer = _in_thread(client.status, queued["id"], wait=2.0)
        assert blocked.wait(timeout=10.0)
        client.cancel(queued["id"])
        assert answer()["state"] == "cancelled"
        assert wakes and all(notified for _, notified in wakes)
    finally:
        release.set()
        httpd.shutdown()
        manager.drain(timeout=10.0)


def test_long_poll_expires_on_a_running_job(tmp_path):
    manager, httpd, client, started, release = _blocked_stub(tmp_path)
    polls, blocked, wakes = _watch_long_polls(manager)
    try:
        job = client.submit(_PAYLOAD)
        assert started.wait(timeout=10.0)
        assert client.status(job["id"], wait=0.05)["state"] == "running"
        assert wakes and not any(notified for _, notified in wakes)
    finally:
        release.set()
        httpd.shutdown()
        manager.drain(timeout=10.0)


def test_drain_wakes_a_pending_long_poll(tmp_path):
    manager, httpd, client, started, release = _blocked_stub(tmp_path)
    polls, blocked, wakes = _watch_long_polls(manager)
    try:
        job = client.submit(_PAYLOAD)
        assert started.wait(timeout=10.0)
        answer = _in_thread(client.status, job["id"], wait=2.0)
        assert blocked.wait(timeout=10.0)
        assert manager.drain(timeout=0.05) is False  # the job is a straggler
        assert answer()["state"] == "running"
        assert wakes and all(notified for _, notified in wakes)
    finally:
        release.set()
        httpd.shutdown()


def test_wait_falls_back_to_polling_a_server_that_answers_at_once():
    answers = [
        (200, {}, b'{"state": "queued"}'),
        (200, {}, b'{"state": "running"}'),
        (200, {}, b'{"state": "done"}'),
    ]
    paths, sleeps = [], []

    def instant(method, path, payload=None):
        paths.append(path)
        return answers.pop(0)

    client = ServiceClient("http://unused", timeout=4.0, sleep=sleeps.append)
    client._request = instant
    assert client.wait("abc", timeout=60.0, poll=0.25)["state"] == "done"
    assert sleeps == [0.25, 0.25]
    assert len(paths) == 3
    for path in paths:
        job_path, _, query = path.partition("?wait=")
        assert job_path == "/jobs/abc"
        assert 0 < float(query) <= 2.0  # half the socket timeout


@pytest.mark.parametrize("wait", ["abc", "", "-1", "nan", "inf", "-inf", "1&wait=2"])
def test_bad_wait_is_a_400(tmp_path, wait):
    manager, httpd, client, started, release = _blocked_stub(tmp_path)
    try:
        job = client.submit(_PAYLOAD)
        status, headers, body = client._request("GET", f"/jobs/{job['id']}?wait={wait}")
        assert status == 400
        assert json.loads(body)["error"] == "InvalidJobError"
    finally:
        release.set()
        httpd.shutdown()
        manager.drain(timeout=10.0)


def test_wait_zero_answers_at_once_and_a_long_wait_is_clamped(tmp_path, monkeypatch):
    monkeypatch.setattr(server, "MAX_WAIT_SECONDS", 0.05)
    manager, httpd, client, started, release = _blocked_stub(tmp_path)
    polls, blocked, wakes = _watch_long_polls(manager)
    try:
        job = client.submit(_PAYLOAD)
        assert started.wait(timeout=10.0)
        for query in ("", "?wait=0"):
            status, headers, body = client._request("GET", f"/jobs/{job['id']}{query}")
            assert status == 200 and json.loads(body)["state"] == "running"
        assert wakes == []  # neither request waited
        assert client.status(job["id"], wait=1e6)["state"] == "running"
        assert polls[-1] == (job["id"], 0.05)
        assert wakes and all(timeout <= 0.05 for timeout, _ in wakes)
    finally:
        release.set()
        httpd.shutdown()
        manager.drain(timeout=10.0)


# ------------------------------------------------------ in-process recovery


def test_restart_recovers_unfinished_jobs(tmp_path):
    data_dir = tmp_path / "data"
    interrupt = threading.Event()

    def dying_runner(manager, job):
        interrupt.set()
        threading.Event().wait()  # the "crash" below abandons this daemon thread

    manager1 = JobManager(data_dir, job_runner=dying_runner)
    manager1.start()
    job = manager1.submit(_PAYLOAD)
    assert interrupt.wait(timeout=10.0)
    # No drain, no journal terminal event: manager1's process "dies" here
    # (the daemon worker thread is simply abandoned).

    done = threading.Event()

    def instant_runner(manager, job):
        job.rows = 0
        done.set()

    manager2 = JobManager(data_dir, job_runner=instant_runner)
    manager2.start()
    recovered = manager2.get(job.id)
    assert recovered.recovered is True
    assert done.wait(timeout=10.0)
    assert manager2.wait_finished(job.id, 10.0).state == "done"
    events = [event["event"] for event in recovered.journal.replay()]
    assert "recovered" in events
    assert events.count("started") == 2  # one per attempt, across processes
    assert manager2.drain(timeout=10.0) is True


def test_restart_fails_a_job_journaled_under_loose_rules(tmp_path):
    # An older server admitted axes without typing them; such a job is
    # recovered, fails with the boundary's typed error, and does not
    # stop the manager from running new work.
    data_dir = tmp_path / "data"
    job_dir = data_dir / "jobs" / "loose0job001"
    job_dir.mkdir(parents=True)
    JobJournal.for_job_dir(job_dir).append(
        "submitted",
        job_id=job_dir.name,
        payload=dict(_PAYLOAD, axes={"dram.channels": ["two"]}),
    )

    manager = JobManager(data_dir)
    manager.start()
    try:
        loose = manager.get(job_dir.name)
        assert loose.recovered is True
        assert manager.wait_finished(loose.id, 60.0).state == "failed"
        assert loose.error["error_class"] == "ConfigError"

        fresh = manager.submit(_PAYLOAD)
        assert manager.wait_finished(fresh.id, 60.0).state == "done"
    finally:
        assert manager.drain(timeout=10.0) is True


def test_restart_loads_finished_jobs_as_history(tmp_path):
    data_dir = tmp_path / "data"
    manager1 = JobManager(data_dir, job_runner=lambda m, j: None)
    manager1.start()
    job = manager1.submit(_PAYLOAD)
    assert manager1.wait_finished(job.id, 10.0).state == "done"
    assert manager1.drain(timeout=10.0) is True

    manager2 = JobManager(data_dir, job_runner=lambda m, j: None)
    assert manager2.recover() == 0  # nothing owed
    history = manager2.get(job.id)
    assert history.state == "done"
    assert history.recovered is False


# ------------------------------------------------------------ client seams


def test_client_retry_honours_retry_after_and_is_deterministic():
    answers = [
        (429, {"Retry-After": "3"}, b'{"error": "QueueFullError"}'),
        (429, {}, b'{"error": "QueueFullError"}'),
        (200, {}, b'{"ok": true}'),
    ]
    sleeps: list[float] = []
    client = ServiceClient(
        "http://unused", max_retries=5, backoff_seed=42,
        sleep=sleeps.append, backoff_base=0.5,
    )
    client._request = lambda *a, **k: answers.pop(0)
    assert client._call("GET", "/jobs") == {"ok": True}
    assert len(sleeps) == 2
    assert sleeps[0] == 3.0  # Retry-After dominates the small first backoff
    assert 0.5 <= sleeps[1] <= 1.0  # jittered second backoff, no header

    # Same seed, same schedule.
    sleeps2: list[float] = []
    client2 = ServiceClient(
        "http://unused", max_retries=5, backoff_seed=42,
        sleep=sleeps2.append, backoff_base=0.5,
    )
    answers2 = [
        (429, {"Retry-After": "3"}, b"{}"),
        (429, {}, b"{}"),
        (200, {}, b'{"ok": true}'),
    ]
    client2._request = lambda *a, **k: answers2.pop(0)
    client2._call("GET", "/jobs")
    assert sleeps2 == sleeps


def test_client_gives_up_after_max_retries():
    client = ServiceClient(
        "http://unused", max_retries=2, backoff_seed=0, sleep=lambda s: None
    )
    client._request = lambda *a, **k: (503, {}, b'{"error": "DrainingError"}')
    with pytest.raises(ServiceError, match="3 attempt"):
        client._call("POST", "/jobs", {})


def test_client_retries_connection_errors():
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionError("refused")
        return 200, {}, b'{"ok": true}'

    client = ServiceClient(
        "http://unused", max_retries=5, backoff_seed=0, sleep=lambda s: None
    )
    client._request = flaky
    assert client._call("GET", "/healthz") == {"ok": True}
