"""The HTTP contract of ``repro serve``.

Every case runs against a :class:`MappingServer` and checks the status,
machine-readable ``code`` and body keys a client can rely on.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.arch import virtex_board
from repro.design import fir_filter_design
from repro.io.serve import SUPPORTED_WIRE_VERSIONS, JobSubmission
from repro.serve import MappingServer, MappingService

#: Keys of every structured error body.
ERROR_KEYS = ["error", "kind", "status", "v"]


def _hold_dispatch(service) -> asyncio.Event:
    """Keep submissions to ``service`` queued until the gate is set."""
    gate = asyncio.Event()
    get_batch = service.queue.get_batch

    async def held(limit):
        await gate.wait()
        return await get_batch(limit)

    service.queue.get_batch = held
    return gate


@pytest.fixture
def front_end():
    """One server, served from a background loop.

    Yields ``(url, release)``; ``release()`` lets the service's held
    dispatcher start solving.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(30)

    async def boot():
        service = MappingService(jobs=1, max_batch=4)
        gate = _hold_dispatch(service)
        server = MappingServer(service, port=0)
        await server.start()
        return gate, server

    gate, server = run(boot())
    try:
        yield server.url, lambda: loop.call_soon_threadsafe(gate.set)
    finally:
        run(server.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive(), "the server loop never stopped"
        loop.close()


def exchange(url, method, path, body=None):
    """One request; returns ``(status, decoded JSON body)``."""
    split = urlsplit(url)
    connection = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return _decoded(response)
    finally:
        connection.close()


def raw_exchange(url, data: bytes):
    """Send ``data`` verbatim, then half-close; ``(status, JSON body)``."""
    split = urlsplit(url)
    with socket.create_connection((split.hostname, split.port), timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return _decoded(response)


def _decoded(response):
    # Every status the server sends has a reason phrase of its own.
    assert response.reason not in ("", "Unknown"), response.status
    return response.status, json.loads(response.read())


def answer(url, method, path, body=None):
    """``(status, code, sorted body keys)`` of one request."""
    status, document = exchange(url, method, path, body)
    return status, document.get("code"), sorted(document)


def submit(url) -> str:
    submission = JobSubmission.from_objects(
        virtex_board("XCV1000"), fir_filter_design(), solver="bnb-pure"
    )
    status, document = exchange(url, "POST", "/v1/jobs", submission.to_wire())
    assert status == 202, document
    return document["job_id"]


def test_unknown_path_is_404(front_end):
    url, _ = front_end
    assert answer(url, "GET", "/nope") == (404, None, ERROR_KEYS)


@pytest.mark.parametrize(
    "method, path",
    [
        ("POST", "/healthz"),
        ("GET", "/v1/jobs"),
        ("GET", "/v1/shutdown"),
        ("POST", "/v1/jobs/ghost"),
        ("DELETE", "/v1/jobs/ghost/result"),
    ],
)
def test_bad_method_is_405(front_end, method, path):
    url, _ = front_end
    assert answer(url, method, path, {}) == (405, None, ERROR_KEYS)


@pytest.mark.parametrize(
    "method, path",
    [
        ("GET", "/v1/jobs/ghost"),
        ("DELETE", "/v1/jobs/ghost"),
        ("GET", "/v1/jobs/ghost/result"),
    ],
)
def test_unknown_job_is_404(front_end, method, path):
    url, _ = front_end
    assert answer(url, method, path) == (404, None, ERROR_KEYS)


def test_result_of_a_queued_job_is_409_not_done(front_end):
    url, _ = front_end
    job_id = submit(url)
    assert answer(url, "GET", f"/v1/jobs/{job_id}/result") == (
        409, "NOT_DONE", sorted(ERROR_KEYS + ["code", "job"])
    )


def test_cancel_of_a_finished_job_is_409_not_cancellable(front_end):
    url, release = front_end
    job_id = submit(url)
    release()
    deadline = time.monotonic() + 60
    while exchange(url, "GET", f"/v1/jobs/{job_id}")[1]["state"] != "done":
        assert time.monotonic() < deadline, "the job never finished"
        time.sleep(0.02)
    assert answer(url, "DELETE", f"/v1/jobs/{job_id}") == (
        409, "NOT_CANCELLABLE", sorted(ERROR_KEYS + ["code", "job"])
    )


def test_future_wire_version_is_400_unsupported_version(front_end):
    url, _ = front_end
    document = JobSubmission.from_objects(
        virtex_board("XCV1000"), fir_filter_design()
    ).to_wire()
    document["v"] = 99
    status, body = exchange(url, "POST", "/v1/jobs", document)
    assert (status, body.get("code"), sorted(body)) == (
        400,
        "UNSUPPORTED_VERSION",
        sorted(ERROR_KEYS + ["code", "supported_versions"]),
    )
    assert body["supported_versions"] == list(SUPPORTED_WIRE_VERSIONS)


def submit_with(url, solver, options):
    """``(status, code)`` of a submission naming ``solver`` with ``options``."""
    document = JobSubmission.from_objects(
        virtex_board("XCV1000"), fir_filter_design(),
        solver=solver, solver_options=options,
    ).to_wire()
    status, body = exchange(url, "POST", "/v1/jobs", document)
    return status, body.get("code")


@pytest.mark.parametrize(
    "solver, options",
    [
        ("cplex", {}),
        ("race", {}),
        ("bnb-pure", {"time_limt": 0}),
        ("scipy-milp", {"node_limit": 10}),
        ("bnb-pure", {"stop_check": "x"}),
        ("portfolio", {"context": {}}),
        ("bnb", {"warm_start": [1.0]}),
        ("scipy-milp", {"fix_zero": [0]}),
        ("portfolio", {"heuristics": "off"}),
    ],
)
def test_bad_solver_input_is_400_bad_request(front_end, solver, options):
    url, _ = front_end
    assert submit_with(url, solver, options) == (400, "BAD_REQUEST")


def test_unavailable_backend_is_400_bad_request(front_end, monkeypatch):
    from repro.ilp import BACKENDS

    row = BACKENDS["scipy-milp"]._replace(available=lambda: False)
    monkeypatch.setitem(BACKENDS, "scipy-milp", row)
    url, _ = front_end
    assert submit_with(url, "scipy-milp", {}) == (400, "BAD_REQUEST")


def test_options_the_backend_takes_are_accepted(front_end):
    url, _ = front_end
    options = {"time_limit": 30, "node_limit": 100, "rel_gap": 1e-4}
    assert submit_with(url, "portfolio", options) == (202, None)


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GARBAGE\r\n\r\n",
        b"GET /healthz SPDY/3\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: many\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1\r\n\r\n3",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n[7]",
    ],
    ids=[
        "one-word-request-line",
        "not-http",
        "header-without-colon",
        "non-numeric-length",
        "negative-length",
        "chunked",
        "body-shorter-than-length",
        "empty-body",
        "not-json",
        "not-utf8",
        "json-number",
        "json-array-of-numbers",
    ],
)
def test_malformed_request_is_400_bad_request(front_end, request_bytes):
    url, _ = front_end
    status, body = raw_exchange(url, request_bytes)
    assert (status, body.get("code"), sorted(body)) == (
        400, "BAD_REQUEST", sorted(ERROR_KEYS + ["code"])
    )


def test_oversized_body_is_413_bad_request(front_end):
    url, _ = front_end
    status, body = raw_exchange(
        url, b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
    )
    assert (status, body.get("code")) == (413, "BAD_REQUEST")


def test_service_bug_is_500_internal(front_end, monkeypatch):
    def broken(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(MappingService, "health_report", broken)
    url, _ = front_end
    status, body = exchange(url, "GET", "/healthz")
    assert (status, body.get("code"), sorted(body)) == (
        500, "INTERNAL", sorted(ERROR_KEYS + ["code"])
    )
    assert "boom" in body["error"]


def wait_done(url, job_id):
    deadline = time.monotonic() + 60
    while True:
        status, document = exchange(url, "GET", f"/v1/jobs/{job_id}")
        if document["state"] in ("done", "cancelled"):
            return status, document
        assert time.monotonic() < deadline, "the job never finished"
        time.sleep(0.02)


def test_healthz_is_200_health_report(front_end):
    url, _ = front_end
    status, body = exchange(url, "GET", "/healthz")
    assert (status, body["kind"], body["v"]) == (200, "health_report", 1)
    assert body["status"] == "ok"


def test_trailing_slash_routes_like_the_bare_path(front_end):
    url, _ = front_end
    status, body = exchange(url, "GET", "/healthz/")
    assert (status, body["kind"]) == (200, "health_report")


def test_submission_is_202_queued_job_status(front_end):
    url, _ = front_end
    document = JobSubmission.from_objects(
        virtex_board("XCV1000"), fir_filter_design(), solver="bnb-pure"
    ).to_wire()
    status, body = exchange(url, "POST", "/v1/jobs", document)
    assert (status, body["kind"], body["v"], body["state"]) == (
        202, "job_status", 1, "queued"
    )
    assert body["job_id"]


def test_batch_submission_is_202_with_one_status_per_entry(front_end):
    url, _ = front_end
    document = JobSubmission.from_objects(
        virtex_board("XCV1000"), fir_filter_design(), solver="bnb-pure"
    ).to_wire()
    status, body = exchange(url, "POST", "/v1/jobs", [document, document])
    assert status == 202
    assert [entry["kind"] for entry in body] == ["job_status"] * 2
    assert len({entry["job_id"] for entry in body}) == 2


def test_status_of_a_queued_job_is_200(front_end):
    url, _ = front_end
    job_id = submit(url)
    status, body = exchange(url, "GET", f"/v1/jobs/{job_id}")
    assert (status, body["kind"], body["job_id"], body["state"]) == (
        200, "job_status", job_id, "queued"
    )


def test_cancel_of_a_queued_job_is_200_cancelled(front_end):
    url, _ = front_end
    job_id = submit(url)
    status, body = exchange(url, "DELETE", f"/v1/jobs/{job_id}")
    assert (status, body["kind"], body["state"]) == (200, "job_status", "cancelled")


def test_result_of_a_cancelled_job_is_409_not_done(front_end):
    url, _ = front_end
    job_id = submit(url)
    exchange(url, "DELETE", f"/v1/jobs/{job_id}")
    status, body = exchange(url, "GET", f"/v1/jobs/{job_id}/result")
    assert (status, body.get("code"), body["job"]["state"]) == (
        409, "NOT_DONE", "cancelled"
    )


def test_result_of_a_finished_job_is_200_versioned(front_end):
    url, release = front_end
    job_id = submit(url)
    release()
    assert wait_done(url, job_id)[1]["state"] == "done"
    status, body = exchange(url, "GET", f"/v1/jobs/{job_id}/result")
    assert (status, body["v"], body["status"]) == (200, 1, "ok")
    assert body["fingerprint"]


def test_shutdown_is_202_acknowledged(front_end):
    url, _ = front_end
    status, body = exchange(url, "POST", "/v1/shutdown", {})
    assert (status, body) == (
        202, {"kind": "shutdown", "v": 1, "status": "shutting down"}
    )
