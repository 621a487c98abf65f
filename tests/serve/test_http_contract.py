"""One HTTP contract for both serve front ends.

Every case runs against a single :class:`MappingServer` and against a
:class:`RouterServer` over one replica, and checks the same status,
machine-readable ``code`` and body keys on both: a client must not be
able to tell which front end answered.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.arch import virtex_board
from repro.design import fir_filter_design
from repro.io.serve import SUPPORTED_WIRE_VERSIONS, JobSubmission
from repro.serve import MappingServer, MappingService, RouterServer, RouterService

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


@pytest.fixture(params=["server", "router"])
def front_end(request):
    """One replica behind the front end, served from a background loop.

    Yields ``(url, release)``; ``release()`` lets the replica's held
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
        servers = [MappingServer(service, port=0)]
        await servers[0].start()
        if request.param == "router":
            router = RouterService(
                [("replica-1", servers[0].url)], health_interval=30.0
            )
            servers.append(RouterServer(router, port=0))
            await servers[1].start()
        return gate, servers

    async def shutdown():
        for server in reversed(servers):
            await server.stop()

    gate, servers = run(boot())
    try:
        yield servers[-1].url, lambda: loop.call_soon_threadsafe(gate.set)
    finally:
        run(shutdown())
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
        return response.status, json.loads(response.read())
    finally:
        connection.close()


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
