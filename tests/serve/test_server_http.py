"""End-to-end tests over real sockets: server + stdlib client."""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.arch import virtex_board
from repro.design import fir_filter_design, matrix_multiply_design
from repro.engine import MappingEngine, MappingJob
from repro.io.serve import JobSubmission
from repro.serve import (
    MappingServer,
    MappingService,
    ServeClient,
    ServeClientError,
)


@pytest.fixture
def live_server():
    """A real server on an ephemeral port, run on a background thread."""
    service = MappingService(jobs=1, max_batch=4)
    server = MappingServer(service, port=0)
    started = threading.Event()

    def run():
        async def main():
            await server.start()
            started.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    yield server
    try:
        ServeClient(server.url).shutdown()
    except ServeClientError:
        pass
    thread.join(10)


def submission(design=None, **overrides) -> JobSubmission:
    overrides.setdefault("solver", "bnb-pure")
    return JobSubmission.from_objects(
        virtex_board("XCV1000"), design or fir_filter_design(), **overrides
    )


class TestHttpRoundTrip:
    def test_submit_wait_result_matches_direct_engine_run(self, live_server):
        client = ServeClient(live_server.url)
        status = client.submit(submission())
        final = client.wait(status.job_id, timeout=60)
        assert final.state == "done" and final.result_status == "ok"

        document = client.result(status.job_id)
        board, design = virtex_board("XCV1000"), fir_filter_design()
        direct = MappingEngine(jobs=1).run(
            [MappingJob(board=board, design=design, solver="bnb-pure")]
        )[0]
        assert final.fingerprint == direct.fingerprint
        assert document["fingerprint"] == direct.fingerprint
        assert document["assignment"] == direct.assignment

    def test_batch_submission_dedupes_duplicates(self, live_server):
        client = ServeClient(live_server.url)
        statuses = client.submit(
            [submission(), submission(), submission(matrix_multiply_design())]
        )
        assert len(statuses) == 3
        finals = [client.wait(s.job_id, timeout=60) for s in statuses]
        assert all(f.result_status == "ok" for f in finals)
        assert finals[0].fingerprint == finals[1].fingerprint
        assert statuses[1].deduped or finals[1].cache_hit
        health = client.health()
        assert health.counters["deduped"] >= 1

    def test_healthz_endpoint(self, live_server):
        health = ServeClient(live_server.url).health()
        assert health.status == "ok"
        assert health.workers == 1
        assert health.counters is not None and health.store is not None

    def test_unknown_job_is_404(self, live_server):
        client = ServeClient(live_server.url)
        with pytest.raises(ServeClientError) as err:
            client.status("ghost")
        assert err.value.status == 404

    def test_result_of_unfinished_job_is_409(self, live_server):
        client = ServeClient(live_server.url)
        # Never dispatched: an impossible deadline expires it instead.
        status = client.submit(submission(deadline_ms=0.0, label="doomed"))
        final = client.wait(status.job_id, timeout=30)
        assert final.state == "expired"
        with pytest.raises(ServeClientError) as err:
            client.result(status.job_id)
        assert err.value.status == 409

    def test_cancel_after_completion_is_409(self, live_server):
        client = ServeClient(live_server.url)
        status = client.submit(submission())
        client.wait(status.job_id, timeout=60)
        with pytest.raises(ServeClientError) as err:
            client.cancel(status.job_id)
        assert err.value.status == 409

    def test_bad_submission_is_400(self, live_server):
        client = ServeClient(live_server.url)
        with pytest.raises(ServeClientError) as err:
            client.submit(submission(solver="definitely-not-registered"))
        assert err.value.status == 400

    def test_unknown_path_is_404_and_malformed_json_is_400(self, live_server):
        url = live_server.url
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/nope", timeout=10)
        assert err.value.code == 404

        request = urllib.request.Request(
            f"{url}/v1/jobs", data=b"this is not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert "error" in body

    def test_batch_with_a_bad_entry_is_rejected_atomically(self, live_server):
        client = ServeClient(live_server.url)
        before = client.health().counters["submitted"]
        good = submission().to_wire()
        bad = submission().to_wire()
        bad["solver"] = "definitely-not-registered"
        request = urllib.request.Request(
            f"{live_server.url}/v1/jobs",
            data=json.dumps([good, bad]).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        # The valid sibling was not admitted either: no orphan solves.
        assert client.health().counters["submitted"] == before

    def test_future_wire_version_is_a_structured_400(self, live_server):
        # A client speaking a wire version this server does not support
        # must get an actionable, machine-readable refusal — never a
        # crash, never a silent misread.
        from repro.io.serve import SUPPORTED_WIRE_VERSIONS

        document = submission().to_wire()
        document["v"] = 99
        request = urllib.request.Request(
            f"{live_server.url}/v1/jobs",
            data=json.dumps(document).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["code"] == "UNSUPPORTED_VERSION"
        assert body["supported_versions"] == list(SUPPORTED_WIRE_VERSIONS)
        # The server stays healthy for same-version clients.
        assert ServeClient(live_server.url).health().status == "ok"

    def test_unversioned_submission_is_a_structured_400(self, live_server):
        document = submission().to_wire()
        del document["v"]
        request = urllib.request.Request(
            f"{live_server.url}/v1/jobs",
            data=json.dumps(document).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["code"] == "UNSUPPORTED_VERSION"
        assert "supported_versions" in body

    def test_responses_carry_the_wire_version(self, live_server):
        from repro.io.serve import WIRE_VERSION

        client = ServeClient(live_server.url)
        status = client.submit(submission())
        final = client.wait(status.job_id, timeout=60)
        assert final.state == "done"
        raw_status = json.loads(urllib.request.urlopen(
            f"{live_server.url}/v1/jobs/{status.job_id}", timeout=10
        ).read())
        raw_result = json.loads(urllib.request.urlopen(
            f"{live_server.url}/v1/jobs/{status.job_id}/result", timeout=10
        ).read())
        raw_health = json.loads(urllib.request.urlopen(
            f"{live_server.url}/healthz", timeout=10
        ).read())
        assert raw_status["v"] == WIRE_VERSION
        assert raw_result["v"] == WIRE_VERSION
        assert raw_health["v"] == WIRE_VERSION

    def test_non_object_submission_body_is_400_not_500(self, live_server):
        for payload in (b"null", b'"a string"', b"[null]"):
            request = urllib.request.Request(
                f"{live_server.url}/v1/jobs", data=payload, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400, payload

    def test_connection_without_a_request_gets_no_response(self, live_server):
        import socket

        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5
        ) as probe:
            probe.shutdown(socket.SHUT_WR)
            # A clean EOF, not a 500 (load balancers probe this way).
            assert probe.recv(1024) == b""
        # The server is still healthy afterwards.
        assert ServeClient(live_server.url).health().status == "ok"

    def test_stalled_connection_is_dropped_after_request_timeout(
        self, live_server
    ):
        import socket

        live_server.request_timeout = 0.2
        try:
            with socket.create_connection(
                (live_server.host, live_server.port), timeout=5
            ) as stalled:
                # Send a partial request and stall: the server must hang
                # up instead of pinning the handler task forever.
                stalled.sendall(b"GET /healthz HTT")
                stalled.settimeout(5)
                assert stalled.recv(1024) == b""
            assert ServeClient(live_server.url).health().status == "ok"
        finally:
            live_server.request_timeout = 30.0

    def test_wrong_method_is_405(self, live_server):
        request = urllib.request.Request(
            f"{live_server.url}/healthz", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 405


class TestClientErrors:
    def test_unreachable_server_raises_client_error(self):
        client = ServeClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServeClientError):
            client.health()

    def test_bad_url_is_rejected(self):
        with pytest.raises(ServeClientError):
            ServeClient("ftp://example.com")
