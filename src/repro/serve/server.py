"""The asyncio HTTP front end of the mapping service.

Routes (all JSON, one request per connection, every document versioned
``"v": 1``):

========================  =====================================================
``GET  /healthz``          ``health_report`` document (liveness + statistics)
``POST /v1/jobs``          submit one ``job_submission`` document — or a JSON
                           array of them — returns ``job_status`` document(s)
``GET  /v1/jobs/<id>``     current ``job_status`` of one job
``GET  /v1/jobs/<id>/result``  the finished job's full result document
``DELETE /v1/jobs/<id>``   cancel a queued job (409 once running/finished)
``POST /v1/shutdown``      acknowledge, then stop the server gracefully
========================  =====================================================

Errors are structured JSON (:func:`repro.serve.protocol.error_response`):
400 for malformed input — including a missing or future wire version,
which additionally carries ``supported_versions`` — 404 for unknown
ids/paths, 405 for bad methods, 409 for state conflicts and 500 for bugs.
Every refusal is raised as a :class:`~repro.serve.protocol.HttpError`
and turned into its response in one place.

:class:`BaseHttpServer` holds the transport plumbing (bind, accept,
request framing, error normalisation) and the one route table, which
calls an async job API: ``submit``, ``submit_many``, ``status``,
``result``, ``cancel`` and ``health_report``.  :class:`MappingServer`
serves it from one in-process :class:`MappingService`; the sharded
router (:mod:`repro.serve.router`) serves it from its fleet, so both
tiers speak byte-identical HTTP.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from ..io.serialize import SerializationError
from ..io.serve import (
    WIRE_VERSION,
    HealthReport,
    JobStatus,
    JobSubmission,
    WireVersionError,
)
from .protocol import (
    HttpError,
    HttpRequest,
    error_response,
    format_response,
    json_response,
    parse_json_body,
    read_request,
)
from .service import MappingService

__all__ = ["BaseHttpServer", "MappingServer"]


class BaseHttpServer:
    """Shared asyncio TCP/HTTP shell of the serve tier's front ends.

    ``jobs`` is the async job API the routes call (and that the server
    starts and stops with itself); the base class owns connection
    handling, request framing with a stall timeout, the route table and
    the mapping of exception classes to structured HTTP errors — the
    part that must behave identically on a replica and on the router.
    """

    def __init__(
        self,
        jobs: Any,
        host: str = "127.0.0.1",
        port: int = 8347,
        request_timeout: float = 30.0,
    ) -> None:
        self.jobs = jobs
        self.host = host
        self.port = port
        #: Seconds a connection may take to deliver its full request.  A
        #: peer that connects and stalls (crashed client, slowloris, TCP
        #: probe held open) is dropped instead of pinning a handler task
        #: and a file descriptor forever.
        self.request_timeout = request_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the job API and begin accepting connections."""
        await self.jobs.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
        except OSError:
            # Bind failed: don't leak what we just started.
            await self.jobs.stop()
            raise
        # Port 0 binds an ephemeral port; reflect the real one.
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown` (or task cancellation)."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.jobs.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -------------------------------------------------------------- handling
    async def _handle_connection(self, reader, writer) -> None:
        response: Optional[Tuple[int, bytes]] = None
        try:
            request = await asyncio.wait_for(
                read_request(reader), timeout=self.request_timeout
            )
            if request is not None:
                response = await self._route(request)
            # request is None: the peer connected and left without a
            # request (port scan, TCP health probe) — answer nothing.
        except asyncio.TimeoutError:
            pass  # stalled peer: close without a response
        except HttpError as exc:
            response = error_response(
                exc.status, str(exc), code=exc.code, **exc.extra
            )
        except WireVersionError as exc:
            # The one 400 a well-behaved future client must be able to
            # machine-read: carries what this server *does* speak.
            response = error_response(
                400,
                str(exc),
                code="UNSUPPORTED_VERSION",
                supported_versions=list(exc.supported_versions),
            )
        except SerializationError as exc:
            response = error_response(400, str(exc), code="BAD_REQUEST")
        except Exception as exc:  # never kill the acceptor on a bug
            response = error_response(
                500, f"{type(exc).__name__}: {exc}", code="INTERNAL"
            )
        finally:
            try:
                if response is not None:
                    writer.write(format_response(*response))
                    await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ---------------------------------------------------------------- routes
    async def _route(self, request: HttpRequest) -> Tuple[int, bytes]:
        path, method = request.path.rstrip("/") or "/", request.method

        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "healthz supports GET only")
            report = await self.jobs.health_report()
            return json_response(200, report.to_wire())

        if path == "/v1/jobs":
            if method != "POST":
                raise HttpError(405, "submit jobs with POST /v1/jobs")
            body = parse_json_body(request)
            if isinstance(body, list):
                # Deserialise and validate the whole list before admitting
                # anything: a bad entry mid-batch must 400 without leaving
                # earlier entries enqueued as orphans the client has no id
                # for.
                submissions = [JobSubmission.from_wire(entry) for entry in body]
                statuses = await self.jobs.submit_many(submissions)
                return json_response(
                    202, [status.to_wire() for status in statuses]
                )
            status = await self.jobs.submit(JobSubmission.from_wire(body))
            return json_response(202, status.to_wire())

        if path == "/v1/shutdown":
            if method != "POST":
                raise HttpError(405, "shutdown with POST /v1/shutdown")
            # Acknowledge first; serve_forever tears down right after.
            asyncio.get_running_loop().call_soon(self.request_shutdown)
            return json_response(
                202, {"kind": "shutdown", "v": WIRE_VERSION,
                      "status": "shutting down"}
            )

        if not path.startswith("/v1/jobs/"):
            raise HttpError(404, f"unknown path {path!r}")
        job_id = path[len("/v1/jobs/"):]
        if job_id.endswith("/result"):
            if method != "GET":
                raise HttpError(405, "fetch results with GET")
            return await self._result(job_id[: -len("/result")])
        if method == "GET":
            status = _known(job_id, await self.jobs.status(job_id))
            return json_response(200, status.to_wire())
        if method == "DELETE":
            status = _known(job_id, await self.jobs.cancel(job_id))
            if status.state != "cancelled":
                raise HttpError(
                    409,
                    f"job {job_id!r} is {status.state} and can no longer be "
                    "cancelled",
                    code="NOT_CANCELLABLE",
                    job=status.to_wire(),
                )
            return json_response(200, status.to_wire())
        raise HttpError(405, "job endpoints support GET and DELETE")

    async def _result(self, job_id: str) -> Tuple[int, bytes]:
        status = _known(job_id, await self.jobs.status(job_id))
        if status.state != "done":
            raise HttpError(
                409,
                f"job {job_id!r} is {status.state}, not done",
                code="NOT_DONE",
                job=status.to_wire(),
            )
        document = await self.jobs.result(job_id)
        if document is None:
            raise HttpError(
                404, f"result of job {job_id!r} is no longer retained"
            )
        # The result is the engine's own job_result document, stamped with
        # the wire version here: all traffic carries "v", but the engine
        # schema stays the single source of truth for its fields.
        return json_response(200, {"v": WIRE_VERSION, **document})


def _known(job_id: str, status: Optional[JobStatus]) -> JobStatus:
    """``status``, or the 404 of a job id the job API does not know."""
    if status is None:
        raise HttpError(404, f"unknown job {job_id!r}")
    return status


class _ServiceJobs:
    """The async job API of the routes over one in-process service."""

    def __init__(self, service: MappingService) -> None:
        self.service = service

    async def start(self) -> None:
        await self.service.start()

    async def stop(self) -> None:
        await self.service.stop()

    async def submit(self, submission: JobSubmission) -> JobStatus:
        return self.service.submit(submission)

    async def submit_many(
        self, submissions: List[JobSubmission]
    ) -> List[JobStatus]:
        return self.service.submit_many(submissions)

    async def status(self, job_id: str) -> Optional[JobStatus]:
        return self.service.status(job_id)

    async def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self.service.result(job_id)

    async def cancel(self, job_id: str) -> Optional[JobStatus]:
        return self.service.cancel(job_id)

    async def health_report(self) -> HealthReport:
        return self.service.health_report()


class MappingServer(BaseHttpServer):
    """Binds a :class:`MappingService` to a TCP port."""

    def __init__(
        self,
        service: MappingService,
        host: str = "127.0.0.1",
        port: int = 8347,
        request_timeout: float = 30.0,
    ) -> None:
        super().__init__(
            _ServiceJobs(service),
            host=host,
            port=port,
            request_timeout=request_timeout,
        )
        self.service = service
