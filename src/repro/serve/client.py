"""Blocking client of the mapping serve tier (what ``repro submit`` uses).

Pure stdlib (:mod:`http.client`): one connection per request, JSON in
and out, mirroring the server's one-shot connection model.  All traffic
speaks the v1 wire schema (:mod:`repro.io.serve`); transport problems
and non-2xx answers re-raise as :class:`ServeClientError` carrying the
server's structured error — message, machine-readable ``code`` and the
full error ``payload`` — so callers can react without parsing prose.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional, Union
from urllib.parse import urlsplit

from ..io.serve import HealthReport, JobStatus, JobSubmission

__all__ = ["ServeClientError", "ServeClient"]


class ServeClientError(Exception):
    """The server was unreachable or answered with an error."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        code: str = "",
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        #: Machine-readable reason (``"UNSUPPORTED_VERSION"``,
        #: ``"NOT_DONE"``, ...); empty for transport errors.
        self.code = code
        #: The server's full structured error document, when one was sent.
        self.payload = payload or {}


class ServeClient:
    """Talks to one ``repro serve`` process."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ServeClientError(f"unsupported URL scheme {split.scheme!r}")
        if not split.hostname:
            raise ServeClientError(f"bad server URL {url!r}")
        self.host = split.hostname
        self.port = split.port or 8347
        self.timeout = timeout

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------- api
    def submit(
        self, submission: Union[JobSubmission, List[JobSubmission]]
    ) -> Union[JobStatus, List[JobStatus]]:
        """Submit one submission (or a batch); returns the job status(es)."""
        if isinstance(submission, list):
            body = [entry.to_wire() for entry in submission]
            document = self._request("POST", "/v1/jobs", body)
            return [JobStatus.from_wire(entry) for entry in document]
        document = self._request("POST", "/v1/jobs", submission.to_wire())
        return JobStatus.from_wire(document)

    def status(self, job_id: str) -> JobStatus:
        return JobStatus.from_wire(self._request("GET", f"/v1/jobs/{job_id}"))

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's full result document."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> JobStatus:
        return JobStatus.from_wire(
            self._request("DELETE", f"/v1/jobs/{job_id}")
        )

    def health(self) -> HealthReport:
        return HealthReport.from_wire(self._request("GET", "/healthz"))

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/v1/shutdown", {})

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> JobStatus:
        """Poll until the job reaches a terminal state (or ``timeout`` s)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.terminal:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeClientError(
                    f"timed out after {timeout:.1f}s waiting for job "
                    f"{job_id!r} (last state: {status.state})"
                )
            time.sleep(poll_interval)

    # ------------------------------------------------------------- internals
    def _request(self, method: str, path: str, body: Any = None) -> Any:
        payload = None
        headers = {"Accept": "application/json"}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (ConnectionError, OSError) as exc:
            raise ServeClientError(
                f"cannot reach mapping service at {self.url}: {exc}"
            ) from exc
        finally:
            connection.close()
        try:
            document = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeClientError(
                f"malformed response from {self.url}: {exc}"
            ) from exc
        if response.status >= 400:
            if isinstance(document, dict):
                raise ServeClientError(
                    document.get("error", f"HTTP {response.status}"),
                    status=response.status,
                    code=str(document.get("code", "")),
                    payload=document,
                )
            raise ServeClientError(
                f"HTTP {response.status}", status=response.status
            )
        return document
