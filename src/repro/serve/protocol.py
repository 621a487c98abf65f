"""Minimal HTTP/1.1 framing over asyncio streams.

The serving layer deliberately depends on nothing outside the standard
library, and the stdlib has no asyncio HTTP server — so this module
implements the small slice of HTTP the job API needs: request-line +
header parsing with hard size limits, ``Content-Length`` bodies, JSON
helpers and response formatting.  Connections are one-shot
(``Connection: close``), which keeps the state machine trivial; the
bottleneck of this service is ILP solves, never TCP handshakes.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..io.serve import WIRE_VERSION

__all__ = [
    "HttpRequest",
    "HttpError",
    "ProtocolError",
    "read_request",
    "format_response",
    "json_response",
    "error_response",
    "parse_json_body",
]

#: Hard limits; a request breaching them is answered 400/413 and dropped.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A request the serve tier refuses, with the structured error to send.

    The server answers it with :func:`error_response` built from
    ``status``, the message, ``code`` and the ``extra`` fields.
    """

    def __init__(
        self, status: int, message: str, code: str = "", **extra: Any
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.extra = extra


class ProtocolError(HttpError):
    """A malformed or oversized request (code ``BAD_REQUEST``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(status, message, code="BAD_REQUEST")


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request from ``reader``; ``None`` on clean EOF.

    Stream-level failures are normalised: an overlong line trips the
    ``StreamReader`` limit (``LimitOverrunError``/``ValueError``) before
    our own byte checks can, and a body shorter than its declared
    ``Content-Length`` raises ``IncompleteReadError`` — all of these are
    malformed *input*, reported as 400/413, never as a 500 server bug.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    except (asyncio.LimitOverrunError, ValueError):
        raise ProtocolError(400, "request line too long")
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, "malformed request line")
    method, target, _version = parts
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))

    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise ProtocolError(400, "header line too long")
        if not line:
            raise ProtocolError(400, "unexpected EOF in headers")
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError(400, "headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise ProtocolError(400, "bad Content-Length")
        if size < 0:
            raise ProtocolError(400, "bad Content-Length")
        if size > MAX_BODY_BYTES:
            raise ProtocolError(413, "request body too large")
        try:
            body = await reader.readexactly(size)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "request body shorter than Content-Length")
    elif headers.get("transfer-encoding"):
        raise ProtocolError(400, "chunked requests are not supported")

    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def parse_json_body(request: HttpRequest) -> Any:
    """Decode the request body as JSON (400 on anything else)."""
    if not request.body:
        raise ProtocolError(400, "expected a JSON request body")
    try:
        return json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(400, f"request body is not valid JSON: {exc}")


def format_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise one complete HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    headers = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
    )
    for name, value in (extra_headers or {}).items():
        headers += f"{name}: {value}\r\n"
    return (headers + "\r\n").encode("latin-1") + body


def json_response(status: int, document: Any) -> Tuple[int, bytes]:
    """JSON-encode ``document`` for :func:`format_response`."""
    return status, (json.dumps(document, indent=2) + "\n").encode("utf-8")


def error_response(
    status: int, message: str, code: str = "", **extra: Any
) -> Tuple[int, bytes]:
    """A structured, versioned error body shared by every serve endpoint.

    ``code`` is the machine-readable reason (``"UNSUPPORTED_VERSION"``,
    ``"NOT_DONE"``, ...); extra keyword fields — for example
    ``supported_versions`` or the conflicting ``job`` — ride along so a
    client can act on the error without parsing prose.
    """
    document: Dict[str, Any] = {
        "kind": "error",
        "v": WIRE_VERSION,
        "error": message,
        "status": status,
    }
    if code:
        document["code"] = code
    document.update(extra)
    return json_response(status, document)
