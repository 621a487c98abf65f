"""Mapping-as-a-service: an asyncio job API over the batch engine.

``repro serve`` turns the one-shot mapping pipeline into a long-lived
service: submissions arrive as v1 wire documents over HTTP
(:mod:`repro.io.serve`), ship to the engine as soon as it is idle
(whatever piled up behind a running batch ships together), run on a
persistent :class:`~repro.engine.MappingEngine` worker pool, and come
back with the same fingerprints the CLI computes — while duplicate
requests (in flight or repeated) are answered from one solve via
canonical-hash dedupe and a two-tier result store.

One process serves everything: ``repro serve --jobs N`` runs the solves
on N engine worker processes, and ``--cache-dir`` shares the on-disk
result tier with ``repro batch``.
"""

from .client import ServeClient, ServeClientError
from .protocol import HttpError, HttpRequest, ProtocolError
from .queue import JobQueue, QueuedTicket
from .server import MappingServer
from .service import MappingService, ServeError
from .store import ResultStore

__all__ = [
    "JobQueue",
    "QueuedTicket",
    "ResultStore",
    "MappingService",
    "ServeError",
    "MappingServer",
    "ServeClient",
    "ServeClientError",
    "HttpError",
    "HttpRequest",
    "ProtocolError",
]
