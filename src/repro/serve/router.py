"""Sharded serve tier: a consistent-hashing router over service replicas.

``repro serve --replicas N`` boots N :class:`~repro.serve.service
.MappingService` processes (one engine each) that share a single on-disk
result-cache key space, and puts this router in front of them.  The
router speaks the exact same v1 wire API as a single server — clients
cannot tell the difference — and adds the fleet concerns:

* **Sharding.**  Job identity keys (the canonical hash of a submission's
  identity fields) are placed on a consistent-hash ring with virtual
  nodes, so identical submissions always land on the same replica and
  dedupe there, while a membership change only re-routes the ~1/N of the
  key space owned by the changed replica.
* **Admission control & backpressure.**  Each replica has a bounded
  router-side in-flight budget.  When a shard is saturated, low-priority
  submissions are **shed** with a structured 503 (code ``SHED``) and the
  rest are pushed back with a 429 carrying ``retry_after_ms`` (code
  ``RETRY_AFTER``) — an open-loop load
  generator sees explicit signals instead of unbounded queueing.
* **Health checking & re-hash.**  A background loop polls every replica;
  a dead one is removed from the ring, its unfinished jobs are
  resubmitted to the surviving shards **under their original router job
  ids** (no ticket is lost), and a supervisor (when attached) restarts
  the process and re-adds it to the ring.

The router never solves anything and keeps no persistent state: every
mapping result and cache entry lives in the replicas and the shared
store.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..engine.cache import canonical_hash
from ..io.serve import (
    TERMINAL_STATES,
    HealthReport,
    JobStatus,
    JobSubmission,
)
from .protocol import HttpError
from .server import BaseHttpServer

__all__ = [
    "HashRing",
    "ReplicaUnreachable",
    "RouterService",
    "RouterServer",
    "routing_key",
]

#: Submission fields that define job identity for routing: everything the
#: engine's cache key depends on, none of the serving metadata.  Label,
#: priority and deadline must not scatter duplicates across shards.
_ROUTING_FIELDS = (
    "board",
    "design",
    "weights",
    "solver",
    "solver_options",
    "capacity_mode",
    "port_estimation",
    "warm_start",
    "warm_retries",
    "mode",
    "gap_limit",
    "timeout",
)


def routing_key(submission: JobSubmission) -> str:
    """Identity hash a submission is sharded by.

    Two submissions get the same routing key exactly when the replica
    would compute the same admission cache key for them (modulo the
    engine's default timeout, which every replica of a fleet shares), so
    duplicates co-locate and dedupe on their shard.
    """
    wire = submission.to_wire()
    return canonical_hash({key: wire.get(key) for key in _ROUTING_FIELDS})


class ReplicaUnreachable(HttpError):
    """A replica did not answer (connect failure, timeout, bad bytes)."""

    def __init__(self, name: str, message: str) -> None:
        super().__init__(502, message, code="REPLICA_UNREACHABLE")
        self.name = name


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each member is hashed onto ``vnodes`` ring positions; a key routes to
    the first member clockwise from its own hash.  Removing a member
    re-routes only the keys it owned, spread over the survivors — the
    property that keeps shard-local caches warm through membership
    churn.
    """

    def __init__(self, members: Sequence[str] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._hashes: List[int] = []
        self._members: Dict[str, List[int]] = {}
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
        )

    def _rebuild(self) -> None:
        self._points.sort()
        self._hashes = [point for point, _ in self._points]

    def add(self, member: str) -> None:
        if member in self._members:
            return
        hashes = [
            self._hash(f"{member}#{index}") for index in range(self.vnodes)
        ]
        self._members[member] = hashes
        self._points.extend((point, member) for point in hashes)
        self._rebuild()

    def remove(self, member: str) -> None:
        hashes = self._members.pop(member, None)
        if hashes is None:
            return
        gone = set(hashes)
        self._points = [
            (point, name)
            for point, name in self._points
            if not (name == member and point in gone)
        ]
        self._rebuild()

    def members(self) -> List[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def route(self, key: str) -> Optional[str]:
        """The member owning ``key``; ``None`` on an empty ring."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._hashes, self._hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


async def _http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any = None,
    timeout: float = 10.0,
) -> Tuple[int, Any]:
    """One JSON request over a fresh connection (the servers are one-shot).

    Returns ``(status, decoded_body)``; raises ``OSError``/``TimeoutError``
    on transport problems and ``ValueError`` on non-JSON bytes — callers
    normalise those into :class:`ReplicaUnreachable`.
    """
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
    request = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Accept: application/json\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + payload
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(request)
        await asyncio.wait_for(writer.drain(), timeout)
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    parts = status_line.split()
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"malformed response: {status_line!r}")
    status = int(parts[1])
    document = json.loads(rest.decode("utf-8")) if rest.strip() else None
    return status, document


@dataclass
class _Replica:
    """Router-side view of one service replica."""

    name: str
    url: str
    host: str = ""
    port: int = 0
    healthy: bool = True
    #: Jobs the router has submitted here and not yet observed terminal.
    inflight: int = 0
    #: Submissions ever routed here (shard-balance accounting).
    routed: int = 0
    consecutive_failures: int = 0

    def __post_init__(self) -> None:
        split = urlsplit(self.url if "//" in self.url else f"http://{self.url}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80


@dataclass
class _RouterJob:
    """One client-visible job and where it currently lives."""

    router_id: str
    routing_key: str
    submission_wire: Dict[str, Any]
    replica: str
    replica_job_id: str
    #: Last observed status wire document (router-id rewritten).
    last: Dict[str, Any] = field(default_factory=dict)
    terminal: bool = False


class RouterService:
    """The routing/admission brain behind :class:`RouterServer`.

    Owns the ring, the per-replica budgets and the router job table; all
    methods run on the owning event loop (no locks).  An optional
    ``supervisor`` (see :class:`~repro.serve.service.ReplicaSupervisor`)
    lets the router restart replicas it declared dead.
    """

    def __init__(
        self,
        replicas: Sequence[Tuple[str, str]],
        max_inflight: int = 16,
        shed_priority: int = 0,
        retry_after_ms: float = 250.0,
        health_interval: float = 2.0,
        replica_timeout: float = 10.0,
        record_entries: int = 4096,
        vnodes: int = 64,
        supervisor: Optional[Any] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.replicas: Dict[str, _Replica] = {
            name: _Replica(name=name, url=url) for name, url in replicas
        }
        if not self.replicas:
            raise ValueError("a router needs at least one replica")
        self.ring = HashRing(list(self.replicas), vnodes=vnodes)
        self.max_inflight = max_inflight
        #: Submissions with ``priority`` strictly below this are shed
        #: (503) instead of asked to retry (429) when their shard is full.
        self.shed_priority = shed_priority
        self.retry_after_ms = retry_after_ms
        self.health_interval = health_interval
        self.replica_timeout = replica_timeout
        self.record_entries = max(1, record_entries)
        self.supervisor = supervisor

        self._jobs: "OrderedDict[str, _RouterJob]" = OrderedDict()
        self._ids = itertools.count(1)
        self._health_task: Optional[asyncio.Task] = None
        self._started_monotonic = 0.0

        self.counters: Dict[str, int] = {
            "submitted": 0,
            "routed": 0,
            "shed": 0,
            "backpressure": 0,
            "rehashes": 0,
            "rerouted_jobs": 0,
            "replica_failures": 0,
            "replica_restarts": 0,
            "proxy_errors": 0,
        }

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._health_task is not None:
            return
        self._started_monotonic = time.monotonic()
        self._health_task = asyncio.create_task(
            self._health_loop(), name="router-health"
        )

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self.supervisor is not None:
            # The fleet is router-owned: ask the replicas to exit cleanly,
            # then reap the processes.
            for replica in self.replicas.values():
                try:
                    await self._request(replica, "POST", "/v1/shutdown", {})
                except HttpError:
                    pass
            await self.supervisor.stop()

    @property
    def uptime_seconds(self) -> float:
        if not self._started_monotonic:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------- api
    async def submit(self, submission: JobSubmission) -> JobStatus:
        statuses = await self.submit_many([submission])
        return statuses[0]

    async def submit_many(
        self, submissions: List[JobSubmission]
    ) -> List[JobStatus]:
        """Route a batch; the whole batch is admitted or none of it.

        All-or-nothing admission mirrors the single-server batch
        contract: a client must never learn ids for half a batch and an
        overload error for the rest.
        """
        keys = [routing_key(submission) for submission in submissions]
        plan: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            target = self.ring.route(key)
            if target is None:
                raise HttpError(
                    503, "no healthy replicas", code="NO_REPLICAS"
                )
            plan.setdefault(target, []).append(index)

        # Admission first, atomically over the whole batch.  Distinct
        # submissions sharing a routing key count once: they will dedupe
        # into one solve on the shard.
        for name, indices in plan.items():
            replica = self.replicas[name]
            unique = len({keys[index] for index in indices})
            if replica.inflight + unique > self.max_inflight:
                lowest = min(submissions[i].priority for i in indices)
                if lowest < self.shed_priority:
                    self.counters["shed"] += len(indices)
                    raise HttpError(
                        503,
                        f"shard {name} is saturated; low-priority work shed",
                        code="SHED",
                        replica=name,
                    )
                self.counters["backpressure"] += len(indices)
                raise HttpError(
                    429,
                    f"shard {name} is saturated; retry later",
                    code="RETRY_AFTER",
                    replica=name,
                    retry_after_ms=self.retry_after_ms,
                )

        self.counters["submitted"] += len(submissions)
        results: List[Optional[JobStatus]] = [None] * len(submissions)
        for name, indices in plan.items():
            replica = self.replicas[name]
            body = [submissions[index].to_wire() for index in indices]
            status, document = await self._request(
                replica, "POST", "/v1/jobs", body
            )
            if status >= 400 or not isinstance(document, list):
                raise HttpError(
                    status if status >= 400 else 502,
                    self._error_text(document, f"replica {name} refused"),
                    code=self._error_code(document, "REPLICA_ERROR"),
                    replica=name,
                )
            for index, entry in zip(indices, document):
                results[index] = self._register(
                    submissions[index], keys[index], replica, entry
                )
        return [status for status in results if status is not None]

    def _register(
        self,
        submission: JobSubmission,
        key: str,
        replica: _Replica,
        status_wire: Dict[str, Any],
    ) -> JobStatus:
        router_id = f"g{next(self._ids):06d}-{key[:8]}"
        replica.routed += 1
        self.counters["routed"] += 1
        job = _RouterJob(
            router_id=router_id,
            routing_key=key,
            submission_wire=submission.to_wire(),
            replica=replica.name,
            replica_job_id=str(status_wire.get("job_id", "")),
        )
        self._jobs[router_id] = job
        self._observe(job, status_wire, replica)
        if not job.terminal:
            replica.inflight += 1
        self._trim_jobs()
        return JobStatus.from_wire(job.last)

    async def status(self, router_id: str) -> Optional[JobStatus]:
        job = self._jobs.get(router_id)
        if job is None:
            return None
        if job.terminal:
            return JobStatus.from_wire(job.last)
        replica = self.replicas.get(job.replica)
        if replica is None or not replica.healthy:
            await self._reroute_job(job)
            return JobStatus.from_wire(job.last)
        try:
            status, document = await self._request(
                replica, "GET", f"/v1/jobs/{job.replica_job_id}"
            )
        except ReplicaUnreachable:
            await self._fail_replica(replica)
            return JobStatus.from_wire(job.last)
        if status == 200 and isinstance(document, dict):
            if self._observe(job, document, replica):
                replica.inflight = max(0, replica.inflight - 1)
        return JobStatus.from_wire(job.last)

    async def result(self, router_id: str) -> Optional[Dict[str, Any]]:
        """The finished job's result document, fetched from its replica.

        ``None`` for an unknown job; a replica that cannot produce the
        document raises :class:`HttpError`.
        """
        job = self._jobs.get(router_id)
        replica = None if job is None else self.replicas.get(job.replica)
        if replica is None:
            return None
        http_status, document = await self._request(
            replica, "GET", f"/v1/jobs/{job.replica_job_id}/result"
        )
        if http_status != 200 or not isinstance(document, dict):
            self.counters["proxy_errors"] += 1
            raise HttpError(
                http_status if http_status >= 400 else 502,
                self._error_text(
                    document, f"replica {job.replica} lost the result"
                ),
                code=self._error_code(document, "REPLICA_ERROR"),
            )
        return document

    async def cancel(self, router_id: str) -> Optional[JobStatus]:
        job = self._jobs.get(router_id)
        if job is None:
            return None
        if job.terminal:
            return JobStatus.from_wire(job.last)
        replica = self.replicas.get(job.replica)
        if replica is None or not replica.healthy:
            # The job is being re-routed; treat as still queued.
            return JobStatus.from_wire(job.last)
        http_status, document = await self._request(
            replica, "DELETE", f"/v1/jobs/{job.replica_job_id}"
        )
        released = False
        if isinstance(document, dict) and document.get("kind") == "job_status":
            released = self._observe(job, document, replica)
        elif (
            http_status == 409
            and isinstance(document, dict)
            and isinstance(document.get("job"), dict)
        ):
            released = self._observe(job, document["job"], replica)
        if released:
            replica.inflight = max(0, replica.inflight - 1)
        return JobStatus.from_wire(job.last)

    async def health_report(self) -> HealthReport:
        """Fleet health: ring layout, per-replica summaries, aggregates."""
        reports = await asyncio.gather(
            *(self._poll_replica(r) for r in self.replicas.values())
        )
        fleet: Dict[str, int] = {}
        summaries: List[Dict[str, Any]] = []
        for replica, report in zip(self.replicas.values(), reports):
            summary: Dict[str, Any] = {
                "name": replica.name,
                "url": replica.url,
                "healthy": replica.healthy,
                "inflight": replica.inflight,
                "routed": replica.routed,
            }
            if report is not None:
                counters = report.counters
                for key, value in counters.items():
                    if isinstance(value, int):
                        fleet[key] = fleet.get(key, 0) + value
                summary["counters"] = dict(counters)
                summary["queue_depth"] = report.queue_depth
                summary["workers"] = report.workers
                summary["instance"] = report.details.get("instance", "")
            summaries.append(summary)
        healthy = sum(1 for r in self.replicas.values() if r.healthy)
        return HealthReport(
            status="ok" if healthy else "degraded",
            role="router",
            uptime_seconds=self.uptime_seconds,
            queue_depth=sum(
                int(s.get("queue_depth", 0) or 0) for s in summaries
            ),
            inflight=sum(r.inflight for r in self.replicas.values()),
            workers=sum(int(s.get("workers", 0) or 0) for s in summaries),
            counters=dict(self.counters),
            store=None,
            details={
                "ring": self.ring.members(),
                "vnodes": self.ring.vnodes,
                "max_inflight": self.max_inflight,
                "shed_priority": self.shed_priority,
                "healthy_replicas": healthy,
                "fleet": fleet,
                "shard_counts": {
                    r.name: r.routed for r in self.replicas.values()
                },
                "records": len(self._jobs),
            },
            replicas=summaries,
        )

    # ----------------------------------------------------- replica handling
    async def _request(
        self, replica: _Replica, method: str, path: str, body: Any = None
    ) -> Tuple[int, Any]:
        try:
            return await _http_json(
                replica.host,
                replica.port,
                method,
                path,
                body,
                timeout=self.replica_timeout,
            )
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            raise ReplicaUnreachable(
                replica.name, f"replica {replica.name} unreachable: {exc}"
            ) from exc

    @staticmethod
    def _error_text(document: Any, fallback: str) -> str:
        if isinstance(document, dict) and document.get("error"):
            return str(document["error"])
        return fallback

    @staticmethod
    def _error_code(document: Any, fallback: str) -> str:
        if isinstance(document, dict) and document.get("code"):
            return str(document["code"])
        return fallback

    def _observe(
        self, job: _RouterJob, status_wire: Dict[str, Any], replica: _Replica
    ) -> bool:
        """Fold a replica's status answer into the router-side record.

        Returns ``True`` when this observation is the job's transition
        into a terminal state — the moment its shard budget is released
        (the caller that *claimed* budget does so on registration, so
        claim and release pair up exactly once per placement).
        """
        document = dict(status_wire)
        document["job_id"] = job.router_id
        document["replica"] = replica.name
        was_terminal = job.terminal
        job.last = document
        job.terminal = document.get("state") in TERMINAL_STATES
        return job.terminal and not was_terminal

    def _trim_jobs(self) -> None:
        while len(self._jobs) > self.record_entries:
            evicted_id, evicted = next(iter(self._jobs.items()))
            if not evicted.terminal:
                break  # never evict a live job
            del self._jobs[evicted_id]

    async def _poll_replica(
        self, replica: _Replica
    ) -> Optional[HealthReport]:
        try:
            status, document = await self._request(replica, "GET", "/healthz")
        except ReplicaUnreachable:
            return None
        if status != 200 or not isinstance(document, dict):
            return None
        try:
            report = HealthReport.from_wire(document)
        except Exception:
            return None
        return report

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            for replica in list(self.replicas.values()):
                if not replica.healthy:
                    await self._try_revive(replica)
                    continue
                report = await self._poll_replica(replica)
                if report is None:
                    replica.consecutive_failures += 1
                    if replica.consecutive_failures >= 2:
                        await self._fail_replica(replica)
                else:
                    replica.consecutive_failures = 0
                    # Reconcile the router-side budget with reality: the
                    # count of this replica's live router jobs is the
                    # truth, decrements lost to missed polls heal here.
                    live = sum(
                        1
                        for job in self._jobs.values()
                        if job.replica == replica.name and not job.terminal
                    )
                    replica.inflight = live

    async def _fail_replica(self, replica: _Replica) -> None:
        """Declare a replica dead: re-hash and re-home its live jobs."""
        if not replica.healthy:
            return
        replica.healthy = False
        replica.inflight = 0
        self.counters["replica_failures"] += 1
        if replica.name in self.ring:
            self.ring.remove(replica.name)
            self.counters["rehashes"] += 1
        orphans = [
            job
            for job in self._jobs.values()
            if job.replica == replica.name and not job.terminal
        ]
        for job in orphans:
            await self._reroute_job(job)
        if self.supervisor is not None:
            url = await self.supervisor.restart(replica.name)
            if url:
                fresh = _Replica(name=replica.name, url=url)
                fresh.routed = replica.routed
                self.replicas[replica.name] = fresh
                self.ring.add(replica.name)
                self.counters["replica_restarts"] += 1

    async def _try_revive(self, replica: _Replica) -> None:
        """Re-admit a previously dead replica that answers health again."""
        report = await self._poll_replica(replica)
        if report is None:
            return
        replica.healthy = True
        replica.consecutive_failures = 0
        if replica.name not in self.ring:
            self.ring.add(replica.name)

    async def _reroute_job(self, job: _RouterJob) -> None:
        """Resubmit an orphaned job to the ring, keeping its router id.

        The replacement replica computes the same admission cache key
        from the stored submission, so a twin already solved (or solving)
        anywhere on the shared store dedupes instead of re-running.
        """
        target_name = self.ring.route(job.routing_key)
        if target_name is None:
            job.last = dict(
                job.last,
                state="done",
                result_status="error",
                error="every replica died before the job finished",
            )
            job.terminal = True
            return
        target = self.replicas[target_name]
        try:
            status, document = await self._request(
                target, "POST", "/v1/jobs", job.submission_wire
            )
        except ReplicaUnreachable:
            await self._fail_replica(target)
            return  # the next status poll retries on the shrunken ring
        if status >= 400 or not isinstance(document, dict):
            self.counters["proxy_errors"] += 1
            return
        job.replica = target.name
        job.replica_job_id = str(document.get("job_id", ""))
        self.counters["rerouted_jobs"] += 1
        target.routed += 1
        self._observe(job, document, target)
        if not job.terminal:
            target.inflight += 1

class RouterServer(BaseHttpServer):
    """HTTP shell of the router — same routes, same wire, fleet behind."""

    def __init__(
        self,
        router: RouterService,
        host: str = "127.0.0.1",
        port: int = 8347,
        request_timeout: float = 30.0,
    ) -> None:
        super().__init__(
            router, host=host, port=port, request_timeout=request_timeout
        )
        self.router = router
