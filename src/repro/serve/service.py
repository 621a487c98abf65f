"""The mapping service: queue, store and engine glued together.

:class:`MappingService` is the transport-free core of ``repro serve`` —
the HTTP server (:mod:`repro.serve.server`) is a thin routing shell over
it, and the tests drive it directly.  One service owns:

* a :class:`~repro.serve.queue.JobQueue` of pending submissions,
* a :class:`~repro.serve.store.ResultStore` memoizing finished results
  by canonical cache key (in-memory LRU + the engine's on-disk cache),
* one :class:`~repro.engine.MappingEngine` whose persistent worker pool
  and warm state survive across requests, driven from a single
  dispatcher thread so the event loop never blocks on a solve.

**Dispatch when idle.**  The dispatcher keeps one engine batch in flight
and asks the queue for the next one only after it finished, so the
engine is idle whenever a batch is collected.  A batch is therefore just
the backlog (up to ``max_batch`` tickets, priority order): a lone request
ships at once and pays one thread hop over its solve, while requests
that arrive during a running batch ride together in the next one.  No
timer ever holds a ticket back.

Deduplication happens at two levels: an identical submission arriving
while its twin is queued or running attaches to the same ticket
(**in-flight dedupe** — one solve, many answers), and identical jobs
inside one batch are coalesced by the engine itself.  Results are
fingerprint-identical to the equivalent ``repro map``/``repro batch``
run because every path funnels into the same ``execute_payload``.

Everything except ``engine.run`` happens on the owning event loop, so
the service needs no locks; ``engine.run`` executes on a dedicated
single worker thread and touches no service state.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..bench.artifacts import latency_percentiles, serve_artifact
from ..core.objective import CostWeights
from ..engine import MappingEngine, MappingJob
from ..engine.jobs import payload_cache_key
from ..ilp import BACKENDS, resolve_backend
from ..ilp.errors import ModelError
from ..io.serialize import SerializationError, board_from_dict, design_from_dict
from ..io.serve import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_EXPIRED,
    STATE_QUEUED,
    STATE_RUNNING,
    HealthReport,
    JobStatus,
    JobSubmission,
)
from .protocol import HttpError
from .queue import JobQueue, QueuedTicket
from .store import TIER_MEMORY, ResultStore

__all__ = ["ServeError", "MappingService"]

#: Finished job records (and their result documents) retained for client
#: pickup; the oldest fall off first.
DEFAULT_RECORD_ENTRIES = 1024

#: Per-job latency records kept for the serve artifact's percentiles.
_METRICS_WINDOW = 4096

#: Solver options only the program sets (warm starts, retry fixings, the
#: portfolio's cancellation hook); a submission may not carry them.
_PROGRAM_OPTIONS = frozenset({"context", "warm_start", "fix_zero", "stop_check"})

#: ``/healthz`` latency stages: record field of each stage, and whether
#: cache hits (answered without a solve) count towards it.
_LATENCY_STAGES = (
    ("queue", "queue_ms", False),
    ("engine", "engine_ms", False),
    ("solve", "solve_ms", False),
    ("end_to_end", "latency_ms", True),
)


class ServeError(HttpError):
    """A submission the service refuses (bad board/design/solver/mode)."""

    def __init__(self, message: str) -> None:
        super().__init__(400, message, code="BAD_REQUEST")


def _elapsed_ms(start: Optional[float], end: Optional[float]) -> Optional[float]:
    if start is None or end is None:
        return None
    return (end - start) * 1000.0


def _document_gap(document: Optional[Dict[str, Any]]) -> Optional[float]:
    """Certified gap of a fast-mode result document (``None`` otherwise)."""
    if not document:
        return None
    stats = document.get("solve_stats") or {}
    if not isinstance(stats, dict) or stats.get("mode") != "fast":
        return None
    gap = stats.get("gap")
    if isinstance(gap, (int, float)) and math.isfinite(gap):
        return float(gap)
    return None


class MappingService:
    """Accepts mapping submissions and serves batched, memoized results."""

    def __init__(
        self,
        jobs: int = 1,
        max_batch: int = 4,
        cache_dir: Optional[str] = None,
        memory_entries: int = 256,
        disk_entries: Optional[int] = None,
        record_entries: int = DEFAULT_RECORD_ENTRIES,
        retries: int = 0,
        default_timeout: Optional[float] = None,
        mp_context: Optional[str] = None,
        engine: Optional[MappingEngine] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if engine is None:
            # The dispatcher runs the engine from a worker thread; forking
            # a multi-threaded process is deprecated (3.12+) and unsafe,
            # so parallel serving defaults to spawn-based workers.
            if mp_context is None and jobs > 1:
                mp_context = "spawn"
            engine = MappingEngine(
                jobs=jobs,
                cache_dir=cache_dir,
                retries=retries,
                timeout=default_timeout,
                mp_context=mp_context,
            )
        self.engine = engine
        if self.engine.cache is not None and disk_entries is not None:
            # Bound the on-disk tier: a long-lived server must not grow
            # its result directory forever (put() trims past the bound).
            if disk_entries < 1:
                raise ValueError("disk_entries must be >= 1 (or None)")
            self.engine.cache.max_entries = disk_entries
        self.queue = JobQueue()
        self.max_batch = max_batch
        self.store = ResultStore(memory_entries=memory_entries, disk=engine.cache)
        self.record_entries = max(1, record_entries)

        self._ids = itertools.count(1)
        self._records: Dict[str, JobStatus] = {}
        self._documents: Dict[str, Dict[str, Any]] = {}
        self._finished_order: "OrderedDict[str, None]" = OrderedDict()
        self._ticket_for: Dict[str, QueuedTicket] = {}
        self._inflight: Dict[str, QueuedTicket] = {}

        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "deduped": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "cancelled": 0,
            "expired": 0,
            "batches": 0,
            "result_ok": 0,
            "result_failed": 0,
            "result_error": 0,
            "result_timeout": 0,
            "fast_jobs": 0,
        }
        self.batch_sizes: deque = deque(maxlen=_METRICS_WINDOW)
        self.job_records: deque = deque(maxlen=_METRICS_WINDOW)

        self._dispatcher: Optional[asyncio.Task] = None
        self._engine_thread: Optional[ThreadPoolExecutor] = None
        self._started_at = 0.0
        self._started_monotonic = 0.0

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bring up the dispatcher and the persistent worker pool."""
        if self._dispatcher is not None:
            return
        self._started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.engine.start_persistent()
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatcher"
        )

    async def stop(self) -> None:
        """Finish the in-flight batch, then tear everything down."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._engine_thread is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._engine_thread, self.engine.stop_persistent
            )
            self._engine_thread.shutdown(wait=True)
            self._engine_thread = None

    @property
    def uptime_seconds(self) -> float:
        if not self._started_monotonic:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------- api
    def submit(self, submission: JobSubmission) -> JobStatus:
        """Admit one submission; returns its (possibly already final) status.

        Raises :class:`ServeError` when the submission cannot be turned
        into an executable job (unknown board schema, bad weights,
        unregistered solver) — the HTTP layer maps that to a 400.
        """
        return self._admit_submission(submission, self._build_job(submission))

    def submit_many(self, submissions: List[JobSubmission]) -> List[JobStatus]:
        """Admit a batch atomically: validate *every* submission first.

        Either the whole list is admitted or :class:`ServeError` is
        raised before anything is enqueued — a bad entry mid-list must
        not leave earlier entries running as orphans the client never
        got ids for.
        """
        jobs = [self._build_job(submission) for submission in submissions]
        return [
            self._admit_submission(submission, job)
            for submission, job in zip(submissions, jobs)
        ]

    def _admit_submission(
        self, submission: JobSubmission, job: MappingJob
    ) -> JobStatus:
        payload = job.to_payload()
        if payload.get("timeout") is None:
            payload["timeout"] = self.engine.timeout
        key = payload_cache_key(payload)
        job_id = f"j{next(self._ids):06d}-{key[:8]}"
        now = time.time()
        self.counters["submitted"] += 1
        if submission.mode == "fast":
            self.counters["fast_jobs"] += 1

        status = JobStatus(
            job_id=job_id,
            state=STATE_QUEUED,
            label=job.display_label(),
            priority=submission.priority,
            cache_key=key,
            submitted_at=now,
        )

        document, tier = self.store.lookup(key)
        if document is not None:
            # Served straight from the store: the job never touches the
            # queue.  A disk-tier hit may be work another process finished
            # (a ``repro batch`` run on the shared cache directory).
            if tier == TIER_MEMORY:
                self.counters["memory_hits"] += 1
            else:
                self.counters["disk_hits"] += 1
            status.state = STATE_DONE
            status.cache_hit = True
            status.started_at = now
            status.finished_at = time.time()
            status.result_status = document.get("status", "")
            status.objective = document.get("objective")
            status.gap = _document_gap(document)
            status.fingerprint = document.get("fingerprint")
            status.error = document.get("error", "")
            self._records[job_id] = status
            self._documents[job_id] = document
            self._note_finished(job_id, status, document)
            return status

        ticket = self._inflight.get(key)
        if ticket is not None and not ticket.cancelled:
            # In-flight dedupe: ride the identical job already underway.
            ticket.followers.append(job_id)
            self.counters["deduped"] += 1
            status.deduped = True
            status.state = STATE_RUNNING if ticket.running else STATE_QUEUED
            if ticket.running:
                status.started_at = now
            else:
                # The follower's own serving metadata still counts: a
                # higher priority promotes the shared solve, and its own
                # queue deadline is tracked per follower.
                if submission.priority > ticket.priority and self.queue.reprioritize(
                    ticket.job_id, submission.priority
                ):
                    primary = self._records.get(ticket.job_id)
                    if primary is not None and not primary.terminal:
                        primary.priority = submission.priority
                if submission.deadline_ms is not None:
                    ticket.follower_deadlines[job_id] = (
                        time.monotonic() + submission.deadline_ms / 1000.0
                    )
            self._ticket_for[job_id] = ticket
            self._records[job_id] = status
            return status

        deadline_at = None
        if submission.deadline_ms is not None:
            deadline_at = time.monotonic() + submission.deadline_ms / 1000.0
        ticket = QueuedTicket(
            job_id=job_id,
            mapping_job=job,
            cache_key=key,
            priority=submission.priority,
            deadline_at=deadline_at,
        )
        self._inflight[key] = ticket
        self._ticket_for[job_id] = ticket
        self._records[job_id] = status
        self.queue.put(ticket)
        return status

    def status(self, job_id: str) -> Optional[JobStatus]:
        """Current status of a job, or ``None`` for an unknown id."""
        self._sweep_expired()
        return self._records.get(job_id)

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The finished job's result document (``None`` if unavailable)."""
        document = self._documents.get(job_id)
        if document is not None:
            return document
        record = self._records.get(job_id)
        if record is not None and record.cache_key:
            return self.store.get(record.cache_key)
        return None

    def cancel(self, job_id: str) -> Optional[JobStatus]:
        """Cancel a queued job.

        Returns the updated status; ``None`` for an unknown id.  A job
        already running (or finished) is *not* cancelled — the caller
        sees its unchanged, non-cancelled status and can tell from
        ``state``.  Cancelling one deduped follower leaves its siblings
        (and the shared solve) untouched.
        """
        record = self._records.get(job_id)
        if record is None:
            return None
        if record.terminal or record.state == STATE_RUNNING:
            return record
        ticket = self._ticket_for.get(job_id)
        if ticket is None or ticket.running:
            return record
        if ticket.job_id == job_id and not ticket.followers:
            ticket.cancelled = True
            self.queue.cancel(job_id)
            if self._inflight.get(ticket.cache_key) is ticket:
                del self._inflight[ticket.cache_key]
        elif ticket.job_id == job_id:
            # The primary leaves but followers still want the result: the
            # ticket keeps solving, only this record is released.
            pass
        else:
            try:
                ticket.followers.remove(job_id)
            except ValueError:
                pass
            ticket.follower_deadlines.pop(job_id, None)
        self.counters["cancelled"] += 1
        record.state = STATE_CANCELLED
        record.finished_at = time.time()
        self._note_finished(job_id, record, None)
        return record

    def health_report(self) -> HealthReport:
        """Typed liveness/diagnostics report of the ``/healthz`` endpoint."""
        self._sweep_expired()
        sizes = list(self.batch_sizes)
        return HealthReport(
            status="ok",
            role="service",
            uptime_seconds=self.uptime_seconds,
            queue_depth=self.queue.depth,
            inflight=len(self._inflight),
            workers=self.engine.jobs,
            counters=dict(self.counters),
            store=self.store.stats(),
            details={
                "mp_context": self.engine.mp_context,
                "max_batch": self.max_batch,
                "batches": {
                    "count": self.counters["batches"],
                    "mean_size": (sum(sizes) / len(sizes)) if sizes else None,
                    "max_size": max(sizes) if sizes else None,
                },
                "latency": self._latency_stages(),
                "records": len(self._records),
            },
        )

    def artifact(self) -> Dict[str, Any]:
        """Throughput/latency artifact document (``BENCH_serve.json``)."""
        return serve_artifact(
            records=list(self.job_records),
            elapsed=self.uptime_seconds,
            jobs=self.engine.jobs,
            max_batch=self.max_batch,
            counters=dict(self.counters),
            batch_sizes=list(self.batch_sizes),
        )

    # ------------------------------------------------------------- internals
    def _latency_stages(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Percentiles (ms) of each serving stage over the ``job_records`` window.

        ``queue`` is submission to dispatch, ``engine`` dispatch to
        finish, ``solve`` the result document's own ``wall_time`` and
        ``end_to_end`` submission to finish.  Cache hits are answered
        without a solve, so they only count end to end.
        """
        records = list(self.job_records)
        return {
            stage: latency_percentiles([
                r[field]
                for r in records
                if r.get(field) is not None and (with_hits or not r["cache_hit"])
            ])
            for stage, field, with_hits in _LATENCY_STAGES
        }

    def _build_job(self, submission: JobSubmission) -> MappingJob:
        try:
            board = board_from_dict(submission.board)
            design = design_from_dict(submission.design)
        except SerializationError as exc:
            raise ServeError(f"bad submission: {exc}") from exc
        try:
            weights = CostWeights(**dict(submission.weights))
        except TypeError as exc:
            raise ServeError(f"bad submission weights: {exc}") from exc
        try:
            name = resolve_backend(submission.solver)
        except ModelError as exc:
            raise ServeError(f"bad submission solver: {exc}") from exc
        backend = BACKENDS[name]
        if not backend.available():
            raise ServeError(
                f"bad submission solver: backend {name!r} is not available "
                "on this server (missing optional dependency)"
            )
        refused = sorted(
            set(submission.solver_options) - (backend.options - _PROGRAM_OPTIONS)
        )
        if refused:
            raise ServeError(
                f"bad submission solver_options: backend {name!r} does not "
                f"take {', '.join(map(repr, refused))}"
            )
        try:
            return MappingJob(
                board=board,
                design=design,
                weights=weights,
                solver=submission.solver,
                solver_options=dict(submission.solver_options),
                capacity_mode=submission.capacity_mode,
                port_estimation=submission.port_estimation,
                warm_start=submission.warm_start,
                warm_retries=submission.warm_retries,
                mode=submission.mode,
                gap_limit=submission.gap_limit,
                label=submission.display_label(),
                timeout=submission.timeout,
            )
        except (TypeError, ValueError) as exc:
            raise ServeError(f"bad submission: {exc}") from exc

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            tickets = await self.queue.get_batch(self.max_batch)
            live = self._admit(tickets)
            if not live:
                continue
            now = time.time()
            for ticket in live:
                ticket.running = True
                for job_id in ticket.job_ids():
                    record = self._records.get(job_id)
                    if record is not None and not record.terminal:
                        record.state = STATE_RUNNING
                        record.started_at = now
            self.counters["batches"] += 1
            self.batch_sizes.append(len(live))
            jobs = [ticket.mapping_job for ticket in live]
            future = loop.run_in_executor(
                self._engine_thread, self.engine.run, jobs
            )
            try:
                results = await asyncio.shield(future)
            except asyncio.CancelledError:
                # Shutdown mid-batch: let the engine finish and record the
                # outcomes so no accepted job is silently dropped — even
                # when the pool died, the jobs must reach a terminal state
                # and stop() must still tear the engine down cleanly.
                try:
                    results = await future
                except Exception as exc:
                    for ticket in live:
                        self._finish_error(ticket, exc)
                else:
                    for ticket, result in zip(live, results):
                        self._finish(ticket, result)
                raise
            except Exception as exc:
                for ticket in live:
                    self._finish_error(ticket, exc)
                continue
            for ticket, result in zip(live, results):
                self._finish(ticket, result)

    def _admit(self, tickets: List[QueuedTicket]) -> List[QueuedTicket]:
        """Filter a popped batch down to tickets that should be solved."""
        live = []
        now = time.monotonic()
        for ticket in tickets:
            if ticket.cancelled:
                # Status bookkeeping already happened at cancel time.  A
                # resubmission of the same job may own the in-flight slot
                # by now — only this ticket's own registration is dropped.
                if self._inflight.get(ticket.cache_key) is ticket:
                    del self._inflight[ticket.cache_key]
                continue
            if self._apply_deadlines(ticket, now):
                continue
            live.append(ticket)
        return live

    def _apply_deadlines(self, ticket: QueuedTicket, now: float) -> bool:
        """Expire the individual jobs on ``ticket`` whose deadlines passed.

        Deadlines are per *job*, not per ticket: the primary's deadline
        expiring must not take down deduped followers that asked to wait
        (and vice versa).  Returns ``True`` when nobody is interested in
        the result any more and the ticket itself was discarded.
        """
        if ticket.running or ticket.cancelled:
            return False
        for job_id, deadline_at in list(ticket.follower_deadlines.items()):
            if now >= deadline_at:
                del ticket.follower_deadlines[job_id]
                if job_id in ticket.followers:
                    ticket.followers.remove(job_id)
                self._expire_record(job_id)
        if ticket.deadline_at is not None and now >= ticket.deadline_at:
            self._expire_record(ticket.job_id)
            # The primary no longer drives the ticket's lifetime; any
            # surviving followers keep the solve alive.
            ticket.deadline_at = None
        for job_id in ticket.job_ids():
            record = self._records.get(job_id)
            if record is not None and not record.terminal:
                return False
        ticket.cancelled = True
        self.queue.cancel(ticket.job_id)
        if self._inflight.get(ticket.cache_key) is ticket:
            del self._inflight[ticket.cache_key]
        return True

    def _expire_record(self, job_id: str) -> None:
        record = self._records.get(job_id)
        if record is None or record.terminal:
            return
        self.counters["expired"] += 1
        record.state = STATE_EXPIRED
        record.finished_at = time.time()
        record.error = "deadline expired before the job was scheduled"
        self._note_finished(job_id, record, None)
        self._ticket_for.pop(job_id, None)

    def _sweep_expired(self) -> None:
        now = time.monotonic()
        for ticket in list(self._inflight.values()):
            self._apply_deadlines(ticket, now)

    def _finish(self, ticket: QueuedTicket, result) -> None:
        document = result.to_dict()
        self.store.put(ticket.cache_key, document)
        if self._inflight.get(ticket.cache_key) is ticket:
            del self._inflight[ticket.cache_key]
        if result.cache_hit:
            self.counters["disk_hits"] += 1
        self.counters[f"result_{result.status}"] = (
            self.counters.get(f"result_{result.status}", 0) + 1
        )
        now = time.time()
        for job_id in ticket.job_ids():
            record = self._records.get(job_id)
            if record is None or record.terminal:
                continue
            record.state = STATE_DONE
            record.finished_at = now
            record.result_status = result.status
            record.objective = result.objective
            record.gap = _document_gap(document)
            record.fingerprint = result.fingerprint
            record.error = result.error
            record.cache_hit = result.cache_hit
            self._documents[job_id] = document
            self._note_finished(job_id, record, document)
            self._ticket_for.pop(job_id, None)

    def _finish_error(self, ticket: QueuedTicket, exc: Exception) -> None:
        if self._inflight.get(ticket.cache_key) is ticket:
            del self._inflight[ticket.cache_key]
        now = time.time()
        self.counters["result_error"] += 1
        for job_id in ticket.job_ids():
            record = self._records.get(job_id)
            if record is None or record.terminal:
                continue
            record.state = STATE_DONE
            record.finished_at = now
            record.result_status = "error"
            record.error = f"{type(exc).__name__}: {exc}"
            self._note_finished(job_id, record, None)
            self._ticket_for.pop(job_id, None)

    def _note_finished(
        self,
        job_id: str,
        record: JobStatus,
        document: Optional[Dict[str, Any]],
    ) -> None:
        """Record metrics for a terminal job and bound the record tables."""
        if record.state == STATE_DONE:
            self.counters["completed"] += 1
            self.job_records.append(
                {
                    "job_id": job_id,
                    "label": record.label,
                    "status": record.result_status,
                    "latency_ms": record.latency_ms,
                    "queue_ms": _elapsed_ms(record.submitted_at, record.started_at),
                    "engine_ms": _elapsed_ms(record.started_at, record.finished_at),
                    "solve_ms": (
                        float(document.get("wall_time", 0.0)) * 1000.0
                        if document
                        else 0.0
                    ),
                    "cache_hit": record.cache_hit,
                    "deduped": record.deduped,
                    "fingerprint": record.fingerprint,
                }
            )
        self._finished_order[job_id] = None
        self._finished_order.move_to_end(job_id)
        while len(self._finished_order) > self.record_entries:
            evicted, _ = self._finished_order.popitem(last=False)
            self._records.pop(evicted, None)
            self._documents.pop(evicted, None)
            self._ticket_for.pop(evicted, None)
