"""The versioned wire API (v1) of the mapping serve tier.

Everything that crosses the wire between clients and ``repro serve``
speaks one schema: each document is a JSON object carrying its
``kind`` and an explicit wire version ``"v": 1``.  The three document
types are typed dataclasses with a single serialisation pair each —
``to_wire()`` produces the JSON-compatible dict, ``from_wire()`` rebuilds
the object:

* :class:`JobSubmission` — one mapping request (board, design, solver
  configuration, serving metadata),
* :class:`JobStatus` — where a served job currently is,
* :class:`HealthReport` — the ``/healthz`` document of the service.

Versioning rules (see CONTRIBUTING, "Evolving the wire schema"):

* every document carries ``"v"``; a request missing it or claiming a
  version this library does not support raises
  :class:`WireVersionError`, which the HTTP layer answers with a
  *structured* 400 listing ``supported_versions`` — never a crash;
* readers are **unknown-field tolerant**: fields a peer added in a later
  minor revision are ignored, so the schema can grow additively without
  breaking older binaries.

The finished **result** document is the exact
:class:`repro.engine.jobs.JobResult` document the batch CLI emits
(stamped with ``"v"`` by the HTTP layer), so a served mapping and a
locally-run one compare field by field — most importantly by fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from .serialize import (
    SerializationError,
    _require,
    board_to_dict,
    design_to_dict,
)

__all__ = [
    "WIRE_VERSION",
    "SUPPORTED_WIRE_VERSIONS",
    "WireVersionError",
    "check_wire_version",
    "JOB_STATES",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "STATE_DONE",
    "STATE_CANCELLED",
    "STATE_EXPIRED",
    "JobSubmission",
    "JobStatus",
    "HealthReport",
]

#: The wire-schema version this library speaks and emits.
WIRE_VERSION = 1

#: Every version this library can read.  Additive (minor) evolution keeps
#: this a single entry; a breaking change appends a new version and keeps
#: reading the old ones for a deprecation window.
SUPPORTED_WIRE_VERSIONS: Tuple[int, ...] = (1,)

#: Lifecycle states of a served job.  ``done`` is terminal in every case;
#: the engine-level outcome (``ok``/``failed``/``error``/``timeout``) then
#: lives in :attr:`JobStatus.result_status`.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_CANCELLED = "cancelled"
STATE_EXPIRED = "expired"
JOB_STATES = (
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_DONE,
    STATE_CANCELLED,
    STATE_EXPIRED,
)

#: States a job can never leave.
TERMINAL_STATES = (STATE_DONE, STATE_CANCELLED, STATE_EXPIRED)


class WireVersionError(SerializationError):
    """A document missing the wire version or claiming an unsupported one.

    The HTTP layer turns this into a structured 400 carrying
    :attr:`supported_versions`, so an older server facing a future client
    degrades into an actionable error instead of a crash or a silent
    misread.
    """

    def __init__(self, message: str, got: Optional[Any] = None) -> None:
        super().__init__(message)
        self.got = got
        self.supported_versions: Tuple[int, ...] = SUPPORTED_WIRE_VERSIONS


def check_wire_version(data: Mapping[str, Any], context: str) -> None:
    """Validate the ``"v"`` field of an incoming wire document."""
    if "v" not in data:
        raise WireVersionError(
            f"{context}: document carries no wire version "
            f"(expected \"v\" in {list(SUPPORTED_WIRE_VERSIONS)})"
        )
    version = data["v"]
    if not isinstance(version, int) or isinstance(version, bool) \
            or version not in SUPPORTED_WIRE_VERSIONS:
        raise WireVersionError(
            f"{context}: unsupported wire version {version!r} "
            f"(supported: {list(SUPPORTED_WIRE_VERSIONS)})",
            got=version,
        )


def _check_wire(data: Any, kind: str) -> None:
    """Shared preamble of every ``from_wire``: shape, version, kind."""
    if not isinstance(data, Mapping):
        raise SerializationError(
            f"{kind}: expected a JSON object, got {type(data).__name__}"
        )
    # Version first: a future-version document of *any* kind must surface
    # as the structured version error, not as a kind mismatch.
    check_wire_version(data, kind)
    got = data.get("kind")
    if got != kind:
        raise SerializationError(
            f"expected a {kind!r} document, got kind={got!r}"
        )


def _number(data: Mapping[str, Any], key: str, cast, default, context: str):
    value = data.get(key, default)
    if value is None or value is default:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise SerializationError(f"{context}: field {key!r} must be a number, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class JobSubmission:
    """One mapping request as a client hands it to the serve tier.

    The board and design travel as their serialised documents (see
    :func:`repro.io.board_to_dict` / :func:`repro.io.design_to_dict`), so a
    submission is self-contained JSON end to end and its canonical hash is
    exactly the engine's cache key for the equivalent
    :class:`~repro.engine.jobs.MappingJob`.
    """

    board: Mapping[str, Any]
    design: Mapping[str, Any]
    weights: Mapping[str, Any] = field(
        default_factory=lambda: {
            "latency": 1.0,
            "pin_delay": 1.0,
            "pin_io": 1.0,
            "normalize": True,
        }
    )
    solver: str = "auto"
    solver_options: Mapping[str, Any] = field(default_factory=dict)
    capacity_mode: str = "strict"
    port_estimation: str = "paper"
    warm_start: bool = True
    warm_retries: bool = True
    mode: str = "pipeline"
    #: Relative optimality-gap contract of fast-mode jobs (``None`` keeps
    #: the pipeline default, 0.05).  Ignored outside ``mode="fast"``.
    gap_limit: Optional[float] = None
    label: str = ""
    #: Per-job wall-clock budget in seconds (tightens the solver limit).
    timeout: Optional[float] = None
    #: Queue priority; higher runs earlier.  Ties keep submission order.
    priority: int = 0
    #: Milliseconds the job may wait in the queue before the service gives
    #: up and reports it ``expired`` instead of solving it late.
    deadline_ms: Optional[float] = None

    @classmethod
    def from_objects(cls, board, design, **kwargs) -> "JobSubmission":
        """Build a submission from live ``Board``/``Design`` objects."""
        return cls(
            board=board_to_dict(board), design=design_to_dict(design), **kwargs
        )

    def display_label(self) -> str:
        if self.label:
            return self.label
        board = self.board.get("name", "?") if isinstance(self.board, Mapping) else "?"
        design = (
            self.design.get("name", "?") if isinstance(self.design, Mapping) else "?"
        )
        return f"{design}@{board}"

    # ------------------------------------------------------------------ wire
    def to_wire(self) -> Dict[str, Any]:
        """Serialise into the v1 wire document."""
        return {
            "kind": "job_submission",
            "v": WIRE_VERSION,
            "board": dict(self.board),
            "design": dict(self.design),
            "weights": dict(self.weights),
            "solver": self.solver,
            "solver_options": dict(self.solver_options),
            "capacity_mode": self.capacity_mode,
            "port_estimation": self.port_estimation,
            "warm_start": self.warm_start,
            "warm_retries": self.warm_retries,
            "mode": self.mode,
            "gap_limit": self.gap_limit,
            "label": self.label,
            "timeout": self.timeout,
            "priority": self.priority,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_wire(cls, data: Any) -> "JobSubmission":
        """Rebuild a submission from its wire document.

        Any malformed shape — a non-object document, a non-numeric
        priority, a string where a board document belongs — raises
        :class:`SerializationError`, which the HTTP layer reports as a
        400: client garbage must never read as a server bug.  Unknown
        fields are ignored (forward compatibility).
        """
        _check_wire(data, "job_submission")
        board = _require(data, "board", "job_submission")
        design = _require(data, "design", "job_submission")
        if not isinstance(board, Mapping) or not isinstance(design, Mapping):
            raise SerializationError(
                "job_submission: board and design must be serialised documents"
            )
        weights = data.get("weights") or {
            "latency": 1.0, "pin_delay": 1.0, "pin_io": 1.0, "normalize": True
        }
        solver_options = data.get("solver_options") or {}
        if not isinstance(weights, Mapping) or not isinstance(solver_options, Mapping):
            raise SerializationError(
                "job_submission: weights and solver_options must be objects"
            )
        mode = data.get("mode", "pipeline")
        if mode not in ("pipeline", "complete", "fast"):
            raise SerializationError(f"job_submission: unknown mode {mode!r}")
        gap_limit = _number(data, "gap_limit", float, None, "job_submission")
        if gap_limit is not None and gap_limit < 0:
            raise SerializationError("job_submission: gap_limit must be >= 0")
        return cls(
            board=dict(board),
            design=dict(design),
            weights=dict(weights),
            solver=str(data.get("solver", "auto")),
            solver_options=dict(solver_options),
            capacity_mode=str(data.get("capacity_mode", "strict")),
            port_estimation=str(data.get("port_estimation", "paper")),
            warm_start=bool(data.get("warm_start", True)),
            warm_retries=bool(data.get("warm_retries", True)),
            mode=mode,
            gap_limit=gap_limit,
            label=str(data.get("label", "")),
            timeout=_number(data, "timeout", float, None, "job_submission"),
            priority=_number(data, "priority", int, 0, "job_submission") or 0,
            deadline_ms=_number(data, "deadline_ms", float, None, "job_submission"),
        )


@dataclass
class JobStatus:
    """Where one served job currently is, as reported by the serve tier."""

    job_id: str
    state: str
    label: str = ""
    priority: int = 0
    #: Canonical input hash of the underlying mapping job (the engine's
    #: cache key); equal keys mean the serve tier solved them once.
    cache_key: str = ""
    #: The submission attached to an identical job already in flight
    #: instead of enqueueing a duplicate solve.
    deduped: bool = False
    #: The result came straight from the in-memory or on-disk store.
    cache_hit: bool = False
    #: Unix timestamps (seconds); ``None`` until the phase is reached.
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Engine-level outcome once ``state == "done"``:
    #: ``ok``/``failed``/``error``/``timeout``.
    result_status: str = ""
    objective: Optional[float] = None
    #: Certified optimality gap of a fast-mode result (``objective``
    #: versus the solver's lower bound); ``None`` for exact jobs.
    gap: Optional[float] = None
    fingerprint: Optional[str] = None
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_ms(self) -> Optional[float]:
        """Submission-to-finish latency in milliseconds, once finished."""
        if self.finished_at is None:
            return None
        return (self.finished_at - self.submitted_at) * 1000.0

    # ------------------------------------------------------------------ wire
    def to_wire(self) -> Dict[str, Any]:
        """Serialise into the v1 wire document."""
        return {
            "kind": "job_status",
            "v": WIRE_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "label": self.label,
            "priority": self.priority,
            "cache_key": self.cache_key,
            "deduped": self.deduped,
            "cache_hit": self.cache_hit,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result_status": self.result_status,
            "objective": self.objective,
            "gap": self.gap,
            "fingerprint": self.fingerprint,
            "error": self.error,
            "latency_ms": self.latency_ms,
        }

    @classmethod
    def from_wire(cls, data: Any) -> "JobStatus":
        """Rebuild a status from its wire document (unknown fields ignored)."""
        _check_wire(data, "job_status")
        state = _require(data, "state", "job_status")
        if state not in JOB_STATES:
            raise SerializationError(f"job_status: unknown state {state!r}")
        started = data.get("started_at")
        finished = data.get("finished_at")
        objective = data.get("objective")
        gap = data.get("gap")
        return cls(
            job_id=str(_require(data, "job_id", "job_status")),
            state=state,
            label=str(data.get("label", "")),
            priority=int(data.get("priority", 0)),
            cache_key=str(data.get("cache_key", "")),
            deduped=bool(data.get("deduped", False)),
            cache_hit=bool(data.get("cache_hit", False)),
            submitted_at=float(data.get("submitted_at", 0.0)),
            started_at=None if started is None else float(started),
            finished_at=None if finished is None else float(finished),
            result_status=str(data.get("result_status", "")),
            objective=None if objective is None else float(objective),
            gap=None if gap is None else float(gap),
            fingerprint=data.get("fingerprint"),
            error=str(data.get("error", "")),
        )


@dataclass
class HealthReport:
    """The ``/healthz`` document of the mapping service.

    The service reports its queue/engine state, counters and result-store
    statistics.  Detail that does not need schema stability lives in
    :attr:`details`; unknown top-level fields a newer peer might add are
    preserved in :attr:`extra` (forward compatibility).
    """

    status: str = "ok"
    #: Always ``"service"`` from this library; kept on the wire so a
    #: reader can tell what kind of process answered.
    role: str = "service"
    uptime_seconds: float = 0.0
    queue_depth: int = 0
    inflight: int = 0
    workers: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Result-store statistics (tiers, hits).
    store: Optional[Dict[str, Any]] = None
    #: Diagnostics (batching config, latency percentiles, records).
    details: Dict[str, Any] = field(default_factory=dict)
    #: Unknown top-level wire fields, preserved verbatim.
    extra: Dict[str, Any] = field(default_factory=dict)

    _KNOWN = frozenset({
        "kind", "v", "status", "role", "uptime_seconds", "queue_depth",
        "inflight", "workers", "counters", "store", "details",
    })

    def to_wire(self) -> Dict[str, Any]:
        """Serialise into the v1 wire document."""
        document: Dict[str, Any] = {
            "kind": "health_report",
            "v": WIRE_VERSION,
            "status": self.status,
            "role": self.role,
            "uptime_seconds": self.uptime_seconds,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "workers": self.workers,
            "counters": dict(self.counters),
            "store": self.store,
            "details": dict(self.details),
        }
        document.update(self.extra)
        return document

    @classmethod
    def from_wire(cls, data: Any) -> "HealthReport":
        """Rebuild a report from its wire document (unknown fields kept)."""
        _check_wire(data, "health_report")
        store = data.get("store")
        if store is not None and not isinstance(store, Mapping):
            raise SerializationError("health_report: store must be an object")
        details = data.get("details") or {}
        counters = data.get("counters") or {}
        if not isinstance(details, Mapping) or not isinstance(counters, Mapping):
            raise SerializationError(
                "health_report: counters and details must be objects"
            )
        return cls(
            status=str(data.get("status", "ok")),
            role=str(data.get("role", "service")),
            uptime_seconds=float(data.get("uptime_seconds", 0.0)),
            queue_depth=int(data.get("queue_depth", 0)),
            inflight=int(data.get("inflight", 0)),
            workers=int(data.get("workers", 0)),
            counters=dict(counters),
            store=None if store is None else dict(store),
            details=dict(details),
            extra={k: v for k, v in data.items() if k not in cls._KNOWN},
        )
