"""Job and result records of the parallel mapping engine.

A :class:`MappingJob` is one unit of work — "map this design onto this
board with these weights and this solver" — expressed entirely in terms of
the versioned JSON schema of :mod:`repro.io.serialize`, so jobs cross
process boundaries as plain dictionaries and their cache keys are content
hashes of exactly what a worker will execute.

A :class:`JobResult` is the structured outcome the engine hands back (and
what ``repro batch --json`` emits): a coarse status, the objective and
assignment, the full mapping-result document, a determinism fingerprint,
and execution metadata (wall time, attempts, cache hit, worker pid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..arch.board import Board
from ..core.objective import CostWeights
from ..design.design import Design
from ..io.serialize import SCHEMA_VERSION, board_to_dict, design_to_dict
from .cache import canonical_hash

__all__ = ["MappingJob", "JobResult", "payload_cache_key",
           "STATUS_OK", "STATUS_FAILED", "STATUS_ERROR", "STATUS_TIMEOUT",
           "MODE_PIPELINE", "MODE_COMPLETE", "MODE_FAST"]

#: Job completed with a valid mapping.
STATUS_OK = "ok"
#: The mapping flow failed deterministically (infeasible model, solver
#: reported failure); retrying cannot help.
STATUS_FAILED = "failed"
#: The job raised an unexpected exception (worker crash, bug) even after
#: the configured retries.
STATUS_ERROR = "error"
#: The job exceeded its wall-clock budget.
STATUS_TIMEOUT = "timeout"

#: Three pipeline flavours the engine can execute: the paper's two-stage
#: global/detailed flow, the flat single-ILP formulation it compares
#: against (used by the Table 3 harness), and the two-stage flow in fast
#: mode (heuristic-first, bound-certified within ``gap_limit``).
MODE_PIPELINE = "pipeline"
MODE_COMPLETE = "complete"
MODE_FAST = "fast"


def _weights_to_dict(weights: CostWeights) -> Dict[str, Any]:
    return {
        "latency": weights.latency,
        "pin_delay": weights.pin_delay,
        "pin_io": weights.pin_io,
        "normalize": weights.normalize,
    }


@dataclass(frozen=True)
class MappingJob:
    """One (board, design, weights) mapping request for the engine."""

    board: Board
    design: Design
    weights: CostWeights = field(default_factory=CostWeights)
    #: Solver backend name (the table of :mod:`repro.ilp.backends`).
    solver: str = "auto"
    solver_options: Mapping[str, Any] = field(default_factory=dict)
    capacity_mode: str = "strict"
    port_estimation: str = "paper"
    #: Seed the ILP incumbent with the greedy heuristic (pipeline mode).
    warm_start: bool = True
    #: Thread a SolveContext through the pipeline's retry loop so retry N
    #: warm-starts from retry N-1 (pipeline mode).
    warm_retries: bool = True
    mode: str = MODE_PIPELINE
    #: Relative optimality-gap contract of fast-mode jobs (``None`` uses
    #: the pipeline default, 0.05).  Part of the cache key: the same
    #: design under a looser contract may legitimately return a different
    #: (cheaper-to-find) mapping.
    gap_limit: Optional[float] = None
    #: Display / artifact label; not part of the cache key.
    label: str = ""
    #: Per-job wall-clock budget in seconds (cooperative: it tightens the
    #: solver's time limit and bounds the engine's wait on the worker).
    timeout: Optional[float] = None
    #: Chained solve state from an adjacent design point — the
    #: :meth:`repro.ilp.SolveContext.chain_dict` of the previous job in a
    #: warm-chained sweep (pipeline mode).  Part of the cache key: a
    #: chained run and a cold run of the same point are different work.
    chain_context: Optional[Mapping[str, Any]] = None
    #: Ship the job's final chain context back in the result so the next
    #: point of a sweep can be chained onto it (pipeline mode; implied
    #: when ``chain_context`` is set).
    export_context: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (MODE_PIPELINE, MODE_COMPLETE, MODE_FAST):
            raise ValueError(f"unknown job mode {self.mode!r}")
        if self.gap_limit is not None and self.gap_limit < 0:
            raise ValueError("gap_limit must be non-negative")

    def display_label(self) -> str:
        return self.label or f"{self.design.name}@{self.board.name}"

    def to_payload(self) -> Dict[str, Any]:
        """Self-contained, picklable work order for a worker process."""
        return {
            "schema_version": SCHEMA_VERSION,
            "board": board_to_dict(self.board),
            "design": design_to_dict(self.design),
            "weights": _weights_to_dict(self.weights),
            "solver": self.solver,
            "solver_options": dict(self.solver_options),
            "capacity_mode": self.capacity_mode,
            "port_estimation": self.port_estimation,
            "warm_start": self.warm_start,
            "warm_retries": self.warm_retries,
            "mode": self.mode,
            "gap_limit": self.gap_limit,
            "timeout": self.timeout,
            "chain_context": (
                None if self.chain_context is None else dict(self.chain_context)
            ),
            "export_context": bool(self.export_context),
        }

    def cache_key(self) -> str:
        """Content hash of everything that determines the job's result.

        The label is excluded (pure presentation).  The timeout is *not*:
        it tightens the solver's time limit at execution, so a run censored
        by a 1-second budget may carry a suboptimal incumbent that must
        never be served to a rerun with a larger budget.
        """
        return payload_cache_key(self.to_payload())


def payload_cache_key(payload: Mapping[str, Any]) -> str:
    """Cache key of an executable payload (the engine hashes the payload it
    actually ships, after applying its own default timeout)."""
    return canonical_hash(payload)


@dataclass
class JobResult:
    """Structured outcome of one engine job."""

    index: int
    label: str
    status: str
    objective: Optional[float] = None
    solver_status: str = ""
    #: ``structure name -> bank type name`` of the global stage.
    assignment: Dict[str, str] = field(default_factory=dict)
    #: Full mapping-result document (:func:`repro.io.mapping_result_to_dict`)
    #: for pipeline jobs; a reduced document for complete-formulation jobs.
    result: Optional[Dict[str, Any]] = None
    #: Hash of ``result`` with timing fields stripped; equal fingerprints
    #: mean byte-identical mappings regardless of worker count.
    fingerprint: Optional[str] = None
    model_size: Dict[str, int] = field(default_factory=dict)
    #: aggregated solver statistics of the job's mapping flow (LP solves,
    #: nodes, presolve reductions); excluded from the fingerprint.
    solve_stats: Dict[str, Any] = field(default_factory=dict)
    #: the job's final chain context (when it was asked to export one);
    #: what the next design point of a warm-chained sweep consumes.
    #: Excluded from the fingerprint, like the other solver-effort state.
    chain_context: Optional[Dict[str, Any]] = None
    error: str = ""
    wall_time: float = 0.0
    attempts: int = 1
    cache_hit: bool = False
    #: This job shared a batch with an identical sibling (same cache key)
    #: and was answered from the sibling's solve instead of its own.
    deduped: bool = False
    worker_pid: int = 0
    cache_key: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "job_result",
            "schema_version": SCHEMA_VERSION,
            "index": self.index,
            "label": self.label,
            "status": self.status,
            "objective": self.objective,
            "solver_status": self.solver_status,
            "assignment": dict(self.assignment),
            "result": self.result,
            "fingerprint": self.fingerprint,
            "model_size": dict(self.model_size),
            "solve_stats": dict(self.solve_stats),
            "chain_context": self.chain_context,
            "error": self.error,
            "wall_time": self.wall_time,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "deduped": self.deduped,
            "worker_pid": self.worker_pid,
            "cache_key": self.cache_key,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobResult":
        return cls(
            index=int(data.get("index", 0)),
            label=data.get("label", ""),
            status=data.get("status", STATUS_ERROR),
            objective=data.get("objective"),
            solver_status=data.get("solver_status", ""),
            assignment=dict(data.get("assignment", {})),
            result=data.get("result"),
            fingerprint=data.get("fingerprint"),
            model_size=dict(data.get("model_size", {})),
            solve_stats=dict(data.get("solve_stats") or {}),
            chain_context=data.get("chain_context"),
            error=data.get("error", ""),
            wall_time=float(data.get("wall_time", 0.0)),
            attempts=int(data.get("attempts", 1)),
            cache_hit=bool(data.get("cache_hit", False)),
            deduped=bool(data.get("deduped", False)),
            worker_pid=int(data.get("worker_pid", 0)),
            cache_key=data.get("cache_key", ""),
        )
