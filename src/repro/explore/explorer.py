"""The multi-objective design-space explorer.

:class:`DesignSpaceExplorer` fans a :class:`~repro.explore.grid.ScenarioGrid`
out through the parallel :class:`~repro.engine.MappingEngine` and reduces
the results into Pareto fronts over (mapping objective, LP solves, wall
time).

Execution is *wavefront-parallel over warm chains*: every sweep of the
grid is one chain of adjacent design points, and at step ``k`` the
explorer runs point ``k`` of every chain as one engine batch.  Chains are
warm-chained — each job carries the previous point's
:meth:`~repro.ilp.SolveContext.chain_dict` (incumbent assignment keyed by
name, plus the root basis), so the solver starts from a near-optimal
incumbent instead of from scratch.  Because
the chain structure depends only on the grid, the mapping results are
fingerprint-identical across reruns and worker counts; warm chaining
changes only the solver effort (fewer LP solves), never the mappings.

``warm_chain=False`` (the CLI's ``--cold``) runs the identical grid with
every point solved independently — the baseline the explore artifact's
``total_*`` solver counters (``total_lp_solves`` first among them) are
meant to be compared against.

Two execution modes share that wavefront loop:

* **In-memory** (default): every :class:`ExplorePointResult` is kept and
  returned on :attr:`ExploreResult.points` — right for small grids and
  for tests that poke at full records.
* **Streaming** (``results_path``): each completed wave is appended to a
  JSONL spool and folded into an incremental
  :class:`~repro.explore.pareto.ParetoAccumulator`; only a small
  :class:`PointSummary` per point stays in memory, so a :math:`10^5`-point
  grid runs in bounded space.  With ``checkpoint_path`` set the explorer
  additionally records, after every wave, how far each chain has
  progressed (plus the warm-chain contexts), making an interrupted sweep
  resumable at chain/step granularity.  A resumed — or even re-replayed —
  run reproduces the exact fingerprint of an uninterrupted one, because
  the fingerprint depends only on the per-point outcomes in chain order,
  never on how the waves were batched or restarted.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.objective import CostWeights
from ..engine import MappingEngine, MappingJob
from ..engine.cache import canonical_hash
from ..engine.jobs import JobResult, _weights_to_dict
from ..ilp import add_counters, sum_counters
from .grid import ScenarioGrid
from .pareto import ParetoAccumulator, pareto_indices
from .scenarios import ExploreError, ScenarioPoint

__all__ = [
    "CheckpointError",
    "ExplorePointResult",
    "PointSummary",
    "ExploreResult",
    "DesignSpaceExplorer",
]


class CheckpointError(ExploreError):
    """A checkpoint/spool pair cannot be resumed safely."""


#: Current layout version of the checkpoint document.
_CHECKPOINT_VERSION = 1


@dataclass
class ExplorePointResult:
    """Outcome of one scenario point of an exploration run."""

    label: str
    family: str
    params: Dict[str, Any]
    chain: int
    step: int
    status: str
    objective: Optional[float] = None
    wall_time: float = 0.0
    fingerprint: Optional[str] = None
    cache_hit: bool = False
    error: str = ""
    solve_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def lp_solves(self) -> int:
        return int(self.solve_stats.get("lp_solves") or 0)

    @property
    def nodes_explored(self) -> int:
        return int(self.solve_stats.get("nodes_explored") or 0)

    @property
    def retries(self) -> int:
        return int(self.solve_stats.get("retries") or 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "family": self.family,
            "params": dict(self.params),
            "chain": self.chain,
            "step": self.step,
            "status": self.status,
            "objective": self.objective,
            "wall_time": self.wall_time,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "solve_stats": dict(self.solve_stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExplorePointResult":
        """Inverse of :meth:`to_dict` (spool replay on resume).

        Older spool rows also carry some counters as top-level keys; they
        were copies of ``solve_stats`` and are ignored.
        """
        return cls(
            label=data["label"],
            family=data["family"],
            params=dict(data.get("params") or {}),
            chain=int(data["chain"]),
            step=int(data["step"]),
            status=data["status"],
            objective=data.get("objective"),
            wall_time=float(data.get("wall_time") or 0.0),
            fingerprint=data.get("fingerprint"),
            cache_hit=bool(data.get("cache_hit")),
            error=data.get("error") or "",
            solve_stats=dict(data.get("solve_stats") or {}),
        )


@dataclass
class PointSummary:
    """The per-point slice a streamed run keeps in memory.

    Exactly the fields the report tables and the run fingerprint need —
    the full record (params, solver statistics, error text) lives only
    in the JSONL spool.
    """

    label: str
    chain: int
    step: int
    status: str
    objective: Optional[float]
    wall_time: float
    lp_solves: int
    nodes_explored: int
    cache_hit: bool
    fingerprint: Optional[str]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_point(cls, point: ExplorePointResult) -> "PointSummary":
        return cls(
            label=point.label,
            chain=point.chain,
            step=point.step,
            status=point.status,
            objective=point.objective,
            wall_time=point.wall_time,
            lp_solves=point.lp_solves,
            nodes_explored=point.nodes_explored,
            cache_hit=point.cache_hit,
            fingerprint=point.fingerprint,
        )


@dataclass
class ExploreResult:
    """Everything one exploration run produced.

    A streamed run (``streamed=True``) carries :attr:`summaries`,
    :attr:`totals` and the precomputed Pareto fronts instead of full
    :attr:`points` records; the records themselves live in the JSONL
    file at :attr:`results_path`.  Every reduction below works
    identically in both modes — in particular :meth:`fingerprint`
    hashes the same document either way.
    """

    grid: ScenarioGrid
    points: List[ExplorePointResult]
    chains: List[List[str]]
    jobs: int
    solver: str
    warm_chain: bool
    elapsed: float
    cache_stats: Optional[Dict[str, int]] = None
    streamed: bool = False
    results_path: Optional[str] = None
    summaries: Optional[List[PointSummary]] = None
    totals: Optional[Dict[str, Any]] = None
    pareto: Optional[List[ExplorePointResult]] = None
    pareto_timed: Optional[List[ExplorePointResult]] = None

    # ------------------------------------------------------------- reductions
    def point_summaries(self) -> List[PointSummary]:
        """Chain-major per-point summaries (both execution modes)."""
        if self.summaries is not None:
            return self.summaries
        return [PointSummary.from_point(point) for point in self.points]

    @property
    def num_points(self) -> int:
        return len(self.point_summaries())

    @property
    def ok_points(self) -> List[ExplorePointResult]:
        return [point for point in self.points if point.ok]

    @property
    def num_ok(self) -> int:
        return sum(1 for summary in self.point_summaries() if summary.ok)

    @property
    def num_failed(self) -> int:
        return self.num_points - self.num_ok

    @property
    def num_cache_hits(self) -> int:
        return sum(1 for summary in self.point_summaries() if summary.cache_hit)

    def serial_seconds(self) -> float:
        """Sum of in-worker wall times, excluding cache hits."""
        return sum(
            summary.wall_time
            for summary in self.point_summaries()
            if not summary.cache_hit
        )

    def counter_totals(self) -> Dict[str, Any]:
        """Solver counters summed over every point, with objective and wall time."""
        if self.totals is not None:
            return self.totals
        totals = _new_totals()
        for point in self.points:
            _add_point(totals, point)
        return totals

    def total(self, key: str) -> float:
        return float(self.counter_totals().get(key, 0))

    def pareto_front(self) -> List[ExplorePointResult]:
        """Non-dominated points over (objective, LP solves) — deterministic."""
        if self.pareto is not None:
            return self.pareto
        candidates = self.ok_points
        vectors = [(p.objective, float(p.lp_solves)) for p in candidates]
        return [candidates[i] for i in pareto_indices(vectors)]

    def pareto_front_timed(self) -> List[ExplorePointResult]:
        """Front over (objective, LP solves, wall time).

        Wall time is machine- and load-dependent, so this front is
        reported for human consumption but kept out of the run
        fingerprint.
        """
        if self.pareto_timed is not None:
            return self.pareto_timed
        candidates = self.ok_points
        vectors = [(p.objective, float(p.lp_solves), p.wall_time) for p in candidates]
        return [candidates[i] for i in pareto_indices(vectors)]

    def fingerprint(self) -> str:
        """Deterministic content hash of the exploration outcome.

        Covers the grid, the solver, per-point mappings and solver-work
        counts, and the deterministic Pareto front; excludes wall times
        and cache incidentals.  Equal fingerprints mean the run explored
        the same space and found the same mappings with the same effort.
        The document depends only on per-point outcomes in chain order,
        so streamed, checkpoint-resumed and in-memory runs of the same
        grid all hash identically.
        """
        document = {
            "kind": "explore_fingerprint",
            "grid": self.grid.to_dict(),
            "solver": self.solver,
            "warm_chain": self.warm_chain,
            "points": [
                {
                    "label": summary.label,
                    "status": summary.status,
                    "fingerprint": summary.fingerprint,
                    "objective": summary.objective,
                    "lp_solves": summary.lp_solves,
                }
                for summary in self.point_summaries()
            ],
            "pareto_front": [point.label for point in self.pareto_front()],
        }
        return canonical_hash(document)


def _new_totals() -> Dict[str, Any]:
    return {**sum_counters(()), "objective": 0.0, "wall_time": 0.0}


def _add_point(totals: Dict[str, Any], point: ExplorePointResult) -> None:
    add_counters(totals, point.solve_stats)
    totals["wall_time"] += point.wall_time
    # Failed points carry objective=None and add nothing to the total.
    if point.objective is not None:
        totals["objective"] += point.objective


class _StreamState:
    """Per-wave fold of a streaming run: summaries, totals, fronts."""

    def __init__(self, lengths: List[int]) -> None:
        self.summaries: List[List[Optional[PointSummary]]] = [
            [None] * length for length in lengths
        ]
        self.totals = _new_totals()
        self.front: ParetoAccumulator[ExplorePointResult] = ParetoAccumulator()
        self.front_timed: ParetoAccumulator[ExplorePointResult] = ParetoAccumulator()

    def add(self, record: ExplorePointResult) -> None:
        self.summaries[record.chain][record.step] = PointSummary.from_point(record)
        _add_point(self.totals, record)
        if record.ok:
            # (chain, step) as the order key restores chain-major front
            # order no matter when the point streamed in.
            order = (record.chain, record.step)
            self.front.add(
                (record.objective, float(record.lp_solves)), record, order_key=order
            )
            self.front_timed.add(
                (record.objective, float(record.lp_solves), record.wall_time),
                record,
                order_key=order,
            )

    def flat_summaries(self) -> List[PointSummary]:
        out: List[PointSummary] = []
        for chain in self.summaries:
            for summary in chain:
                if summary is None:
                    raise ExploreError(
                        "internal error: streaming run finished with holes"
                    )
                out.append(summary)
        return out


class DesignSpaceExplorer:
    """Runs a scenario grid through the engine and reduces the results.

    Parameters
    ----------
    grid:
        The scenario grid to explore (one warm chain per sweep).
    jobs:
        Worker processes; chains run concurrently, points within a chain
        sequentially (they feed each other's warm starts).
    solver:
        ILP backend *name*.  Defaults to ``"auto"`` (the built-in
        branch-and-bound) rather than ``scipy-milp`` because warm
        chaining needs a context-capable backend.
    weights:
        Objective weights shared by every point.
    warm_chain:
        Chain each point's solve state into the next point of its sweep
        (default).  ``False`` solves every point cold.
    seed:
        Base seed for the scenario builders.
    time_limit:
        Per-point wall-clock budget in seconds.
    cache_dir / retries:
        Forwarded to the :class:`~repro.engine.MappingEngine`.
    results_path:
        Switches to streaming mode: per-point records are appended to
        this JSONL file as their wave completes, and only summaries are
        kept in memory.
    checkpoint_path:
        With ``results_path``: after every wave a small JSON checkpoint
        (per-chain progress plus warm-chain contexts) is written
        atomically here, and an existing compatible checkpoint is
        resumed from instead of restarting the sweep.
    """

    def __init__(
        self,
        grid: ScenarioGrid,
        jobs: int = 1,
        solver: str = "auto",
        weights: Optional[CostWeights] = None,
        warm_chain: bool = True,
        seed: int = 0,
        time_limit: Optional[float] = None,
        cache_dir: Optional[str] = None,
        retries: int = 0,
        results_path: Optional[str] = None,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        self.grid = grid
        self.jobs = max(1, int(jobs))
        self.solver = solver
        self.weights = weights or CostWeights()
        self.warm_chain = warm_chain
        self.seed = seed
        self.time_limit = time_limit
        self.cache_dir = cache_dir
        self.retries = retries
        self.results_path = results_path
        self.checkpoint_path = checkpoint_path
        if checkpoint_path is not None and results_path is None:
            raise ExploreError(
                "checkpointing needs a results spool; set results_path too"
            )

    # ------------------------------------------------------------------ api
    def run(self) -> ExploreResult:
        if self.results_path is not None:
            return self._run_streaming()
        return self._run_batch()

    # -------------------------------------------------------- in-memory mode
    def _run_batch(self) -> ExploreResult:
        chains = self.grid.chains(seed=self.seed)
        labels = self._unique_labels(chains)
        engine = MappingEngine(
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            retries=self.retries,
            timeout=self.time_limit,
        )

        start = time.perf_counter()
        contexts: List[Optional[Dict[str, Any]]] = [None] * len(chains)
        records: Dict[Tuple[int, int], ExplorePointResult] = {}
        depth = max(len(chain) for chain in chains)
        # One worker pool for the whole run: a wavefront issues one small
        # batch per step, which would otherwise respawn workers each time.
        with engine.persistent_pool():
            for step in range(depth):
                wave = [
                    (index, chain[step])
                    for index, chain in enumerate(chains)
                    if step < len(chain)
                ]
                batch = [
                    self._job(point, labels[index][step], contexts[index])
                    for index, point in wave
                ]
                results = engine.run(batch)
                for (index, point), result in zip(wave, results):
                    records[(index, step)] = self._record(
                        point, index, step, result
                    )
                    if self.warm_chain and result.chain_context is not None:
                        contexts[index] = result.chain_context
        elapsed = time.perf_counter() - start

        points = [
            records[(index, step)]
            for index, chain in enumerate(chains)
            for step in range(len(chain))
        ]
        return ExploreResult(
            grid=self.grid,
            points=points,
            chains=labels,
            jobs=self.jobs,
            solver=self.solver,
            warm_chain=self.warm_chain,
            elapsed=elapsed,
            cache_stats=(
                dict(engine.cache.stats()) if engine.cache is not None else None
            ),
        )

    # -------------------------------------------------------- streaming mode
    def _run_streaming(self) -> ExploreResult:
        lengths = self.grid.chain_lengths()
        labels = self._unique_labels(self.grid.iter_chains(seed=self.seed))
        config_key = self._config_key()

        completed = [0] * len(lengths)
        contexts: List[Optional[Dict[str, Any]]] = [None] * len(lengths)
        prior_elapsed = 0.0
        checkpoint = self._load_checkpoint(config_key, lengths)
        if checkpoint is not None:
            completed = [int(n) for n in checkpoint["completed"]]
            contexts = list(checkpoint["contexts"])
            prior_elapsed = float(checkpoint.get("elapsed") or 0.0)

        state = _StreamState(lengths)
        self._restore_spool(completed, state)

        iters = self.grid.iter_chains(seed=self.seed)
        for index, skip in enumerate(completed):
            for _ in range(skip):
                next(iters[index])

        remaining = sum(lengths) - sum(completed)
        done = list(completed)
        cache_stats: Optional[Dict[str, int]] = None
        start = time.perf_counter()
        if remaining:
            engine = MappingEngine(
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                retries=self.retries,
                timeout=self.time_limit,
            )
            with engine.persistent_pool(), open(
                self.results_path, "a", encoding="utf-8"
            ) as spool:
                for step in range(max(lengths)):
                    wave = [
                        (index, next(iters[index]))
                        for index in range(len(lengths))
                        if completed[index] <= step < lengths[index]
                    ]
                    if not wave:
                        continue
                    batch = [
                        self._job(point, labels[index][step], contexts[index])
                        for index, point in wave
                    ]
                    results = engine.run(batch)
                    for (index, point), result in zip(wave, results):
                        record = self._record(point, index, step, result)
                        spool.write(
                            json.dumps(record.to_dict(), sort_keys=True) + "\n"
                        )
                        state.add(record)
                        if self.warm_chain and result.chain_context is not None:
                            contexts[index] = result.chain_context
                        done[index] = step + 1
                    # The spool must be durable *before* the checkpoint
                    # claims the wave happened; a kill between the two
                    # only loses the checkpoint, never spooled rows.
                    spool.flush()
                    if self.checkpoint_path is not None:
                        self._write_checkpoint(
                            config_key,
                            lengths,
                            done,
                            contexts,
                            prior_elapsed + (time.perf_counter() - start),
                        )
            cache_stats = (
                dict(engine.cache.stats()) if engine.cache is not None else None
            )
        elapsed = prior_elapsed + (time.perf_counter() - start)

        return ExploreResult(
            grid=self.grid,
            points=[],
            chains=labels,
            jobs=self.jobs,
            solver=self.solver,
            warm_chain=self.warm_chain,
            elapsed=elapsed,
            cache_stats=cache_stats,
            streamed=True,
            results_path=str(self.results_path),
            summaries=state.flat_summaries(),
            totals=dict(state.totals),
            pareto=state.front.front(),
            pareto_timed=state.front_timed.front(),
        )

    # --------------------------------------------------- checkpoint plumbing
    def _config_key(self) -> str:
        """Hash of everything that shapes per-point outcomes.

        Worker count and paths are deliberately excluded: resuming with a
        different ``--jobs`` is safe (fingerprints never depend on it),
        while resuming under a different grid/solver/seed/weights must be
        refused — it would splice incompatible results into one spool.
        """
        return canonical_hash(
            {
                "kind": "explore_config",
                "grid": self.grid.to_dict(),
                "solver": self.solver,
                "warm_chain": self.warm_chain,
                "seed": self.seed,
                "weights": _weights_to_dict(self.weights),
                "time_limit": self.time_limit,
            }
        )

    def _load_checkpoint(
        self, config_key: str, lengths: List[int]
    ) -> Optional[Dict[str, Any]]:
        if self.checkpoint_path is None or not os.path.exists(self.checkpoint_path):
            return None
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {self.checkpoint_path}: {exc}; "
                "delete it to restart the sweep"
            ) from exc
        if data.get("kind") != "explore_checkpoint":
            raise CheckpointError(
                f"{self.checkpoint_path} is not an explore checkpoint"
            )
        if data.get("version") != _CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} has version "
                f"{data.get('version')}, expected {_CHECKPOINT_VERSION}"
            )
        if data.get("config_key") != config_key:
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} was written by a run with "
                "a different grid/solver/seed/weights configuration; refusing "
                "to resume (delete it to restart)"
            )
        completed = data.get("completed")
        contexts = data.get("contexts")
        if (
            not isinstance(completed, list)
            or not isinstance(contexts, list)
            or len(completed) != len(lengths)
            or len(contexts) != len(lengths)
            or any(not 0 <= int(n) <= lengths[i] for i, n in enumerate(completed))
        ):
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} does not match the grid's "
                "chain layout"
            )
        return data

    def _write_checkpoint(
        self,
        config_key: str,
        lengths: List[int],
        completed: List[int],
        contexts: List[Optional[Dict[str, Any]]],
        elapsed: float,
    ) -> None:
        document = {
            "kind": "explore_checkpoint",
            "version": _CHECKPOINT_VERSION,
            "config_key": config_key,
            "lengths": list(lengths),
            "completed": list(completed),
            "contexts": contexts,
            "elapsed": elapsed,
            "results_path": str(self.results_path),
        }
        tmp = f"{self.checkpoint_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.checkpoint_path)

    def _restore_spool(self, completed: List[int], state: _StreamState) -> None:
        """Rebuild ``state`` from the spool and trim it to the checkpoint.

        Rows beyond the checkpointed progress (a wave that spooled but
        was killed before its checkpoint landed, including a torn final
        line) are dropped and recomputed; a spool *missing* checkpointed
        rows is unrecoverable and refused.
        """
        expected = sum(completed)
        if expected == 0:
            # Fresh start: truncate any stale spool from a previous run.
            with open(self.results_path, "w", encoding="utf-8"):
                pass
            return
        kept: Dict[Tuple[int, int], str] = {}
        try:
            with open(self.results_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                        record = ExplorePointResult.from_dict(data)
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                        # Only a post-checkpoint (usually final, torn)
                        # row may be unparseable; if a checkpointed row
                        # was lost the count check below catches it.
                        continue
                    key = (record.chain, record.step)
                    if (
                        0 <= record.chain < len(completed)
                        and record.step < completed[record.chain]
                        and key not in kept
                    ):
                        kept[key] = line
                        state.add(record)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint expects results spool {self.results_path}, "
                f"which cannot be read: {exc}"
            ) from exc
        if len(kept) != expected:
            raise CheckpointError(
                f"results spool {self.results_path} holds {len(kept)} of the "
                f"{expected} rows the checkpoint recorded; delete the "
                "checkpoint to restart the sweep"
            )
        # Rewrite the spool to exactly the checkpointed rows, in chain-
        # major order, so the file is torn-write-free before appending.
        tmp = f"{self.results_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for key in sorted(kept):
                handle.write(kept[key] + "\n")
        os.replace(tmp, self.results_path)

    # ------------------------------------------------------------- internals
    def _unique_labels(
        self, chains: Iterable[Iterable[ScenarioPoint]]
    ) -> List[List[str]]:
        """Per-chain point labels, deduplicated deterministically."""
        seen: Dict[str, int] = {}
        labels: List[List[str]] = []
        for chain in chains:
            row: List[str] = []
            for point in chain:
                label = point.label()
                count = seen.get(label, 0)
                seen[label] = count + 1
                row.append(label if count == 0 else f"{label}#{count + 1}")
            labels.append(row)
        return labels

    def _job(
        self,
        point: ScenarioPoint,
        label: str,
        context: Optional[Dict[str, Any]],
    ) -> MappingJob:
        design, board = point.build()
        return MappingJob(
            board=board,
            design=design,
            weights=self.weights,
            solver=self.solver,
            label=label,
            timeout=self.time_limit,
            chain_context=context if self.warm_chain else None,
            export_context=self.warm_chain,
        )

    def _record(
        self,
        point: ScenarioPoint,
        chain: int,
        step: int,
        result: JobResult,
    ) -> ExplorePointResult:
        return ExplorePointResult(
            label=result.label,
            family=point.family,
            params=point.resolved_params(),
            chain=chain,
            step=step,
            status=result.status,
            objective=result.objective,
            wall_time=result.wall_time,
            fingerprint=result.fingerprint,
            cache_hit=result.cache_hit,
            error=result.error,
            solve_stats=dict(result.solve_stats),
        )
