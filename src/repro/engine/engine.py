"""The parallel batch-mapping engine.

:class:`MappingEngine` turns a batch of :class:`~repro.engine.jobs.MappingJob`
requests into :class:`~repro.engine.jobs.JobResult` records, executing them

* **in-process** for ``jobs=1`` (no pool overhead, the historical serial
  behaviour), or
* across a ``ProcessPoolExecutor`` for ``jobs>1`` — each worker rebuilds
  the board/design from the job's serialised payload, runs the mapping
  flow and ships a plain-dict result back.

Guarantees the rest of the system builds on:

* **Deterministic ordering** — results come back in submission order, and
  each job's *fingerprint* (timing-stripped content hash) is identical no
  matter how many workers ran the batch, because every job executes the
  same single-job code path either way.
* **Structured failure** — a job that cannot map reports ``failed`` with
  the error message; an unexpected worker exception is retried up to
  ``retries`` times and then reported as ``error``; a job that exceeds its
  wall-clock budget reports ``timeout``.  One bad job never aborts the
  batch: a worker that dies breaks its pool for every job in flight, so
  each of those jobs is re-run alone in a fresh one-worker pool, and only
  a job that breaks its own pool is charged a retry.
* **Result caching** — with a ``cache_dir``, finished jobs are stored under
  their canonical input hash (see :mod:`repro.engine.cache`) and a warm
  rerun of the same sweep is served from disk without touching a solver.

Timeouts are cooperative: the budget tightens the solver's own
``time_limit`` and bounds how long the engine waits on the future; a
worker stuck past the grace period is abandoned (its slot is not reused
for retries) rather than killed mid-write.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from ..ilp import scipy_backend
from .cache import ResultCache, result_fingerprint
from .jobs import (
    MODE_COMPLETE,
    MODE_FAST,
    STATUS_ERROR,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    JobResult,
    MappingJob,
    payload_cache_key,
)

__all__ = ["MappingEngine", "execute_payload"]

#: Extra seconds granted on top of a job's cooperative timeout before the
#: engine stops waiting on its future (covers pool dispatch and model
#: build, which the solver's own limit does not).
_TIMEOUT_GRACE = 30.0

#: How many extra full budget windows a queued-but-never-started future may
#: wait for a pool slot before it is reported as timed out anyway.
_MAX_STARVATION_WAITS = 3


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one mapping job described by a serialised payload.

    Module-level so ``ProcessPoolExecutor`` can import it in workers; also
    called directly for in-process (serial) execution, which is what makes
    serial and parallel runs byte-identical.  Returns a result document;
    deterministic mapping failures are reported in-band as ``failed``
    documents, anything else propagates to the engine's retry logic.
    """
    from ..core.complete_mapper import CompleteMapper
    from ..core.mapping import MappingError
    from ..core.objective import CostWeights
    from ..core.pipeline import MemoryMapper
    from ..io.serialize import (
        board_from_dict,
        design_from_dict,
        global_mapping_to_dict,
        mapping_result_to_dict,
    )

    start = time.perf_counter()
    board = board_from_dict(payload["board"])
    design = design_from_dict(payload["design"])
    weights = CostWeights(**payload["weights"])
    solver_options = dict(payload.get("solver_options") or {})
    timeout = payload.get("timeout")
    if timeout is not None:
        limit = solver_options.get("time_limit")
        solver_options["time_limit"] = (
            float(timeout) if limit is None else min(float(limit), float(timeout))
        )

    document: Dict[str, Any] = {
        "status": STATUS_OK,
        "objective": None,
        "solver_status": "",
        "assignment": {},
        "result": None,
        "model_size": {},
        "solve_stats": {},
        "chain_context": None,
        "error": "",
        "worker_pid": os.getpid(),
    }
    # Warm-chained sweeps (repro.explore) thread name-keyed solve state from
    # one design point into the next; rebuild it here so the chained solve
    # and its export both happen inside the worker.
    context = None
    chain = payload.get("chain_context")
    if payload["mode"] != MODE_COMPLETE and (
        chain is not None or payload.get("export_context")
    ):
        from ..ilp import SolveContext

        context = (
            SolveContext.from_chain_dict(chain) if chain else SolveContext()
        )
    try:
        if payload["mode"] == MODE_COMPLETE:
            mapper = CompleteMapper(
                board,
                weights=weights,
                solver=payload["solver"],
                solver_options=solver_options,
            )
            outcome = mapper.solve(design)
            document["objective"] = outcome.global_mapping.objective
            document["solver_status"] = outcome.solver_status
            document["assignment"] = dict(outcome.global_mapping.assignment)
            document["result"] = global_mapping_to_dict(outcome.global_mapping)
            document["model_size"] = dict(outcome.model_size)
            document["solve_stats"] = dict(outcome.global_mapping.solver_stats)
        else:
            mapper = MemoryMapper(
                board,
                weights=weights,
                solver=payload["solver"],
                solver_options=solver_options,
                capacity_mode=payload.get("capacity_mode", "strict"),
                port_estimation=payload.get("port_estimation", "paper"),
                warm_start=bool(payload.get("warm_start", True)),
                warm_retries=bool(payload.get("warm_retries", True)),
                mode="fast" if payload["mode"] == MODE_FAST else "exact",
                gap_limit=payload.get("gap_limit"),
            )
            result = mapper.map(design, context=context)
            document["objective"] = result.global_mapping.objective
            document["solver_status"] = result.global_mapping.solver_status
            document["assignment"] = dict(result.global_mapping.assignment)
            document["result"] = mapping_result_to_dict(result)
            # A solve memoized the model it ran on; a fast-lane answer
            # built none and reports no size.
            artifacts = mapper.global_mapper.model_if_built(design)
            if artifacts is not None:
                document["model_size"] = {
                    "variables": artifacts.model.num_variables,
                    "constraints": artifacts.model.num_constraints,
                }
            document["solve_stats"] = dict(result.solve_stats)
    except MappingError as exc:
        document["status"] = STATUS_FAILED
        document["error"] = str(exc)

    if context is not None:
        # Exported even on failure: a failed point passes whatever state it
        # inherited (plus any successful intermediate solves) down the chain.
        document["chain_context"] = context.chain_dict()
    document["wall_time"] = time.perf_counter() - start
    document["fingerprint"] = result_fingerprint(document["result"])
    return document


class MappingEngine:
    """Executes batches of mapping jobs, optionally in parallel and cached.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` (default) executes in-process.
    cache_dir:
        Directory of the on-disk result cache; ``None`` disables caching.
    retries:
        How many times an *unexpectedly* failing job (worker crash, bug)
        is re-executed before being reported as ``error``.  Deterministic
        mapping failures are never retried.
    timeout:
        Default per-job wall-clock budget in seconds, applied to jobs that
        do not carry their own.
    mp_context:
        Multiprocessing start-method name for the worker pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform
        default.  The serving layer passes ``"spawn"`` because it runs the
        engine from a thread, where forking is deprecated (Python 3.12+)
        and unsafe.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        retries: int = 0,
        timeout: Optional[float] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if (
            mp_context is not None
            and mp_context not in multiprocessing.get_all_start_methods()
        ):
            raise ValueError(
                f"unknown mp_context {mp_context!r}; this platform supports "
                f"{', '.join(multiprocessing.get_all_start_methods())}"
            )
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.retries = retries
        self.timeout = timeout
        self.mp_context = mp_context
        #: worker pool kept alive across run() calls between
        #: :meth:`start_persistent` and :meth:`stop_persistent`;
        #: ``None`` otherwise.
        self._persistent: Optional[ProcessPoolExecutor] = None
        self._persistent_active = False

    # ------------------------------------------------------------------ api
    def run(self, batch: Sequence[MappingJob]) -> List[JobResult]:
        """Execute ``batch`` and return one result per job, in job order.

        Identical jobs inside one batch (same cache key, i.e. identical
        shipped payload) are **coalesced**: one representative is solved
        and its result is replicated to the duplicates, which come back
        flagged ``deduped``.  The serving layer leans on this — a
        batch of concurrent client requests often contains the same
        mapping more than once — and it is semantically invisible because
        equal payloads produce equal results by construction.
        """
        batch = list(batch)
        results: List[Optional[JobResult]] = [None] * len(batch)
        pending: List[int] = []
        duplicates: Dict[int, int] = {}
        first_for_key: Dict[str, int] = {}

        payloads: List[Dict[str, Any]] = []
        keys: List[str] = []
        for index, job in enumerate(batch):
            payload = job.to_payload()
            if payload.get("timeout") is None:
                payload["timeout"] = self.timeout
            payloads.append(payload)
            # Hash the payload actually shipped (including the effective
            # timeout): a budget-censored result must not alias the key of
            # an unbounded run of the same job.
            key = payload_cache_key(payload)
            keys.append(key)
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                result = self._to_result(index, batch[index], key, cached)
                result.cache_hit = True
                results[index] = result
            elif key in first_for_key:
                duplicates[index] = first_for_key[key]
            else:
                first_for_key[key] = index
                pending.append(index)

        if len(pending) <= 1 or self.jobs == 1:
            if pending:
                # Import SciPy before the first job's clock starts, as the
                # pools do, so that no job's wall time carries it.
                scipy_backend.load()
            for index in pending:
                document = self._execute_with_retries(payloads[index])
                results[index] = self._record(index, batch, keys, document)
        else:
            self._run_pool(batch, payloads, keys, pending, results)

        for index, primary in duplicates.items():
            results[index] = self._replicate(index, batch[index], results[primary])

        return [result for result in results if result is not None]

    def start_persistent(self) -> None:
        """Keep one worker pool alive across subsequent ``run()`` calls.

        The pool is created lazily by the first parallel ``run()`` and
        torn down by :meth:`stop_persistent`.  Long-lived callers (the
        serving layer) use this imperative form; block-scoped callers use
        :meth:`persistent_pool`.
        """
        self._persistent_active = True

    def stop_persistent(self) -> None:
        """Tear down the persistent worker pool (no-op when none is up)."""
        self._persistent_active = False
        if self._persistent is not None:
            self._persistent.shutdown(wait=True)
            self._persistent = None

    @contextmanager
    def persistent_pool(self) -> Iterator["MappingEngine"]:
        """Reuse one worker pool across every ``run()`` call in the block.

        Wavefront callers (the explore subsystem runs one small batch per
        sweep step) would otherwise pay worker spawn + import costs on
        every step.  Outside the block behaviour is unchanged: each
        ``run()`` creates and tears down its own pool.  A pool abandoned
        because of a stuck worker is dropped and replaced on the next
        ``run()``.
        """
        self.start_persistent()
        try:
            yield self
        finally:
            self.stop_persistent()

    # ------------------------------------------------------------- internals
    def _run_pool(
        self,
        batch: Sequence[MappingJob],
        payloads: List[Dict[str, Any]],
        keys: List[str],
        pending: List[int],
        results: List[Optional[JobResult]],
    ) -> None:
        attempts = {index: 1 for index in pending}
        if self._persistent_active:
            # Sized to the engine, not this batch: later waves may be wider.
            size = self.jobs
            if self._persistent is None:
                self._persistent = self._make_pool(size)
            executor = self._persistent
        else:
            size = min(self.jobs, len(pending))
            executor = self._make_pool(size)
        abandoned = False
        futures: Dict[int, Future] = {}
        #: one-worker pools of the jobs that run alone (see submit_alone)
        solo: Dict[int, ProcessPoolExecutor] = {}

        def submit(index: int) -> None:
            nonlocal executor
            try:
                futures[index] = executor.submit(execute_payload, payloads[index])
            except BrokenProcessPool:
                # A worker died and took the pool with it.  Replace it so
                # this submission, any retry and every later run() (the
                # persistent pool outlives the batch) get live workers.
                executor.shutdown(wait=False, cancel_futures=True)
                fresh = self._make_pool(size)
                if executor is self._persistent:
                    self._persistent = fresh
                executor = fresh
                futures[index] = executor.submit(execute_payload, payloads[index])

        def submit_alone(index: int) -> None:
            # Whatever breaks a one-worker pool, its own job did.
            solo[index] = self._make_pool(1)
            futures[index] = solo[index].submit(execute_payload, payloads[index])

        def release(index: int) -> None:
            if index in solo:
                solo.pop(index).shutdown(wait=True)

        try:
            for index in pending:
                submit(index)
            # Collect in submission order: determinism costs nothing here
            # because every future must finish before run() returns anyway.
            for index in pending:
                starvation_waits = 0
                while True:
                    budget = payloads[index].get("timeout")
                    wait = None if budget is None else float(budget) + _TIMEOUT_GRACE
                    try:
                        document = futures[index].result(timeout=wait)
                    except FutureTimeoutError:
                        # A queued future never started running: it was
                        # starved behind a slow sibling, not stuck — give it
                        # more windows (bounded, in case the whole pool is
                        # wedged) instead of a false timeout verdict.
                        if (
                            not futures[index].running()
                            and not futures[index].done()
                            and starvation_waits < _MAX_STARVATION_WAITS
                        ):
                            starvation_waits += 1
                            continue
                        results[index] = JobResult(
                            index=index,
                            label=batch[index].display_label(),
                            status=STATUS_TIMEOUT,
                            error=f"job exceeded its {budget:.0f}s budget "
                                  f"(+{_TIMEOUT_GRACE:.0f}s grace)",
                            wall_time=float(wait) * (1 + starvation_waits),
                            attempts=attempts[index],
                            # The job's inherited chain state passes through
                            # even though the solve never finished, so a
                            # warm chain survives a timed-out point.
                            chain_context=payloads[index].get("chain_context"),
                            cache_key=keys[index],
                        )
                        abandoned = True
                        break
                    except Exception as exc:  # worker crashed or raised
                        alone = index in solo
                        release(index)
                        if isinstance(exc, BrokenProcessPool) and not alone:
                            # Any worker's death breaks the shared pool for
                            # every job in flight on it: find out whether
                            # this job is the one that dies, free of charge.
                            submit_alone(index)
                            continue
                        if attempts[index] <= self.retries:
                            attempts[index] += 1
                            (submit_alone if alone else submit)(index)
                            continue
                        results[index] = JobResult(
                            index=index,
                            label=batch[index].display_label(),
                            status=STATUS_ERROR,
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=attempts[index],
                            chain_context=payloads[index].get("chain_context"),
                            cache_key=keys[index],
                        )
                        break
                    release(index)
                    result = self._record(index, batch, keys, document)
                    result.attempts = attempts[index]
                    results[index] = result
                    break
        finally:
            for pool in solo.values():  # only a timed-out job leaves its pool
                pool.shutdown(wait=False, cancel_futures=True)
            # A stuck worker must not block the batch: abandon it and let
            # the pool reap it when its (cooperatively bounded) solve ends.
            # A persistent pool outlives the batch unless poisoned that
            # way; the next run() then starts a fresh one.
            if executor is not self._persistent:
                executor.shutdown(wait=not abandoned, cancel_futures=abandoned)
            elif abandoned:
                executor.shutdown(wait=False, cancel_futures=True)
                self._persistent = None

    def _make_pool(self, max_workers: int) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self.mp_context)
        initializer = None
        if context.get_start_method() == "fork":
            # Forked workers inherit the parent's imports: loading SciPy
            # here, once, spares every worker of every pool its import.
            scipy_backend.load()
        else:
            initializer = scipy_backend.load
        return ProcessPoolExecutor(
            max_workers=max_workers, mp_context=context, initializer=initializer
        )

    def _execute_with_retries(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        attempt = 1
        while True:
            try:
                document = execute_payload(payload)
            except Exception as exc:
                if attempt <= self.retries:
                    attempt += 1
                    continue
                document = {
                    "status": STATUS_ERROR,
                    "error": f"{type(exc).__name__}: {exc}",
                    "wall_time": 0.0,
                    # Even a job that crashed out of all its attempts must
                    # pass its inherited chain state downstream — dropping
                    # it would silently cold-start the rest of the sweep.
                    "chain_context": payload.get("chain_context"),
                }
            document["attempts"] = attempt
            return document

    @staticmethod
    def _replicate(index: int, job: MappingJob, primary: JobResult) -> JobResult:
        """Clone a solved sibling's result for a coalesced duplicate job."""
        # JSON round-trip: the replica must not share mutable sub-documents
        # with the primary result.
        replica = JobResult.from_dict(json.loads(json.dumps(primary.to_dict())))
        replica.index = index
        replica.label = job.display_label()
        replica.deduped = True
        return replica

    def _record(
        self,
        index: int,
        batch: Sequence[MappingJob],
        keys: List[str],
        document: Dict[str, Any],
    ) -> JobResult:
        result = self._to_result(index, batch[index], keys[index], document)
        if self.cache is not None and result.status in (STATUS_OK, STATUS_FAILED):
            self.cache.put(keys[index], document)
        return result

    @staticmethod
    def _to_result(
        index: int, job: MappingJob, key: str, document: Dict[str, Any]
    ) -> JobResult:
        return JobResult(
            index=index,
            label=job.display_label(),
            status=document.get("status", STATUS_ERROR),
            objective=document.get("objective"),
            solver_status=document.get("solver_status", ""),
            assignment=dict(document.get("assignment") or {}),
            result=document.get("result"),
            fingerprint=document.get("fingerprint"),
            model_size=dict(document.get("model_size") or {}),
            solve_stats=dict(document.get("solve_stats") or {}),
            chain_context=document.get("chain_context"),
            error=document.get("error", ""),
            wall_time=float(document.get("wall_time", 0.0)),
            attempts=int(document.get("attempts", 1)),
            worker_pid=int(document.get("worker_pid", 0)),
            cache_key=key,
        )
