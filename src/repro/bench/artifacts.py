"""Machine-readable benchmark artifacts (``BENCH_<name>.json``).

Every sweep — the batch CLI, the Table 3 harness, the benchmark scripts —
can drop a small JSON artifact describing what ran and how fast, so the
performance trajectory of the repository is tracked from run to run
instead of living in scrollback.  The layout is deliberately flat: a
header (name, sweep size, worker count), aggregate timings including the
estimated speedup over a serial run, cache statistics when a result cache
was in play, and one record per job.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # the engine layer is not loaded to format its results
    from ..engine.jobs import JobResult

__all__ = [
    "batch_artifact",
    "explore_artifact",
    "serve_artifact",
    "latency_percentiles",
    "total_keys",
    "write_bench_artifact",
]

#: Version tag of the artifact layout.
ARTIFACT_VERSION = 1


def batch_artifact(
    name: str,
    results: Sequence[JobResult],
    elapsed: float,
    jobs: int,
    solver: str,
    cache_stats: Optional[Mapping[str, int]] = None,
) -> Dict[str, Any]:
    """Summarise one engine batch as an artifact document.

    ``serial_seconds`` is the sum of the per-job wall times measured inside
    the workers — what the same sweep would have cost end-to-end on one
    worker — so ``speedup_vs_serial`` tracks the real benefit of the
    worker pool (and of cache hits, whose job cost is ~0).
    """
    serial_seconds = sum(r.wall_time for r in results if not r.cache_hit)
    ok = sum(1 for r in results if r.ok)
    return {
        "kind": "bench_artifact",
        "artifact_version": ARTIFACT_VERSION,
        "name": name,
        "jobs": jobs,
        "solver": solver,
        "num_points": len(results),
        "num_ok": ok,
        "num_failed": len(results) - ok,
        "cache_hits": sum(1 for r in results if r.cache_hit),
        "wall_seconds": elapsed,
        "serial_seconds": serial_seconds,
        "speedup_vs_serial": (serial_seconds / elapsed) if elapsed > 0 else None,
        "cache": dict(cache_stats) if cache_stats is not None else None,
        "results": [
            {
                "label": r.label,
                "status": r.status,
                "objective": r.objective,
                "solver_status": r.solver_status,
                "wall_time": r.wall_time,
                "attempts": r.attempts,
                "cache_hit": r.cache_hit,
                "fingerprint": r.fingerprint,
                "model_size": dict(r.model_size),
                "solve_stats": dict(r.solve_stats),
                "error": r.error,
            }
            for r in results
        ],
    }


def explore_artifact(result: "ExploreResult") -> Dict[str, Any]:
    """Summarise one exploration run as a ``BENCH_explore.json`` document.

    Carries the same aggregate counters as the Table 3 artifact (so
    ``scripts/bench_compare.py`` can diff a warm-chained run against a
    ``--cold`` one), plus the explore-specific payload: the serialised
    grid, the warm-chain layout, the Pareto fronts and the deterministic
    run fingerprint.  The ``pareto_front_timed`` front includes wall time
    and is therefore machine-dependent; everything under ``fingerprint``
    is not.
    """
    from ..io.serialize import scenario_grid_to_dict

    serial_seconds = result.serial_seconds()
    document = {
        "kind": "bench_artifact",
        "artifact_version": ARTIFACT_VERSION,
        "name": "explore",
        "jobs": result.jobs,
        "solver": result.solver,
        "warm_chain": result.warm_chain,
        "num_points": result.num_points,
        "num_ok": result.num_ok,
        "num_failed": result.num_failed,
        "cache_hits": result.num_cache_hits,
        "wall_seconds": result.elapsed,
        "serial_seconds": serial_seconds,
        "speedup_vs_serial": (
            (serial_seconds / result.elapsed) if result.elapsed > 0 else None
        ),
        **total_keys(result.counter_totals()),
        "cache": dict(result.cache_stats) if result.cache_stats is not None else None,
        "grid": scenario_grid_to_dict(result.grid),
        "chains": [list(chain) for chain in result.chains],
        "fingerprint": result.fingerprint(),
        "pareto_front": [p.label for p in result.pareto_front()],
        "pareto_front_timed": [p.label for p in result.pareto_front_timed()],
        "results": [p.to_dict() for p in result.points],
    }
    if result.streamed:
        # The per-point records live in the JSONL spool, not the
        # artifact; record where so tooling can follow the pointer.
        document["streamed"] = True
        document["results_path"] = result.results_path
    return document


def total_keys(totals: Mapping[str, Any]) -> Dict[str, int]:
    """``total_<name>`` for every scalar counter in ``totals``.

    ``totals`` comes from :func:`repro.ilp.sum_counters`; counter maps
    stay in the per-result ``solve_stats`` so the artifact remains flat.
    """
    return {
        f"total_{name}": value
        for name, value in totals.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def latency_percentiles(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Nearest-rank p50/p90/p99 (plus mean/max) of a latency sample set.

    Nearest-rank keeps every reported value an *observed* latency — no
    interpolation between samples — which is the convention serving
    dashboards use and is stable for the small sample counts a smoke run
    produces.  Returns ``None`` values for an empty sample set.
    """
    if not samples:
        return {"p50": None, "p90": None, "p99": None, "mean": None, "max": None}
    ordered = sorted(samples)

    def rank(q: float) -> float:
        index = math.ceil(q * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(0, index))]

    return {
        "p50": rank(0.50),
        "p90": rank(0.90),
        "p99": rank(0.99),
        "mean": sum(ordered) / len(ordered),
        "max": ordered[-1],
    }


def serve_artifact(
    records: Sequence[Mapping[str, Any]],
    elapsed: float,
    jobs: int,
    max_batch: int,
    counters: Mapping[str, int],
    batch_sizes: Sequence[int],
) -> Dict[str, Any]:
    """Summarise one serving window as a ``BENCH_serve.json`` document.

    ``records`` are the service's per-job metrics (label, end-to-end
    ``latency_ms``, in-solver ``solve_ms``, cache/dedupe flags); the
    artifact reduces them to throughput and nearest-rank latency
    percentiles so serving regressions show up as numbers, not vibes.
    The gap between the ``latency_ms`` and ``solve_ms`` percentiles is
    the serving overhead (queueing behind a running batch + dispatch).

    ``records`` is a bounded window (the service keeps the most recent
    few thousand), so the headline ``num_jobs``/``throughput_jobs_per_s``
    come from the cumulative ``completed`` counter when present; the
    percentiles describe the recent window.
    """
    latencies = [
        float(r["latency_ms"]) for r in records if r.get("latency_ms") is not None
    ]
    solves = [
        float(r["solve_ms"]) for r in records if r.get("solve_ms") is not None
    ]
    sizes = list(batch_sizes)
    completed = int(counters.get("completed", len(records)))
    return {
        "kind": "bench_artifact",
        "artifact_version": ARTIFACT_VERSION,
        "name": "serve",
        "jobs": jobs,
        "max_batch": max_batch,
        "elapsed_seconds": elapsed,
        "num_jobs": completed,
        "throughput_jobs_per_s": (completed / elapsed) if elapsed > 0 else None,
        "latency_ms": latency_percentiles(latencies),
        "solve_ms": latency_percentiles(solves),
        "batches": {
            "count": len(sizes),
            "mean_size": (sum(sizes) / len(sizes)) if sizes else None,
            "max_size": max(sizes) if sizes else None,
        },
        "counters": dict(counters),
        "results": [dict(r) for r in records],
    }


def write_bench_artifact(
    name: str,
    payload: Mapping[str, Any],
    directory: Union[str, Path] = ".",
) -> Path:
    """Write ``payload`` to ``<directory>/BENCH_<name>.json`` and return the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(dict(payload), indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return path
