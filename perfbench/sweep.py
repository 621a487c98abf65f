"""``sweep``: a closed loop of design-space sweeps through ``DesignSpaceExplorer``.

One operation is one grid point.  Each sweep runs the fixed 96-point grid
below (four warm chains of 24 small points from the ``random``,
``dag-schedule``, ``hetero-cost`` and ``board-scale`` families) on the
default solver with ``jobs=2`` worker processes, then folds the Pareto
front and fingerprints the run, as ``repro explore`` does.  Solves take
5-150 ms, so the engine's per-job costs and the pool's IPC rival the
solves themselves.

The instances are fixed (scenario seed 0): solve cost swings several-fold
between scenario seeds, which would make runs with different seeds
incomparable.  The run seed orders the chains and the values along each
knob, afresh for every sweep of the run; that changes every chain's
warm-start hand-offs but no optimum.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, List

from .common import BOOT_SAMPLES, BOOTS, ROOT, Calibration, Outcome, median, python_boot, quantile, tree_rss_kb
from .layers import CORE_ILP_SPANS, core_and_ilp, engine_and_explore, per_op_ms, solver_counts
from .tracing import Tracer

EXPECTED = ROOT / "perfbench" / "sweep_expected.json"
#: Scenario seed of every point; ``sweep_expected.json`` was solved on it.
DESIGN_SEED = 0
JOBS = 2
#: ``Calibration`` kernel samples before every sweep (a sweep takes about 1 s).
CALIBRATION_SAMPLES = 3
#: A fixed tail percentile, the middle of the slowest of the 96 points, so
#: the tail does not move with the number of sweeps a run fits in.
TAIL_SHARE = 1.0 - 0.5 / 96
AXES = (
    ("random", {"structures": [4, 5, 6, 7, 8, 9], "conflict_density": [0.25, 0.5, 0.75, 1.0]}),
    ("dag-schedule", {"depth": [2, 3, 4], "width": [2, 3], "burstiness": [0.0, 0.5], "branch": [0.3, 0.7]}),
    ("hetero-cost", {"segments": [4, 5, 6, 7, 8, 9], "tiers": [2, 3], "cost_spread": [1.5, 3.0]}),
    ("board-scale", {"segments": [4, 5, 6, 7, 8, 9], "banks": [8, 12], "conflict_density": [0.5, 1.0]}),
)
TOLERANCE = 1e-6


def specs(seed: int, number: int = 0) -> List[str]:
    """Grid spec strings of sweep ``number``: chain and knob value order shuffled by the seed."""
    rng = random.Random(f"sweep:{seed}:{number}")
    out = []
    for family, axes in AXES:
        parts = []
        for knob, values in axes.items():
            parts.append(f"{knob}=" + "|".join(str(v) for v in rng.sample(values, len(values))))
        out.append(f"{family}@" + ",".join(parts))
    rng.shuffle(out)
    return out


def grid(seed: int, number: int = 0):
    from repro.explore import ScenarioGrid

    return ScenarioGrid.parse(specs(seed, number))


def expected_objectives() -> Dict[str, float]:
    return json.loads(EXPECTED.read_text())["objectives"]


@contextmanager
def engine_runs(record: list):
    """Time every ``MappingEngine.run`` call (one per wave): (seconds, [(worker pid, wall_time)])."""
    from repro.engine import MappingEngine

    original = MappingEngine.run

    def run(self, batch):
        start = time.perf_counter()
        results = original(self, batch)
        record.append((time.perf_counter() - start, [(r.worker_pid, r.wall_time) for r in results]))
        return results

    MappingEngine.run = run
    try:
        yield
    finally:
        MappingEngine.run = original


def one_sweep(outcome: Outcome, the_grid, expected, jobs: int = JOBS):
    """Run one sweep, fold its Pareto front and fingerprint it; check every point."""
    from repro.explore import DesignSpaceExplorer

    result = DesignSpaceExplorer(the_grid, jobs=jobs, seed=DESIGN_SEED).run()
    result.pareto_front()
    result.fingerprint()
    check_points(outcome, result.points, expected)
    return result


def check_points(outcome: Outcome, points, expected: Dict[str, float]) -> None:
    """Every point solved, to the expected optimum, and the grid complete."""
    for point in points:
        outcome.attempted += 1
        if not point.ok:
            outcome.failed += 1
            outcome.mismatches.append(f"{point.label}: {point.status} {point.error}")
            continue
        want = expected.get(point.label)
        outcome.check(want is not None and abs(point.objective - want) <= TOLERANCE * max(1.0, abs(want)),
                      f"{point.label}: objective {point.objective!r}, expected {want!r}")
    outcome.check(sorted(p.label for p in points) == sorted(expected),
                  f"{len(points)} points do not cover the {len(expected)} expected labels")


class RssSampler:
    """Peak resident memory of this process and its workers, sampled every 20 ms."""

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, tree_rss_kb(os.getpid()))
            self._stop.wait(0.02)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    expected = expected_objectives()
    one_sweep(Outcome(), grid(seed), expected)  # warm-up: lazy imports, first pool spawn
    if trace:
        return run_traced(outcome, seed, expected, seconds)
    calibration, boots = Calibration(), []
    for _ in range(BOOTS):
        calibration.sample(BOOT_SAMPLES)
        boots.append(python_boot(["sweep", str(seed)])[0])
    outcome.put("setup_s", median(boots) * calibration.scale(), "s",
                f"calibrated median of {BOOTS} fresh interpreters importing the explorer and building all 96 points "
                f"({median(boots):.4f} s wall)")

    calibration = Calibration()
    latencies: List[float] = []
    sweeps, busy = 0, 0.0
    with RssSampler() as sampler:
        start = time.perf_counter()
        while sweeps < 3 or time.perf_counter() - start < seconds:
            the_grid = grid(seed, sweeps + 1)
            calibration.sample(CALIBRATION_SAMPLES)
            began = time.perf_counter()
            result = one_sweep(outcome, the_grid, expected)
            busy += time.perf_counter() - began
            latencies.extend(point.wall_time for point in result.points)
            sweeps += 1
    scale = calibration.scale()
    outcome.notes.append(calibration.note())
    n = len(latencies)
    p_tail = quantile(latencies, TAIL_SHARE)
    outcome.put("throughput_per_s", n / (scale * busy), "1/s",
                f"{n} grid points over {sweeps} sweeps, per calibrated second of sweep time "
                f"({n / busy:.4f} per wall second)")
    p50 = quantile(latencies, 0.5)
    outcome.put("latency_p50_ms", 1000.0 * scale * p50, "ms",
                f"median of {n} calibrated per-point service times in the workers (JobResult.wall_time; "
                f"{1000.0 * p50:.2f} ms wall)")
    outcome.put("latency_tail_ms", 1000.0 * scale * p_tail, "ms",
                f"p{100.0 * TAIL_SHARE:.1f} of {n} calibrated point service times ({1000.0 * p_tail:.2f} ms wall)")
    outcome.put("peak_rss_mb", sampler.peak_kb / 1024.0, "MB",
                "peak summed VmRSS of the benchmark process and its pool workers, sampled every 20 ms")
    return outcome


def ipc_seconds(waves) -> float:
    """Parent's wait on the pool minus the busiest worker's ``wall_time``, summed over waves."""
    total = 0.0
    for seconds_, jobs in waves:
        per_worker: Dict[int, float] = {}
        for pid, wall_time in jobs:
            per_worker[pid] = per_worker.get(pid, 0.0) + wall_time
        total += seconds_ - max(per_worker.values(), default=0.0)
    return total


def run_traced(outcome: Outcome, seed: int, expected, seconds: float) -> Outcome:
    """IPC from the timed ``jobs=2`` configuration; spans from in-process ``jobs=1`` sweeps."""
    waves: list = []
    with engine_runs(waves):
        one_sweep(outcome, grid(seed, 1), expected)
    points = sum(len(jobs) for _, jobs in waves)
    outcome.put("engine.ipc_ms", 1000.0 * ipc_seconds(waves) / points, "ms",
                f"per point, one jobs={JOBS} sweep of {points} points")

    tracer = Tracer()
    plain, traced, stats, retries = [], [], [], 0
    targets = core_and_ilp() + engine_and_explore()
    start, number = time.perf_counter(), 0
    while number < 2 or time.perf_counter() - start < seconds:
        # Pairs of sweeps share one ordering, so traced and untraced do the same work.
        the_grid = grid(seed, 2 + number // 2)
        began = time.perf_counter()
        if number % 2:
            with tracer.installed(targets):
                result = one_sweep(outcome, the_grid, expected, jobs=1)
            traced.append(time.perf_counter() - began)
            stats.extend(point.solve_stats for point in result.points)
            retries += sum(point.retries for point in result.points)
        else:
            one_sweep(outcome, the_grid, expected, jobs=1)
            plain.append(time.perf_counter() - began)
        number += 1
    counts = tracer.counts()
    ops = counts.get("op.point", 0)
    spans = CORE_ILP_SPANS + ("engine.payload", "io.deserialize", "io.serialize",
                              "engine.fingerprint", "explore.chain", "explore.pareto")
    for name, value in per_op_ms(tracer, spans, ops).items():
        outcome.put(name, value, "ms")
    outcome.notes.append(f"layer times: mean self time over {ops} in-process points in {len(traced)} traced sweeps")
    for name, value in solver_counts(stats).items():
        outcome.put(name, value, "count")
    outcome.put("explore.warm_start_hits", sum(int(s.get("warm_start_hits") or 0) for s in stats) / max(ops, 1),
                "count")
    outcome.put("core.retries", retries / max(ops, 1), "count")
    outcome.put("core.build_model_calls", counts.get("core.build_model", 0) / max(ops, 1), "count")
    payload = sum(s.duration for s in tracer.spans if s.name == "op.point")
    mapped = sum(s.duration for s in tracer.spans if s.name == "core.map")
    outcome.put("engine.overhead_share", (payload - mapped) / payload, "share",
                "(execute_payload time - MemoryMapper.map time) / execute_payload time")
    outcome.put("trace.overhead_share", median(traced) / median(plain) - 1.0, "share",
                f"median traced vs untraced jobs=1 sweep ({len(traced)} vs {len(plain)} sweeps)")
    outcome.put("trace.coverage_share", tracer.coverage(), "share")
    return outcome
