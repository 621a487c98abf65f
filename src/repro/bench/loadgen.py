"""Open-loop traffic generator for the mapping serve tier.

Closed-loop clients (submit, wait, submit again) measure a system that is
never under pressure: the arrival rate adapts to the service's speed, so
queueing collapse is invisible.  This harness is **open-loop** — the
arrival schedule is precomputed from a seeded RNG and arrivals fire at
their scheduled time regardless of how the previous jobs are doing —
which is how serving systems are actually benchmarked.

The schedule is deterministic in ``seed``: arrival times, the
template drawn per arrival, the duplicate re-submissions and the
fast-mode mix are all derived from one ``random.Random``.  What the
*server* does with that traffic (latencies, dedupe, cache hits) is
measured, not controlled.  A submission the server refuses is recorded
as an error.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..io.serve import JobSubmission
from ..serve.client import ServeClient, ServeClientError
from .artifacts import latency_percentiles

__all__ = [
    "LoadgenConfig",
    "ScheduledArrival",
    "build_schedule",
    "run_loadgen",
]


@dataclass(frozen=True)
class ScheduledArrival:
    """One planned arrival: when (offset seconds) and what to submit."""

    index: int
    at: float
    submission: JobSubmission
    #: The arrival repeats an earlier one verbatim (dedupe pressure).
    duplicate_of: Optional[int] = None


@dataclass
class LoadgenConfig:
    url: str
    #: Base submissions the schedule draws from (the mode is overridden
    #: per arrival according to ``fast_ratio``).
    templates: List[JobSubmission]
    duration_s: float = 10.0
    #: Mean arrival rate in jobs/second.
    rate: float = 8.0
    #: ``poisson`` (exponential gaps), ``uniform`` (constant gaps) or
    #: ``bursty`` (Poisson at ``burst_factor``× the rate during the first
    #: half of every ``burst_period_s``, silence in the second half).
    arrival: str = "poisson"
    burst_factor: float = 4.0
    burst_period_s: float = 2.0
    #: Fraction of arrivals that resend an earlier submission verbatim.
    duplicate_ratio: float = 0.5
    #: Fraction of (fresh) arrivals submitted as fast-mode jobs.
    fast_ratio: float = 0.0
    seed: int = 0
    #: Seconds to wait for one job to reach a terminal state.
    wait_timeout: float = 120.0
    #: Completion-poller thread pool size.  Open-loop submission needs
    #: enough pollers that slow jobs never delay later arrivals.
    workers: int = 32
    poll_interval: float = 0.05
    connect_timeout: float = 30.0


def build_schedule(config: LoadgenConfig) -> List[ScheduledArrival]:
    """The deterministic arrival schedule of one loadgen run."""
    if not config.templates:
        raise ValueError("loadgen needs at least one template submission")
    if config.arrival not in ("poisson", "uniform", "bursty"):
        raise ValueError(f"unknown arrival process {config.arrival!r}")
    rng = random.Random(config.seed)

    times: List[float] = []
    now = 0.0
    while True:
        if config.arrival == "uniform":
            now += 1.0 / config.rate
        elif config.arrival == "poisson":
            now += rng.expovariate(config.rate)
        else:  # bursty: on/off Poisson
            phase = now % config.burst_period_s
            on_window = config.burst_period_s / 2.0
            if phase < on_window:
                gap = rng.expovariate(config.rate * config.burst_factor)
                if phase + gap >= on_window:
                    # The burst ends before the next arrival: jump to the
                    # start of the next burst window.
                    now += (config.burst_period_s - phase) + rng.expovariate(
                        config.rate * config.burst_factor
                    )
                else:
                    now += gap
            else:
                now += (config.burst_period_s - phase) + rng.expovariate(
                    config.rate * config.burst_factor
                )
        if now >= config.duration_s:
            break
        times.append(now)

    schedule: List[ScheduledArrival] = []
    for index, at in enumerate(times):
        if schedule and rng.random() < config.duplicate_ratio:
            twin = schedule[rng.randrange(len(schedule))]
            schedule.append(
                ScheduledArrival(
                    index=index,
                    at=at,
                    submission=twin.submission,
                    duplicate_of=twin.index,
                )
            )
            continue
        submission = config.templates[rng.randrange(len(config.templates))]
        changes: Dict[str, Any] = {"label": f"lg-{index:04d}"}
        if config.fast_ratio > 0 and rng.random() < config.fast_ratio:
            changes["mode"] = "fast"
        schedule.append(
            ScheduledArrival(
                index=index, at=at, submission=replace(submission, **changes)
            )
        )
    return schedule


@dataclass
class _Tally:
    """Shared, lock-guarded accumulators of one run."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    jobs: List[Dict[str, Any]] = field(default_factory=list)
    errors: int = 0


def _run_one(
    client: ServeClient,
    arrival: ScheduledArrival,
    scheduled_monotonic: float,
    config: LoadgenConfig,
    tally: _Tally,
) -> None:
    record: Dict[str, Any] = {
        "index": arrival.index,
        "label": arrival.submission.label,
        "mode": arrival.submission.mode,
        "priority": arrival.submission.priority,
        "duplicate_of": arrival.duplicate_of,
        "outcome": "",
    }
    try:
        status = client.submit(arrival.submission)
        if not status.terminal:
            status = client.wait(
                status.job_id,
                timeout=config.wait_timeout,
                poll_interval=config.poll_interval,
            )
    except ServeClientError as exc:
        record["outcome"] = "error"
        record["error"] = str(exc)
        with tally.lock:
            tally.errors += 1
            tally.jobs.append(record)
        return
    record["outcome"] = status.state
    record["result_status"] = status.result_status
    record["client_latency_ms"] = (
        (time.monotonic() - scheduled_monotonic) * 1000.0
    )
    record["server_latency_ms"] = status.latency_ms
    record["cache_key"] = status.cache_key
    record["cache_hit"] = status.cache_hit
    record["deduped"] = status.deduped
    record["fingerprint"] = status.fingerprint
    with tally.lock:
        tally.jobs.append(record)


def run_loadgen(config: LoadgenConfig) -> Dict[str, Any]:
    """Fire one open-loop traffic window; returns the measurement report.

    The report separates what was *scheduled* (deterministic) from what
    was *observed* (latencies, dedupe and cache-hit counts).
    ``fingerprint_conflicts`` counts cache keys observed with two
    different fingerprints — always zero for a correct serve tier.
    """
    schedule = build_schedule(config)
    client = ServeClient(config.url, timeout=config.connect_timeout)
    tally = _Tally()
    start = time.monotonic()
    with ThreadPoolExecutor(
        max_workers=max(1, config.workers), thread_name_prefix="loadgen"
    ) as pool:
        for arrival in schedule:
            delay = start + arrival.at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            pool.submit(
                _run_one, client, arrival, start + arrival.at, config, tally
            )
    elapsed = time.monotonic() - start

    jobs = sorted(tally.jobs, key=lambda r: r["index"])
    done = [r for r in jobs if r["outcome"] == "done"]
    fingerprints: Dict[str, str] = {}
    conflicts = 0
    for record in done:
        key, fingerprint = record.get("cache_key"), record.get("fingerprint")
        if key and fingerprint:
            known = fingerprints.get(key)
            if known is None:
                fingerprints[key] = fingerprint
            elif known != fingerprint:
                conflicts += 1
    return {
        "kind": "loadgen_report",
        "url": config.url,
        "arrival": config.arrival,
        "rate": config.rate,
        "duration_s": config.duration_s,
        "seed": config.seed,
        "elapsed_seconds": elapsed,
        "scheduled": len(schedule),
        "scheduled_duplicates": sum(
            1 for a in schedule if a.duplicate_of is not None
        ),
        "completed": len(done),
        "ok": sum(1 for r in done if r.get("result_status") == "ok"),
        "errors": tally.errors,
        "deduped": sum(1 for r in done if r.get("deduped")),
        "cache_hits": sum(1 for r in done if r.get("cache_hit")),
        "client_latency_ms": latency_percentiles(
            [r["client_latency_ms"] for r in done]
        ),
        "server_latency_ms": latency_percentiles(
            [
                r["server_latency_ms"]
                for r in done
                if r.get("server_latency_ms") is not None
            ]
        ),
        "unique_cache_keys": len(fingerprints),
        "fingerprint_conflicts": conflicts,
        "fingerprints": fingerprints,
        "jobs": jobs,
    }
