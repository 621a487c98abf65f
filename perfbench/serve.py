"""``serve``: an open loop against one ``repro serve --port 0`` process.

One sender thread submits a seeded schedule of 6 requests/s over the run;
one status poller watches the outstanding jobs.  Each uses one connection
at a time.  Lone requests and clusters of 2-3 requests 2-15 ms apart (closer
than the 25 ms batch window) are separated by silences longer than it.

The traffic mix:

* ``cold``: an exact request whose design no earlier request carried;
* ``fast``: the same, in fast mode;
* ``resend``: a verbatim resend of a fresh request due at least 0.5 s
  earlier.  It is ``cached`` when the client already saw the original
  finish when it sent the resend, ``inflight`` otherwise.

A request is ``idle`` when the client had nothing else outstanding when
it sent it, ``busy`` otherwise.  Latency runs from the time a request was
due to its ``finished_at``; both come from this host's wall clock.  The
server is left as shipped: nothing inside it is wrapped, so the layer
split comes from the public timestamps and ``/healthz``.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .common import (BOOT_SAMPLES, BOOTS, ROOT, BenchError, Calibration, Outcome, child_env, median, quantile,
                     status_kb)
from .layers import solver_counts

RATE = 6.0
#: Sizes of successive arrival clusters (cycled).
CLUSTERS = (1, 1, 2, 1, 3)
#: Shortest gap between clusters: longer than the 25 ms batch window.
SILENCE = 0.03
#: Shares taken from the serve traffic of ``benchmarks/bench_serve_scale.py``:
#: 25% verbatim resends (its ``warm`` phase ``duplicate_ratio``), and 20% of
#: the fresh arrivals in fast mode (its ``burst`` phase ``fast_ratio``).
RESEND_SHARE = 0.25
FAST_SHARE = 0.20
#: Kinds of successive arrivals (cycled; c = cold, f = fast, r = resend): five
#: cycles of CLUSTERS, 40 arrivals holding exactly the shares above (24 cold,
#: 6 fast, 10 resends).  Lone arrivals, pairs and triples each get those
#: shares as nearly as whole numbers allow, so every seed sends the same
#: number of solves into every cluster, and the tail, which is made of the
#: clusters whose solves share one batch, has the same make-up on every seed.
#: The first cycle has no resend, so every resend finds a twin RESEND_AGE old.
KINDS = "c c cc c ccc  f r cr c ccr  c r cf c cfr  c f cr r ccf  c r cf c crr".replace(" ", "")
KIND_NAMES = {"c": "cold", "f": "fast", "r": "resend"}
RESEND_AGE = 0.5
#: Size of every fresh design: at 5-6 structures about one design in 50
#: branches and takes ten times as long, which makes the tail jump between seeds.
STRUCTURES = 4
DENSITIES = (0.5, 0.75, 1.0)
#: Request classes with their own latency median.
CLASSES = ("cold", "fast", "cached")
GAP_LIMIT = 0.05
BOOT_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0
#: Pause between status sweeps of the poller.  Latencies come from the
#: server's ``finished_at``, not from when the poller saw the finish, so the
#: pause only sets how soon the client learns of a finish (one batch window).
#: Polling every 5 ms made the server spend GIL time on status requests and
#: slowed its solves by about 12%, more so when the host was busy.
POLL_PAUSE = 0.025
#: The tail percentile.  Above p90, 150 requests leave fewer than 15 samples,
#: which sporadic slow batches decide: p93.3 spread 26-52% over 5 seeds where
#: p90 spread 8-15%.
TAIL_SHARE = 0.90


@dataclass(frozen=True)
class Arrival:
    index: int
    at: float
    kind: str
    submission: object
    twin: Optional[int] = None


def arrival_times(seed: int, seconds: float) -> List[float]:
    """``RATE * seconds`` arrival offsets spread over ``seconds``.

    Cluster sizes cycle through :data:`CLUSTERS`, so every seed sends the
    same share of lone and clustered requests; the seed draws the gaps
    inside clusters (2-15 ms) and between them (at least :data:`SILENCE`).
    """
    rng = random.Random(f"serve-times:{seed}")
    count = max(2, round(RATE * seconds))
    clusters: List[List[float]] = []
    while sum(map(len, clusters)) < count:
        size = min(CLUSTERS[len(clusters) % len(CLUSTERS)], count - sum(map(len, clusters)))
        offsets = [0.0]
        for _ in range(size - 1):
            offsets.append(offsets[-1] + rng.uniform(0.002, 0.015))
        clusters.append(offsets)
    draws = [rng.expovariate(1.0) for _ in clusters[1:]]
    spare = seconds - sum(c[-1] for c in clusters) - SILENCE * len(draws)
    times, now = [], 0.0
    for index, offsets in enumerate(clusters):
        if index:
            now += SILENCE + spare * draws[index - 1] / sum(draws)
        times.extend(now + offset for offset in offsets)
        now = times[-1]
    return times


def build_schedule(seed: int, seconds: float) -> List[Arrival]:
    """The run's deterministic traffic: times, kinds, and a fresh design per fresh arrival."""
    from repro.explore.scenarios import ScenarioPoint
    from repro.io.serve import JobSubmission
    from repro.serve.service import MappingService

    rng = random.Random(f"serve-mix:{seed}")
    times = arrival_times(seed, seconds)

    schedule: List[Arrival] = []
    keys = set()
    for index, at in enumerate(times):
        kind = KIND_NAMES[KINDS[index % len(KINDS)]]
        if kind == "resend":
            earlier = [a for a in schedule if a.twin is None and a.at <= at - RESEND_AGE]
            if earlier:
                twin = rng.choice(earlier)
                schedule.append(Arrival(index, at, "resend", twin.submission, twin.index))
                continue
            kind = "cold"  # nothing is RESEND_AGE old yet, early in the run
        while True:
            point = ScenarioPoint(
                "random",
                {"structures": STRUCTURES, "conflict_density": rng.choice(DENSITIES)},
                seed=rng.randrange(1, 2**31),
            )
            design, board = point.build()
            submission = JobSubmission.from_objects(
                board, design, mode="fast" if kind == "fast" else "pipeline",
                label=f"a{index:04d}-{kind}",
            )
            key = MappingService._build_job(None, submission).cache_key()
            if key not in keys:
                keys.add(key)
                break
        schedule.append(Arrival(index, at, kind, submission))
    return schedule


# ------------------------------------------------------------------ server
@dataclass
class Server:
    process: subprocess.Popen
    url: str
    boot_s: float


def boot() -> Server:
    """Spawn ``repro serve --port 0``; ready when ``/healthz`` answers."""
    from repro.serve import ServeClient, ServeClientError

    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    log: List[str] = []
    banner = "serving mapping jobs on "
    url = None
    while url is None:
        line = process.stdout.readline()
        if not line:
            process.wait()
            raise BenchError("repro serve exited during boot:\n" + "".join(log[-40:]))
        log.append(line)
        if banner in line:
            url = line.split(banner, 1)[1].split()[0]
        elif time.perf_counter() - start > BOOT_TIMEOUT:
            stop(Server(process, "", 0.0))
            raise BenchError("repro serve printed no banner")
    # Keep the pipe drained so the server never blocks on its own output.
    threading.Thread(target=process.stdout.read, daemon=True).start()
    client = ServeClient(url, timeout=5.0)
    while True:
        try:
            client.health()
            break
        except ServeClientError:
            if time.perf_counter() - start > BOOT_TIMEOUT:
                stop(Server(process, url, 0.0))
                raise BenchError(f"{url}/healthz never answered")
            time.sleep(0.002)
    return Server(process, url, time.perf_counter() - start)


def stop(server: Server) -> None:
    """``/v1/shutdown``, then wait for the process to end (kill it if it hangs)."""
    from repro.serve import ServeClient, ServeClientError

    if server.url and server.process.poll() is None:
        try:
            ServeClient(server.url, timeout=5.0).shutdown()
        except ServeClientError:
            pass
    try:
        server.process.wait(timeout=20)
    except subprocess.TimeoutExpired:
        server.process.kill()
        server.process.wait()


# ----------------------------------------------------------------- traffic
@dataclass
class Sent:
    due: float
    sent: float
    submit_s: float
    kind: str
    idle: bool


def drive(url: str, schedule: List[Arrival]) -> Tuple[Dict[int, Sent], Dict[int, object]]:
    """Send the schedule open-loop; return what was sent and the final statuses."""
    from repro.serve import ServeClient

    lock = threading.Lock()
    pending: Dict[str, int] = {}
    finished: Dict[int, object] = {}
    sent: Dict[int, Sent] = {}
    done_sending = threading.Event()

    def poll() -> None:
        client = ServeClient(url, timeout=10.0)
        deadline = None
        while True:
            with lock:
                watch = list(pending.items())
            if not watch and done_sending.is_set():
                return
            if done_sending.is_set():
                deadline = deadline or time.monotonic() + DRAIN_TIMEOUT
                if time.monotonic() > deadline:
                    return
            for job_id, index in watch:
                status = client.status(job_id)
                if status.terminal:
                    with lock:
                        pending.pop(job_id, None)
                        finished[index] = status
            time.sleep(POLL_PAUSE)

    poller = threading.Thread(target=poll, name="perfbench-poller")
    poller.start()
    client = ServeClient(url, timeout=10.0)
    origin = time.time() + 0.1
    try:
        for arrival in schedule:
            due = origin + arrival.at
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            with lock:
                idle = not pending
                kind = arrival.kind
                if kind == "resend":
                    kind = "cached" if arrival.twin in finished else "inflight"
            began = time.time()
            status = client.submit(arrival.submission)
            record = Sent(due, began, time.time() - began, kind, idle)
            with lock:
                sent[arrival.index] = record
                if status.terminal:
                    finished[arrival.index] = status
                else:
                    pending[status.job_id] = arrival.index
    finally:
        done_sending.set()
        poller.join()
    return sent, finished


def direct_fingerprints(schedule: List[Arrival]) -> Dict[int, str]:
    """Arrival index -> fingerprint of a fresh, cache-less in-process engine run."""
    from repro.engine import MappingEngine
    from repro.serve.service import MappingService

    fresh = [a for a in schedule if a.twin is None]
    # The service's own submission -> job conversion; it reads nothing from the instance.
    results = MappingEngine(jobs=1).run([MappingService._build_job(None, a.submission) for a in fresh])
    by_index = {a.index: r.fingerprint for a, r in zip(fresh, results)}
    return {a.index: by_index[a.twin if a.twin is not None else a.index] for a in schedule}


def check(outcome: Outcome, schedule, finished) -> None:
    """Every request done and ok, fresh ones solved, fingerprints equal the direct run."""
    reference = direct_fingerprints(schedule)
    by_key: Dict[str, set] = {}
    for arrival in schedule:
        status = finished.get(arrival.index)
        outcome.attempted += 1
        if status is None or status.state != "done" or status.result_status != "ok":
            outcome.failed += 1
            outcome.mismatches.append(f"arrival {arrival.index}: {getattr(status, 'state', 'unfinished')} "
                                      f"{getattr(status, 'error', '')}")
            continue
        by_key.setdefault(status.cache_key, set()).add(status.fingerprint)
        outcome.check(status.fingerprint == reference[arrival.index],
                      f"arrival {arrival.index}: served fingerprint differs from the direct engine run")
        if arrival.twin is None:
            outcome.check(not status.cache_hit and not status.deduped,
                          f"arrival {arrival.index}: fresh request answered without a solve")
        if arrival.submission.mode == "fast":
            outcome.check(status.gap is not None and status.gap <= GAP_LIMIT + 1e-9,
                          f"arrival {arrival.index}: fast gap {status.gap!r}")
    conflicts = sum(1 for prints in by_key.values() if len(prints) > 1)
    outcome.check(conflicts == 0, f"{conflicts} cache keys served with conflicting fingerprints")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.serve import ServeClient

    outcome = Outcome()
    schedule = build_schedule(seed, seconds)
    calibration, boots = Calibration(), []
    for _ in range(BOOTS - 1):
        calibration.sample(BOOT_SAMPLES)
        server = boot()
        boots.append(server.boot_s)
        stop(server)
    calibration.sample(BOOT_SAMPLES)
    server = boot()
    boots.append(server.boot_s)
    try:
        sent, finished = drive(server.url, schedule)
        client = ServeClient(server.url, timeout=10.0)
        health = client.health()
        peak_kb = status_kb(server.process.pid, "VmHWM")
        documents = {}
        if trace:
            for index, status in finished.items():
                if status.state == "done" and not status.cache_hit and not status.deduped:
                    documents[index] = client.result(status.job_id)
    finally:
        stop(server)
    check(outcome, schedule, finished)
    done = {i: s for i, s in finished.items() if s.finished_at is not None and i in sent}
    latency = {i: 1000.0 * (s.finished_at - sent[i].due) for i, s in done.items()}
    n = len(latency)
    if trace:
        return layer_metrics(outcome, boots, sent, done, latency, health, documents)
    outcome.put("setup_s", median(boots) * calibration.scale(), "s",
                f"calibrated median of {BOOTS} boots: spawn of repro serve until /healthz answers "
                f"({median(boots):.4f} s wall)")
    span = max(s.finished_at for s in done.values()) - min(record.due for record in sent.values())
    outcome.put("throughput_per_s", n / span, "1/s",
                f"{n} requests completed over {span:.2f} s at an offered {RATE:g}/s")
    outcome.put("latency_p50_ms", quantile(list(latency.values()), 0.5), "ms",
                f"median of {n} requests, due -> finished_at")
    outcome.put("latency_tail_ms", quantile(list(latency.values()), TAIL_SHARE), "ms",
                f"p{100.0 * TAIL_SHARE:.0f} of {n} requests, due -> finished_at")
    outcome.put("peak_rss_mb", peak_kb / 1024.0, "MB", "VmHWM of the server process before shutdown")
    return outcome


def layer_metrics(outcome, boots, sent, done, latency, health, documents) -> Outcome:
    """Per-layer split from the public timestamps, ``/healthz`` and result documents."""
    n = len(sent)

    def p50(name: str, values, what: str) -> None:
        outcome.put(name, median(values) if values else 0.0, "ms", f"median of {len(values)} {what}")

    for kind in CLASSES:
        p50(f"serve.{kind}_p50_ms", [latency[i] for i in latency if sent[i].kind == kind], f"{kind} requests")
    p50("serve.idle_p50_ms", [latency[i] for i in latency if sent[i].idle], "idle requests")
    p50("serve.busy_p50_ms", [latency[i] for i in latency if not sent[i].idle], "busy requests")
    p50("serve.submit_ms", [1000.0 * s.submit_s for s in sent.values()], "POST /v1/jobs round trips")
    solved = {i: s for i, s in done.items()
              if s.started_at is not None and not s.cache_hit and not s.deduped}
    p50("serve.queue_ms", [1000.0 * (s.started_at - s.submitted_at) for s in solved.values()], "started - submitted")
    p50("serve.engine_ms", [1000.0 * (s.finished_at - s.started_at) for s in solved.values()], "finished - started")
    p50("serve.solve_ms", [1000.0 * d["wall_time"] for d in documents.values()], "result wall_time values")
    fast = [d["result"]["global_time"] for i, d in documents.items() if sent[i].kind == "fast" and d.get("result")]
    outcome.put("core.fast_lane_ms", 1000.0 * sum(fast) / max(len(fast), 1), "ms",
                f"mean global_time of {len(fast)} fast results")
    for name, value in solver_counts([d.get("solve_stats") for d in documents.values()]).items():
        outcome.put(name, value, "count")
    counters = health.counters
    outcome.put("serve.batches", counters.get("batches", 0) / n, "count", f"per request, {n} requests")
    outcome.put("serve.batch_size_mean", (health.details.get("batches") or {}).get("mean_size") or 0.0, "count")
    outcome.put("serve.dedupe_share", counters.get("deduped", 0) / n, "share")
    outcome.put("serve.store_hit_share",
                (counters.get("memory_hits", 0) + counters.get("disk_hits", 0)) / n, "share")
    outcome.put("serve.boot_ms", 1000.0 * median(boots), "ms", f"median of {len(boots)} boots")
    outcome.put("client.lateness_max_ms", 1000.0 * max(s.sent - s.due for s in sent.values()), "ms")
    covered = sum(
        (sent[i].sent - sent[i].due) + (s.finished_at - s.submitted_at if i in solved else 0.0)
        for i, s in done.items()
    )
    outcome.put("trace.overhead_share", 0.0, "share", "nothing is wrapped in the server")
    outcome.put("trace.coverage_share", covered / (sum(latency.values()) / 1000.0), "share",
                "lateness + queue + engine over due -> finished_at")
    return outcome
