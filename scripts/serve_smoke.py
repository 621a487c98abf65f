#!/usr/bin/env python
"""End-to-end smoke test of the mapping service (the CI `serve-smoke` job).

Boots ``repro serve`` as a real subprocess, drives it through the real
``repro submit`` CLI, and asserts the serving guarantees the repository
makes:

1. the server comes up and answers ``/healthz``;
2. N concurrent submissions (with duplicates) all complete, duplicates
   dedupe to fewer solves than submissions, and coalescing produced
   fewer engine batches than jobs;
3. every served fingerprint equals the fingerprint of the equivalent
   direct ``repro batch`` run — the service changes *where* mappings are
   computed, never *what* they are;
4. a mixed exact/fast burst keeps both contracts: fast responses carry a
   certified optimality gap within the requested limit, and the exact
   jobs' fingerprints are untouched by the fast lane;
5. the server shuts down cleanly on request (bounded by a timeout, with
   SIGKILL as the fallback so CI never hangs) and stops answering
   ``/healthz`` afterwards;
6. a **parallel server** (``repro serve --jobs 2 --cache-dir D``)
   answers the same traffic with fingerprints identical to a direct run,
   dedupes duplicates, and survives an open-loop ``repro loadgen`` burst
   with zero errors and zero fingerprint conflicts.

Boot is retried over a small set of candidate ports (a fixed port can
race a previous run still tearing down on a shared CI box), server
stdout is pumped continuously into a bounded tail (so a chatty server
never blocks on a full pipe), and every failure report carries the
captured log tail.

Exit code 0 on success, 1 on any violated expectation.  Run it locally::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from typing import Deque, List, Sequence, Tuple

PORT = int(os.environ.get("SERVE_SMOKE_PORT", "18742"))
PARALLEL_PORT = PORT + 1
BOARD = "virtex-xcv1000"
DESIGNS = ["fir-filter", "matrix-multiply", "image-pipeline", "fft"]
REPEAT = 2  # 4 designs x 2 = 8 concurrent submissions, 4 unique solves
SOLVER = "bnb-pure"
STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0
#: Boot attempts (each on a different candidate port) before giving up.
BOOT_ATTEMPTS = 3
#: Most recent server log lines kept for failure reports.
LOG_TAIL = 400


def cli(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "repro", *args]
    completed = subprocess.run(command, capture_output=True, text=True)
    if check and completed.returncode != 0:
        raise AssertionError(
            f"command {' '.join(command)} exited "
            f"{completed.returncode}:\n{completed.stdout}\n{completed.stderr}"
        )
    return completed


def wait_for_health(deadline: float, url: str) -> None:
    while time.monotonic() < deadline:
        probe = cli("submit", "--url", url, "--health", check=False)
        if probe.returncode == 0:
            return
        time.sleep(0.25)
    raise AssertionError(f"server at {url} did not answer /healthz in time")


def _drain(stream, sink: Deque[str]) -> None:
    """Pump server stdout into a bounded deque until EOF.

    Keeps the pipe from filling (which would block the server on
    ``print``) while retaining the recent tail for failure reports.
    """
    for line in iter(stream.readline, ""):
        sink.append(line.rstrip())


def start_server(
    extra_args: Sequence[str], base_port: int, log_prefix: str
) -> Tuple[subprocess.Popen, str, Deque[str]]:
    """Boot ``repro serve`` with a bounded retry over candidate ports."""
    last_log: List[str] = []
    for attempt in range(BOOT_ATTEMPTS):
        port = base_port + 20 * attempt
        url = f"http://127.0.0.1:{port}"
        logs: Deque[str] = deque(maxlen=LOG_TAIL)
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port), *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        threading.Thread(
            target=_drain, args=(server.stdout, logs), daemon=True
        ).start()
        try:
            wait_for_health(time.monotonic() + STARTUP_TIMEOUT, url=url)
            return server, url, logs
        except AssertionError:
            stop_server(server, log_prefix, logs)
            last_log = list(logs)
            print(
                f"[{log_prefix}] boot attempt {attempt + 1}/{BOOT_ATTEMPTS} "
                f"on port {port} failed",
                file=sys.stderr,
            )
    raise AssertionError(
        f"server did not boot after {BOOT_ATTEMPTS} attempts; last log:\n"
        + "\n".join(last_log)
    )


def stop_server(
    server: subprocess.Popen, log_prefix: str, logs: Deque[str]
) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    if logs:
        print(f"[{log_prefix}] server log (last {len(logs)} lines):")
        for line in logs:
            print(f"  {line}")
        logs.clear()


def assert_clean_shutdown(
    server: subprocess.Popen, url: str, what: str
) -> None:
    """Post-shutdown teardown contract: clean exit, port released."""
    try:
        code = server.wait(timeout=SHUTDOWN_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise AssertionError(
            f"{what} did not exit within {SHUTDOWN_TIMEOUT:.0f}s of shutdown"
        )
    assert code == 0, f"{what} exited {code} after graceful shutdown"
    probe = cli("submit", "--url", url, "--health", check=False)
    assert probe.returncode != 0, (
        f"{what} still answers /healthz after reporting shutdown"
    )


def direct_reference() -> dict:
    """design name -> fingerprint from a direct ``repro batch`` run."""
    batch = cli(
        "batch", "--board", BOARD, "--solver", SOLVER,
        *[arg for design in DESIGNS for arg in ("--design", design)],
        "--json",
    )
    return {
        result["label"].split("@")[0]: result["fingerprint"]
        for result in json.loads(batch.stdout)["results"]
    }


def parallel_phase(reference: dict) -> None:
    """Boot ``repro serve --jobs 2`` and hold it to the same contract."""
    cache_dir = tempfile.mkdtemp(prefix="serve-smoke-cache-")
    server, url, logs = start_server(
        ["--jobs", "2", "--cache-dir", cache_dir, "--max-batch", "4"],
        PARALLEL_PORT,
        "smoke/jobs2",
    )
    try:
        print(f"[smoke/jobs2] 2-worker server is up at {url}")

        submit = cli(
            "submit", "--url", url, "--board", BOARD,
            "--solver", SOLVER,
            *[arg for design in DESIGNS for arg in ("--design", design)],
            "--repeat", str(REPEAT), "--json",
        )
        submitted = json.loads(submit.stdout)
        jobs = submitted["jobs"]
        assert len(jobs) == len(DESIGNS) * REPEAT, submitted
        assert submitted["num_failed"] == 0, submitted
        deduped = sum(1 for job in jobs if job["deduped"] or job["cache_hit"])
        assert deduped >= len(DESIGNS) * (REPEAT - 1), (
            f"expected >= {len(DESIGNS)} deduped/cached jobs, got {deduped}"
        )
        for job in jobs:
            design = job["label"].split("@")[0]
            assert job["fingerprint"] == reference[design], (
                f"fingerprint of {design} on 2 workers differs from the "
                f"direct run: {job['fingerprint']} != {reference[design]}"
            )
        print(f"[smoke/jobs2] {len(jobs)} submissions ok, {deduped} "
              "deduped, all fingerprints match the direct run")

        loadgen = cli(
            "loadgen", "--url", url, "--board", BOARD,
            "--solver", SOLVER,
            *[arg for design in DESIGNS[:3] for arg in ("--design", design)],
            "--duration", "4", "--rate", "4", "--arrival", "bursty",
            "--duplicate-ratio", "0.6", "--seed", "3", "--json",
        )
        report = json.loads(loadgen.stdout)
        assert report["errors"] == 0, report
        assert report["completed"] > 0, report
        assert report["fingerprint_conflicts"] == 0, report
        assert report["deduped"] + report["cache_hits"] > 0, (
            "a 0.6-duplicate burst produced no dedupe/cache hits"
        )
        print(f"[smoke/jobs2] loadgen burst ok: {report['completed']} "
              f"completed, {report['deduped'] + report['cache_hits']} "
              "answered without a duplicate solve, 0 errors")

        health = json.loads(cli("submit", "--url", url, "--health").stdout)
        assert health["workers"] == 2, health

        cli("submit", "--url", url, "--shutdown")
        assert_clean_shutdown(server, url, "2-worker server")
        print("[smoke/jobs2] clean shutdown")
    finally:
        stop_server(server, "smoke/jobs2", logs)


def main() -> int:
    server, url, logs = start_server(
        ["--max-batch", "4"], PORT, "smoke"
    )
    try:
        print(f"[smoke] server is up at {url}")

        submit = cli(
            "submit", "--url", url, "--board", BOARD, "--solver", SOLVER,
            *[arg for design in DESIGNS for arg in ("--design", design)],
            "--repeat", str(REPEAT), "--json",
        )
        submitted = json.loads(submit.stdout)
        jobs = submitted["jobs"]
        assert len(jobs) == len(DESIGNS) * REPEAT, submitted
        assert submitted["num_failed"] == 0, submitted
        assert all(job["state"] == "done" for job in jobs), submitted
        deduped = sum(1 for job in jobs if job["deduped"] or job["cache_hit"])
        assert deduped >= len(DESIGNS) * (REPEAT - 1), (
            f"expected >= {len(DESIGNS)} deduped/cached jobs, got {deduped}"
        )
        print(f"[smoke] {len(jobs)} submissions ok, {deduped} answered "
              "without a duplicate solve")

        health = json.loads(cli("submit", "--url", url, "--health").stdout)
        batches = health["counters"]["batches"]
        assert 0 < batches < len(jobs), (
            f"expected coalescing into fewer than {len(jobs)} batches, "
            f"got {batches}"
        )
        print(f"[smoke] burst coalesced into {batches} engine batch(es)")

        reference = direct_reference()
        for job in jobs:
            design = job["label"].split("@")[0]
            assert job["fingerprint"] == reference[design], (
                f"served fingerprint of {design} differs from the direct "
                f"batch run: {job['fingerprint']} != {reference[design]}"
            )
        print(f"[smoke] all {len(jobs)} served fingerprints match the "
              "direct `repro batch` run")

        # Mixed exact/fast burst: fast jobs must carry a certified gap
        # within the contract, and re-submitted exact jobs must keep the
        # fingerprints of the first burst (fast mode is a separate cache
        # lane, never a silent substitute for an exact answer).
        mixed = cli(
            "submit", "--url", url, "--board", BOARD, "--solver", SOLVER,
            *[arg for design in DESIGNS for arg in ("--design", design)],
            "--fast", "--gap", "0.05", "--json",
        )
        fast_jobs = json.loads(mixed.stdout)["jobs"]
        assert all(job["state"] == "done" for job in fast_jobs), fast_jobs
        for job in fast_jobs:
            gap = job["gap"]
            assert isinstance(gap, (int, float)) and 0.0 <= gap <= 0.05, (
                f"fast job {job['label']} reported gap {gap!r}, expected a "
                "certified value within the 5% contract"
            )
        exact_again = cli(
            "submit", "--url", url, "--board", BOARD, "--solver", SOLVER,
            *[arg for design in DESIGNS for arg in ("--design", design)],
            "--json",
        )
        for job in json.loads(exact_again.stdout)["jobs"]:
            design = job["label"].split("@")[0]
            assert job["gap"] is None, (
                f"exact job {design} unexpectedly carries a gap: {job['gap']}"
            )
            assert job["fingerprint"] == reference[design], (
                f"exact fingerprint of {design} changed after the fast "
                f"burst: {job['fingerprint']} != {reference[design]}"
            )
        health = json.loads(cli("submit", "--url", url, "--health").stdout)
        assert health["counters"]["fast_jobs"] == len(DESIGNS), health["counters"]
        print(f"[smoke] mixed burst ok: {len(fast_jobs)} fast jobs within "
              "the gap contract, exact fingerprints unchanged")

        cli("submit", "--url", url, "--shutdown")
        assert_clean_shutdown(server, url, "server")
        print("[smoke] clean shutdown")

        parallel_phase(reference)
        print("[smoke] PASS")
        return 0
    except AssertionError as failure:
        print(f"[smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    finally:
        stop_server(server, "smoke", logs)


if __name__ == "__main__":
    sys.exit(main())
