"""Shared plumbing: paths, fresh-process boots, memory, percentiles, results."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh-process boots per run; ``setup_s`` is their calibrated median.
BOOTS = 5
#: ``Calibration`` kernel samples before every boot.
BOOT_SAMPLES = 4


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Harness knobs that would silently change what is measured.
    for name in ("REPRO_SOLVER", "REPRO_TIME_LIMIT", "REPRO_FULL_TABLE3",
                 "REPRO_LP_PRICING", "REPRO_LP_FACTORIZATION"):
        env.pop(name, None)
    return env


def python_boot(args: Sequence[str], timeout: float = 120.0) -> Tuple[float, str]:
    """Run ``perfbench/boot.py`` in a fresh interpreter: (seconds, stdout)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "boot.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"boot {' '.join(args)} failed:\n{done.stderr[-2000:]}")
    return elapsed, done.stdout


def status_kb(pid: int, key: str) -> int:
    """A ``Vm*`` field of ``/proc/<pid>/status`` in kB (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children_of(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(token) for token in handle.read().split())
    except OSError:
        pass
    return kids


def tree_rss_kb(pid: int) -> int:
    """Resident memory of ``pid`` and all its descendants, in kB."""
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        total += status_kb(current, "VmRSS")
        stack.extend(children_of(current))
    return total


# ----------------------------------------------------------------- statistics
def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights.  It estimates the same quantile as the sample one, with a
    smaller spread on the few dozen samples a run gets of some operations.
    """
    import numpy
    from scipy.special import betainc

    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        raise BenchError("quantile of an empty sample")
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(edges), ordered))


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


# ---------------------------------------------------------------- calibration
#: A fixed scale: about the fastest ``Calibration.kernel`` time seen on a
#: 2-vCPU VM at 2.0 GHz (7.55 ms in 300 samples; their median was 8.9 ms).
KERNEL_NOMINAL_S = 0.0075


class Calibration:
    """Machine speed, sampled by a fixed kernel the program cannot change.

    On a shared host the same code runs up to 1.5x slower for tens of
    seconds while neighbours are busy, with no steal time or run-queue wait
    to show for it.  A workload times ``kernel`` between its operations;
    ``scale`` is the kernel's nominal time over its mean measured time, so
    ``seconds * scale`` reads as seconds on the unloaded machine.

    The kernel solves one fixed LP three times with SciPy's HiGHS, the LP
    code the default solver spends most of its time in.  Over 43 Table 3
    passes its time tracked the pass time with correlation 0.90, better than
    pure-interpreter, NumPy or memory-walk kernels did (0.60-0.84).
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(1)
        self._matrix = rng.random((30, 50))
        self._bounds = 0.5 * self._matrix.sum(axis=1)
        self._cost = -rng.random(50)
        self.samples: List[float] = []

    def kernel(self) -> float:
        from scipy.optimize import linprog

        start = time.perf_counter()
        for _ in range(3):
            result = linprog(self._cost, A_ub=self._matrix, b_ub=self._bounds, bounds=(0, 1), method="highs")
            if result.status != 0:
                raise BenchError(f"calibration LP failed: {result.message}")
        return time.perf_counter() - start

    def sample(self, count: int = 1) -> None:
        self.samples.extend(self.kernel() for _ in range(count))

    def scale(self) -> float:
        if not self.samples:
            raise BenchError("calibration has no samples")
        return KERNEL_NOMINAL_S / statistics.fmean(self.samples)

    def note(self) -> str:
        mean_ms = 1000.0 * statistics.fmean(self.samples)
        return (f"calibration: {len(self.samples)} kernel samples, mean {mean_ms:.2f} ms "
                f"(nominal {1000.0 * KERNEL_NOMINAL_S:.2f} ms): times x {self.scale():.4f}")


# --------------------------------------------------------------------- results
@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Human-readable notes: sample counts, percentiles, definitions.
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches and self.attempted > 0

    def put(self, name: str, value: float, unit: str, note: Optional[str] = None) -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes.append(f"{name}: {note}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit declared in ``BENCHMARK.json`` for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def result_document(outcome: Outcome, trace: bool) -> Dict[str, object]:
    """The final JSON line: exactly the declared metrics of the mode.

    A per-layer metric the workload never enters (say ``engine.ipc_ms`` on
    ``table3``) reads 0: no time was spent in that layer.
    """
    declared = declared_metrics(trace)
    unknown = sorted(set(outcome.metrics) - set(declared))
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in declared.items():
        if name in outcome.metrics:
            value, got_unit = outcome.metrics[name]
            if got_unit != unit:
                raise BenchError(f"{name}: unit {got_unit!r}, declared {unit!r}")
        elif trace:
            value = 0.0
        else:
            raise BenchError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
