"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans around the calls into
each layer and prints the per-layer metrics.  Every run checks the
program's outputs; the process exits non-zero, without a result line,
when it cannot run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import SRC, BenchError, median, python_boot, result_document  # noqa: E402

WORKLOADS = ("table3", "sweep", "serve")
CLI_BOOTS = 3


def cli_import(outcome) -> None:
    """``import repro.cli`` in fresh interpreters: its cost and whether SciPy came along."""
    probes = [json.loads(python_boot(["cli"])[1]) for _ in range(CLI_BOOTS)]
    outcome.put("cli.import_ms", median([p["import_ms"] for p in probes]), "ms",
                f"median of {CLI_BOOTS} fresh interpreters")
    outcome.put("cli.scipy_imported", float(any(p["scipy"] for p in probes)), "flag")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(f"perfbench.{args.workload}")
    trace = bool(args.trace)
    start = time.perf_counter()
    try:
        outcome = module.run(args.seed, args.seconds, trace)
        if trace:
            cli_import(outcome)
        document = result_document(outcome, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(f"  {note}")
    for message in outcome.mismatches[:20]:
        print(f"  MISMATCH {message}")
    for name, entry in document["metrics"].items():
        print(f"{args.workload:>7} {name:<28} {entry['value']:>14.4f} {entry['unit']}")
    print(f"[{args.workload}] {document['attempted']} attempted, {document['failed']} failed, "
          f"correct={document['correct']}, {time.perf_counter() - start:.1f}s")
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
