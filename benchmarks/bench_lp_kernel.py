#!/usr/bin/env python
"""LP kernel micro-benchmark: tableau vs dense-inverse vs LU eta-file.

Runs the seeded fuzz-corpus families (shared with the differential suite
via :mod:`repro.ilp.instances`) plus a few genuinely large sparse
instances through every LP kernel the repository ships:

* ``tableau`` — the legacy dense tableau (finite-``lb`` families only),
* ``dense`` — revised simplex on an explicit dense inverse,
* ``lu`` — revised simplex on the Markowitz LU + eta file.

Each (family, kernel) cell reports total pivots, update etas applied,
refactorizations and wall seconds, and whether every objective matched
the dense-inverse reference to 1e-6.  The document lands in
``BENCH_lp_kernel.json`` (``--artifact-dir``, default
``bench-artifacts``); ``scripts/bench_compare.py --check`` validates it
and the CI smoke job diffs a fresh run against the committed baseline on
the *deterministic* counters (total pivots), not wall time.

Usage::

    PYTHONPATH=src python benchmarks/bench_lp_kernel.py --quick
    PYTHONPATH=src python benchmarks/bench_lp_kernel.py \
        --artifact-dir bench-artifacts
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.artifacts import write_bench_artifact  # noqa: E402
from repro.ilp import (  # noqa: E402
    RevisedOptions,
    SimplexOptions,
    solve_lp_revised,
    solve_lp_simplex,
)
from repro.ilp.instances import (  # noqa: E402
    degenerate_lp,
    feasible_box_lp,
    large_sparse_lp,
    mixed_variable_lp,
)

#: Fuzz-corpus families: (name, generator, seeds, tableau-capable).  The
#: tableau kernel requires finite lower bounds, which the mixed family
#: deliberately violates.
_FUZZ_FAMILIES: Sequence[Tuple[str, Callable[[int], Any], Tuple[int, ...], bool]] = (
    ("feasible", feasible_box_lp, tuple(range(1, 21)), True),
    ("mixed", mixed_variable_lp, tuple(range(100, 116)), False),
    ("degenerate", degenerate_lp, tuple(range(400, 406)), True),
)

#: Large sparse instances: (label suffix, seed, m, n).  The tableau
#: kernel is excluded here — it is quadratic in the row count and
#: contributes nothing at this scale.
_LARGE_SPARSE_FULL: Sequence[Tuple[str, int, int, int]] = (
    ("m120", 500, 120, 150),
    ("m120b", 501, 120, 150),
    ("m300", 500, 300, 360),
    ("m600", 500, 600, 720),
)
_LARGE_SPARSE_QUICK: Sequence[Tuple[str, int, int, int]] = (
    ("m120", 500, 120, 150),
    ("m120b", 501, 120, 150),
)


def _revised_kernel(factorization: str):
    options = RevisedOptions(factorization=factorization)

    def solve(form):
        return solve_lp_revised(form, options)

    return solve


def _tableau_kernel(form):
    return solve_lp_simplex(form, SimplexOptions())


#: Every kernel this benchmark knows, in presentation order.
_KERNELS: Sequence[Tuple[str, Callable[[Any], Any]]] = (
    ("tableau", _tableau_kernel),
    ("dense", _revised_kernel("dense")),
    ("lu", _revised_kernel("lu")),
)


def _run_cell(
    family: str,
    kernel: str,
    solve: Callable[[Any], Any],
    forms: Sequence[Any],
    references: Sequence[Optional[float]],
) -> Dict[str, Any]:
    """Solve every instance of one family with one kernel."""
    pivots = etas = refactorizations = 0
    objectives_match = True
    started = time.perf_counter()
    for form, reference in zip(forms, references):
        result = solve(form)
        pivots += int(getattr(result, "iterations", 0))
        etas += int(getattr(result, "etas_applied", 0))
        refactorizations += int(getattr(result, "refactorizations", 0))
        if reference is not None:
            if result.status != "optimal" or result.objective is None or \
                    abs(result.objective - reference) > 1e-6 * max(1.0, abs(reference)):
                objectives_match = False
    wall = time.perf_counter() - started
    return {
        "label": f"{family}/{kernel}",
        "family": family,
        "kernel": kernel,
        "solves": len(forms),
        "pivots": pivots,
        "etas_applied": etas,
        "refactorizations": refactorizations,
        "wall_seconds": wall,
        "objectives_match": objectives_match,
    }


def _family_rows(
    family: str,
    forms: Sequence[Any],
    tableau_ok: bool,
) -> List[Dict[str, Any]]:
    # The dense-inverse revised kernel is the reference every other
    # kernel's objectives are compared against.
    references: List[Optional[float]] = []
    for form in forms:
        result = solve_lp_revised(form, RevisedOptions(factorization="dense"))
        references.append(
            result.objective if result.status == "optimal" else None
        )
    rows = []
    for kernel, solve in _KERNELS:
        if kernel == "tableau" and not tableau_ok:
            continue
        rows.append(_run_cell(family, kernel, solve, forms, references))
    return rows


def run(quick: bool) -> Dict[str, Any]:
    started = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    for family, generator, seeds, tableau_ok in _FUZZ_FAMILIES:
        if quick:
            seeds = seeds[: max(4, len(seeds) // 2)]
        forms = [generator(seed) for seed in seeds]
        rows.extend(_family_rows(family, forms, tableau_ok))
    sparse = _LARGE_SPARSE_QUICK if quick else _LARGE_SPARSE_FULL
    for suffix, seed, m, n in sparse:
        forms = [large_sparse_lp(seed, m=m, n=n)]
        rows.extend(_family_rows(f"large-sparse-{suffix}", forms, False))
    wall = time.perf_counter() - started
    return {
        "kind": "bench_artifact",
        "artifact_version": 1,
        "name": "lp_kernel",
        "solver": "lp-kernels",
        "quick": quick,
        "num_points": len(rows),
        "wall_seconds": wall,
        "total_pivots": sum(r["pivots"] for r in rows),
        "total_etas_applied": sum(r["etas_applied"] for r in rows),
        "total_refactorizations": sum(r["refactorizations"] for r in rows),
        "all_objectives_match": all(r["objectives_match"] for r in rows),
        "results": rows,
    }


def render(payload: Dict[str, Any]) -> str:
    lines = [
        f"{'cell':<28} {'solves':>6} {'pivots':>8} {'etas':>8} "
        f"{'refacs':>6} {'wall s':>9} {'match':>6}"
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['label']:<28} {row['solves']:>6} {row['pivots']:>8} "
            f"{row['etas_applied']:>8} {row['refactorizations']:>6} "
            f"{row['wall_seconds']:>9.3f} "
            f"{'yes' if row['objectives_match'] else 'NO':>6}"
        )
    lines.append(
        f"totals: {payload['total_pivots']} pivots, "
        f"{payload['total_etas_applied']} etas, "
        f"{payload['total_refactorizations']} refactorizations, "
        f"{payload['wall_seconds']:.3f}s"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the LP kernels against the fuzz corpus")
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus (CI smoke): half the fuzz "
                             "seeds, large-sparse at m=120 only")
    parser.add_argument("--artifact-dir", default="bench-artifacts",
                        help="directory for BENCH_lp_kernel.json "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    payload = run(quick=args.quick)
    print(render(payload))
    path = write_bench_artifact("lp_kernel", payload, args.artifact_dir)
    print(f"[artifact written to {path}]")
    if not payload["all_objectives_match"]:
        print("FAIL: some kernel disagreed with the dense-inverse reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
