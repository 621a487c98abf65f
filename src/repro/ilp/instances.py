"""Seeded LP instance generators shared by the fuzz suite and benchmarks.

The kernel micro-benchmark (``benchmarks/bench_lp_kernel.py``) and the
differential fuzz suite (``tests/ilp/test_lp_fuzz.py``) solve the exact
same families, so both import them from here.  The infeasible and
unbounded status cases, which only the fuzz suite uses, live next to it
in ``tests/ilp/lp_status_cases.py``.  Every generator
is a pure function of its ``seed`` — same seed, same
:class:`~repro.ilp.standard_form.StandardForm` — which is what makes the
differential suite deterministic and the benchmark comparable across
runs.

Families:

* :func:`feasible_box_lp` — finite-box LPs, feasible by construction
  (every row passes through a sampled interior point); solvable by all
  three kernels including the dense tableau.
* :func:`mixed_variable_lp` — free/fixed/negative-lower/box variables in
  one instance; infinite lower bounds are outside the tableau kernel's
  contract, so this family cross-checks revised vs HiGHS only.
* :func:`degenerate_lp` — transportation-style rings with stacked
  redundant rows (primal degeneracy, anti-cycling exercise).
* :func:`large_sparse_lp` — the LU path's home turf: hundreds of rows
  at a few non-zeros per row (<5% density), feasible by construction.
"""

from __future__ import annotations

import numpy as np

from .expr import quicksum
from .model import Model
from .standard_form import StandardForm, to_standard_form

INF = float("inf")

__all__ = [
    "feasible_box_lp",
    "mixed_variable_lp",
    "degenerate_lp",
    "large_sparse_lp",
]


def feasible_box_lp(seed: int) -> StandardForm:
    """Finite-box LP, feasible by construction (rows pass an interior point).

    All lower bounds are finite, so every kernel — including the tableau,
    which requires finite ``lb`` — can solve it.
    """
    rng = np.random.RandomState(seed)
    n = int(rng.randint(2, 9))
    model = Model(f"fuzz-feasible-{seed}")
    upper = rng.uniform(1.0, 10.0, size=n)
    x = [model.add_continuous(f"x{i}", lb=0.0, ub=float(upper[i]))
         for i in range(n)]
    interior = rng.uniform(0.1, 0.9) * upper
    for row in range(int(rng.randint(1, 9))):
        coeffs = rng.uniform(-2.0, 2.0, size=n)
        rhs = float(coeffs @ interior)
        kind = rng.randint(3)
        expr = quicksum(float(c) * v for c, v in zip(coeffs, x))
        if kind == 0:
            model.add_constraint(expr <= rhs + float(rng.uniform(0.2, 2.0)),
                                 name=f"ub{row}")
        elif kind == 1:
            model.add_constraint(expr >= rhs - float(rng.uniform(0.2, 2.0)),
                                 name=f"ge{row}")
        else:
            model.add_constraint(expr == rhs, name=f"eq{row}")
    cost = rng.uniform(-5.0, 5.0, size=n)
    model.set_objective(quicksum(float(c) * v for c, v in zip(cost, x)))
    return to_standard_form(model)


def mixed_variable_lp(seed: int) -> StandardForm:
    """Free, fixed, negative-lower and box variables in one instance.

    Lower bounds may be infinite, which the tableau kernel rejects — this
    family cross-checks revised against HiGHS only.
    """
    rng = np.random.RandomState(seed)
    n = int(rng.randint(2, 7))
    model = Model(f"fuzz-mixed-{seed}")
    x = []
    for i in range(n):
        kind = rng.randint(4)
        if kind == 0:
            v = model.add_continuous(f"x{i}", lb=-INF, ub=INF)  # free
        elif kind == 1:
            v = model.add_continuous(f"x{i}", lb=float(rng.uniform(-5.0, 0.0)),
                                     ub=float(rng.uniform(1.0, 6.0)))
        elif kind == 2:
            fixed = float(rng.uniform(-2.0, 2.0))
            v = model.add_continuous(f"x{i}", lb=fixed, ub=fixed)
        else:
            v = model.add_continuous(f"x{i}", lb=0.0,
                                     ub=float(rng.uniform(1.0, 8.0)))
        x.append(v)
    lbs = np.array([max(-6.0, v.lb) for v in x])
    ubs = np.array([min(6.0, v.ub) for v in x])
    point = lbs + rng.uniform(0.2, 0.8, size=n) * (ubs - lbs)
    for row in range(int(rng.randint(1, 7))):
        coeffs = rng.uniform(-2.0, 2.0, size=n)
        value = float(coeffs @ point)
        kind = rng.randint(3)
        expr = quicksum(float(c) * v for c, v in zip(coeffs, x))
        if kind == 0:
            model.add_constraint(expr <= value + float(rng.uniform(0.2, 2.0)),
                                 name=f"ub{row}")
        elif kind == 1:
            model.add_constraint(expr >= value - float(rng.uniform(0.2, 2.0)),
                                 name=f"ge{row}")
        else:
            model.add_constraint(expr == value, name=f"eq{row}")
    cost = rng.uniform(-4.0, 4.0, size=n)
    model.set_objective(quicksum(float(c) * v for c, v in zip(cost, x)))
    return to_standard_form(model)


def degenerate_lp(seed: int) -> StandardForm:
    """Transportation-style LP with stacked redundant rows (primal degeneracy)."""
    rng = np.random.RandomState(seed)
    model = Model(f"fuzz-degenerate-{seed}")
    k = int(rng.randint(4, 7))
    x = [model.add_continuous(f"x{i}", lb=0.0, ub=2.0) for i in range(k)]
    for i in range(k):
        model.add_constraint(x[i] + x[(i + 1) % k] <= 2.0, name=f"ring{i}")
    model.add_constraint(quicksum(x) <= float(k), name="redundant-total")
    model.add_constraint(x[0] + x[k // 2] <= 2.0, name="redundant-chord")
    model.set_objective(-quicksum(x))
    return to_standard_form(model)


def large_sparse_lp(
    seed: int,
    m: int = 120,
    n: int = 150,
    nnz_per_row: int = 4,
) -> StandardForm:
    """Large sparse finite-box LP, feasible by construction.

    ``m`` rows over ``n`` box variables with ``nnz_per_row`` random
    coefficients each — density ``nnz_per_row / n`` (defaults to 2.7%,
    comfortably under the 5% the large-sparse fuzz family targets).
    Every row passes a sampled interior point, so the instance is
    feasible and, with the box finite, bounded.
    """
    rng = np.random.RandomState(seed)
    model = Model(f"fuzz-large-sparse-{seed}")
    upper = rng.uniform(1.0, 10.0, size=n)
    x = [model.add_continuous(f"x{i}", lb=0.0, ub=float(upper[i]))
         for i in range(n)]
    interior = rng.uniform(0.2, 0.8) * upper
    for row in range(m):
        cols = rng.choice(n, size=nnz_per_row, replace=False)
        coeffs = rng.uniform(-2.0, 2.0, size=nnz_per_row)
        rhs = float(coeffs @ interior[cols] + rng.uniform(0.5, 3.0))
        model.add_constraint(
            quicksum(float(c) * x[j] for c, j in zip(coeffs, cols)) <= rhs,
            name=f"r{row}",
        )
    cost = rng.uniform(-5.0, 5.0, size=n)
    model.set_objective(quicksum(float(c) * v for c, v in zip(cost, x)))
    return to_standard_form(model)
