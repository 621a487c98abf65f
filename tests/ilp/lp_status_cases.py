"""Seeded LPs with an unambiguous non-optimal status, for the fuzz suite.

Like the generators of :mod:`repro.ilp.instances`, each is a pure
function of its ``seed``: same seed, same
:class:`~repro.ilp.standard_form.StandardForm`.
"""

from __future__ import annotations

import numpy as np

from repro.ilp import Model, StandardForm, quicksum, to_standard_form

INF = float("inf")


def infeasible_lp(seed: int) -> StandardForm:
    """Unambiguously infeasible: a row demands more than the box can give."""
    rng = np.random.RandomState(seed)
    n = int(rng.randint(2, 7))
    model = Model(f"fuzz-infeasible-{seed}")
    upper = rng.uniform(1.0, 5.0, size=n)
    x = [model.add_continuous(f"x{i}", lb=0.0, ub=float(upper[i]))
         for i in range(n)]
    model.add_constraint(
        quicksum(x) >= float(upper.sum() + rng.uniform(0.5, 3.0)),
        name="impossible",
    )
    if seed % 2:  # a few satisfiable side rows to keep presight honest
        coeffs = rng.uniform(0.1, 1.0, size=n)
        model.add_constraint(
            quicksum(float(c) * v for c, v in zip(coeffs, x))
            <= float(coeffs @ upper),
            name="fine",
        )
    model.set_objective(quicksum(x))
    return to_standard_form(model)


def unbounded_lp(seed: int) -> StandardForm:
    """Unambiguously unbounded: a paying ray no ``<=`` row ever blocks."""
    rng = np.random.RandomState(seed)
    n = int(rng.randint(2, 6))
    model = Model(f"fuzz-unbounded-{seed}")
    ray = model.add_continuous("ray", lb=0.0, ub=INF)
    others = [model.add_continuous(f"x{i}", lb=0.0, ub=float(rng.uniform(1, 4)))
              for i in range(n - 1)]
    for row in range(int(rng.randint(1, 4))):
        # Non-positive coefficient on the ray: growing it never violates.
        ray_coeff = float(rng.uniform(-1.0, 0.0))
        coeffs = rng.uniform(-1.0, 1.0, size=n - 1)
        rhs = float(rng.uniform(1.0, 4.0))
        model.add_constraint(
            ray_coeff * ray
            + quicksum(float(c) * v for c, v in zip(coeffs, others))
            <= rhs,
            name=f"row{row}",
        )
    model.set_objective(-ray + quicksum(others) if others else -ray)
    return to_standard_form(model)
