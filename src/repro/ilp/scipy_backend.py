"""Optional SciPy backends (HiGHS) for LP relaxations and full MILPs.

The paper used the commercial CPLEX library; the primary replacement in this
reproduction is the from-scratch branch-and-bound solver in
:mod:`repro.ilp.branch_bound`.  SciPy's HiGHS bindings are wrapped here for
two purposes:

* as a fast LP-relaxation kernel inside the branch-and-bound loop (the
  ``"highs"`` LP backend), and
* as an independent full-MILP solver (``ScipyMilpSolver``) used by the
  solver-ablation benchmark and by the test suite to cross-check optimal
  objective values produced by the built-in solver.

Everything degrades gracefully: if SciPy is unavailable the module still
imports and :func:`highs_available` returns ``False``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import SolverError
from .solution import (
    ERROR,
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    TIMEOUT,
    UNBOUNDED,
    LpResult,
    Solution,
    SolveStats,
)
from .standard_form import StandardForm, to_standard_form

__all__ = ["highs_available", "solve_lp_highs", "ScipyMilpSolver"]

try:  # pragma: no cover - exercised implicitly on import
    from scipy.optimize import LinearConstraint, linprog, milp
    from scipy.optimize import Bounds as _Bounds
    from scipy.sparse import csr_matrix as _scipy_csr

    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - scipy is installed in the target env
    _HAVE_SCIPY = False


def _scipy_matrix(matrix):
    """Hand a CsrMatrix to SciPy without a dense detour."""
    return _scipy_csr(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )


def highs_available() -> bool:
    """Whether the SciPy/HiGHS backends can be used in this environment."""
    return _HAVE_SCIPY


def solve_lp_highs(form: StandardForm) -> LpResult:
    """Solve the LP relaxation of ``form`` with ``scipy.optimize.linprog``."""
    if not _HAVE_SCIPY:  # pragma: no cover - defensive
        raise SolverError("SciPy is not available; use the simplex backend")
    bounds = list(zip(form.lb.tolist(), [None if not np.isfinite(u) else u for u in form.ub]))
    result = linprog(
        c=form.c,
        A_ub=_scipy_matrix(form.A_ub_sparse) if form.num_ub_rows else None,
        b_ub=form.b_ub if form.b_ub.size else None,
        A_eq=_scipy_matrix(form.A_eq_sparse) if form.num_eq_rows else None,
        b_eq=form.b_eq if form.b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    iterations = int(getattr(result, "nit", 0) or 0)
    if result.status == 0:
        return LpResult(OPTIMAL, x=np.asarray(result.x), objective=float(result.fun),
                        iterations=iterations)
    if result.status == 2:
        return LpResult(INFEASIBLE, iterations=iterations)
    if result.status == 3:
        return LpResult(UNBOUNDED, iterations=iterations)
    return LpResult(ERROR, iterations=iterations)


@dataclass
class ScipyMilpSolver:
    """Full MILP solve through ``scipy.optimize.milp`` (HiGHS branch-and-cut).

    Parameters mirror the built-in solver where they make sense so the two
    can be swapped freely in benchmarks.
    """

    time_limit: Optional[float] = None
    rel_gap: float = 1e-6
    name: ClassVar[str] = "scipy-milp"
    #: variable indices forced to zero (the pipeline's forbidden pairs);
    #: applied as bounds so every backend honours the same fixings.
    fix_zero: Optional[Sequence[int]] = None

    def solve(self, model) -> Solution:
        if not _HAVE_SCIPY:  # pragma: no cover - defensive
            raise SolverError("SciPy is not available; use the built-in solver")
        start = time.perf_counter()
        form = to_standard_form(model)
        if self.fix_zero:
            ub = form.ub.copy()
            fixed = np.asarray(sorted(set(int(i) for i in self.fix_zero)), dtype=int)
            if fixed.size and (np.any(fixed < 0) or np.any(fixed >= form.num_variables)):
                raise SolverError("fix_zero index outside the model")
            ub[fixed] = 0.0
            form = form.with_bounds(form.lb, ub)
        if np.any(form.lb > form.ub + 1e-12):
            # A fixing excluded a variable whose lower bound requires it
            # (scipy's Bounds would reject the crossed interval outright).
            return Solution(
                status=INFEASIBLE,
                stats=SolveStats(wall_time=time.perf_counter() - start,
                                 backend=self.name),
                variable_names={i: n for i, n in enumerate(form.variable_names)},
                message="crossed variable bounds",
            )

        constraints = []
        if form.num_ub_rows:
            constraints.append(
                LinearConstraint(_scipy_matrix(form.A_ub_sparse), -np.inf, form.b_ub)
            )
        if form.num_eq_rows:
            constraints.append(
                LinearConstraint(_scipy_matrix(form.A_eq_sparse), form.b_eq, form.b_eq)
            )
        bounds = _Bounds(form.lb, form.ub)
        options = {"mip_rel_gap": self.rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        result = milp(
            c=form.c,
            constraints=constraints or None,
            bounds=bounds,
            integrality=form.integrality.astype(int),
            options=options,
        )
        elapsed = time.perf_counter() - start
        stats = SolveStats(wall_time=elapsed, backend=self.name,
                           lp_solves=0, nodes_explored=0)

        names = {i: n for i, n in enumerate(form.variable_names)}
        if result.status == 0 and result.x is not None:
            x = np.asarray(result.x)
            return Solution(
                status=OPTIMAL,
                objective=form.user_objective(x),
                values=x,
                stats=stats,
                variable_names=names,
            )
        if result.status == 1 and result.x is not None:
            # Stopped on a limit but an incumbent exists.
            x = np.asarray(result.x)
            return Solution(
                status=TIMEOUT if self.time_limit else FEASIBLE,
                objective=form.user_objective(x),
                values=x,
                stats=stats,
                variable_names=names,
                message=str(result.message),
            )
        if result.status == 2:
            return Solution(status=INFEASIBLE, stats=stats, variable_names=names,
                            message=str(result.message))
        if result.status == 3:
            return Solution(status=UNBOUNDED, stats=stats, variable_names=names,
                            message=str(result.message))
        return Solution(status=ERROR, stats=stats, variable_names=names,
                        message=str(result.message))
