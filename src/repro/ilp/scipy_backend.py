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

SciPy is imported when a HiGHS solve first needs it, never by importing
this module: a ``scipy.optimize`` import costs more than most mappings, and
many runs solve no LP at all.  :func:`highs_available` asks whether SciPy
is installed without importing it; a long-lived process calls :func:`load`
before it takes work, so that no request or job pays the import.
"""

from __future__ import annotations

import functools
import importlib.util
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

__all__ = ["highs_available", "load", "solve_lp_highs", "ScipyMilpSolver"]


@functools.lru_cache(maxsize=None)
def highs_available() -> bool:
    """Whether SciPy (and so HiGHS) is installed; asking does not import it."""
    return importlib.util.find_spec("scipy") is not None


def _scipy():
    """``scipy.optimize`` and ``scipy.sparse``, imported by the first call."""
    try:
        import scipy.optimize
        import scipy.sparse
    except ImportError as exc:
        raise SolverError(f"SciPy is not available ({exc}); use bnb-pure") from exc
    return scipy.optimize, scipy.sparse


def load() -> None:
    """Import SciPy now, so that no later solve pays for it; a no-op without SciPy."""
    if highs_available():
        try:
            _scipy()
        except SolverError:
            pass  # a broken install fails in the solve that needs it


def _scipy_matrix(matrix):
    """Hand a CsrMatrix to SciPy without a dense detour, once per matrix.

    Branch-and-bound node forms share their matrices
    (:meth:`StandardForm.with_bounds`), so a tree converts each matrix
    once, not once per node LP.  The copy is in COO form because
    ``linprog`` copies its input into COO form before use, which also
    leaves the cached copy untouched.
    """
    if matrix._scipy is None:
        matrix._scipy = _scipy()[1].coo_array(
            (matrix.data, (matrix.rows_of_nonzeros(), matrix.indices)),
            shape=matrix.shape, copy=True,
        )
    return matrix._scipy


def solve_lp_highs(form: StandardForm) -> LpResult:
    """Solve the LP relaxation of ``form`` with ``scipy.optimize.linprog``."""
    optimize, _ = _scipy()
    result = optimize.linprog(
        c=form.c,
        A_ub=_scipy_matrix(form.A_ub_sparse) if form.num_ub_rows else None,
        b_ub=form.b_ub if form.b_ub.size else None,
        A_eq=_scipy_matrix(form.A_eq_sparse) if form.num_eq_rows else None,
        b_eq=form.b_eq if form.b_eq.size else None,
        bounds=np.column_stack((form.lb, form.ub)),
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
        optimize, _ = _scipy()
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
                optimize.LinearConstraint(_scipy_matrix(form.A_ub_sparse), -np.inf, form.b_ub)
            )
        if form.num_eq_rows:
            constraints.append(
                optimize.LinearConstraint(_scipy_matrix(form.A_eq_sparse), form.b_eq, form.b_eq)
            )
        bounds = optimize.Bounds(form.lb, form.ub)
        options = {"mip_rel_gap": self.rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        result = optimize.milp(
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
