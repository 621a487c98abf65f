"""Optional SciPy backends (HiGHS) for LP relaxations and full MILPs.

The paper used the commercial CPLEX library; the primary replacement in this
reproduction is the from-scratch branch-and-bound solver in
:mod:`repro.ilp.branch_bound`.  SciPy's HiGHS bindings are wrapped here for
two purposes:

* as a fast LP-relaxation kernel inside the branch-and-bound loop (the
  ``"highs"`` LP backend).  A tree solves all its node LPs in one
  :class:`HighsLp`: one HiGHS instance built from the reduced form's CSR
  rows, whose column bounds each node changes before it runs again, so
  HiGHS hot-starts its dual simplex from the last node's basis instead of
  cold-starting every node;
* as an independent full-MILP solver (``ScipyMilpSolver``) used by the
  solver-ablation benchmark and by the test suite to cross-check optimal
  objective values produced by the built-in solver.

SciPy is imported when a HiGHS solve first needs it, never by importing
this module: a ``scipy.optimize`` import costs more than most mappings, and
many runs solve no LP at all.  :func:`highs_available` asks whether SciPy
is installed without importing it, :func:`bindings` imports the HiGHS
bindings (``scipy.optimize._highspy._core``, SciPy >= 1.15), and a
long-lived process calls :func:`load` before it takes work, so that no
request or job pays the import.
"""

from __future__ import annotations

import functools
import importlib.util
import time
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Union

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
from .sparse import CsrMatrix
from .standard_form import StandardForm, to_standard_form

__all__ = ["highs_available", "bindings", "load", "HighsLp", "solve_lp_highs",
           "ScipyMilpSolver"]


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


def bindings():
    """SciPy's HiGHS bindings, imported by the first call.

    Raises :class:`SolverError` when they do not import: SciPy is missing,
    broken, or older than 1.15.
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise SolverError(f"SciPy's HiGHS bindings are not available ({exc}); "
                          "use bnb-pure") from exc
    return _core


def load() -> None:
    """Import SciPy now, so that no later solve pays for it; a no-op without SciPy."""
    if highs_available():
        try:
            _scipy()
            bindings()
        except SolverError:
            pass  # a broken install fails in the solve that needs it


class HighsLp:
    """One HiGHS instance over the rows of ``form``, re-solved under new column bounds.

    The first :meth:`solve` builds the instance; every later one changes
    the column bounds and runs again, so HiGHS hot-starts its dual simplex
    from the basis the previous solve left.  Costs and rows never change.
    """

    def __init__(self, form: StandardForm) -> None:
        self.form = form
        self._highs = None
        self._columns = np.arange(form.num_variables, dtype=np.int32)

    def _build(self, core, lb: np.ndarray, ub: np.ndarray):
        # HiGHS takes ranged rows: A_ub over A_eq, one CSR matrix.
        form = self.form
        above, below = form.A_ub_sparse, form.A_eq_sparse
        lp = core.HighsLp()
        lp.num_col_ = form.num_variables
        lp.num_row_ = form.num_ub_rows + form.num_eq_rows
        lp.col_cost_ = form.c
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_lower_ = np.concatenate((np.full(form.num_ub_rows, -np.inf), form.b_eq))
        lp.row_upper_ = np.concatenate((form.b_ub, form.b_eq))
        matrix = lp.a_matrix_
        matrix.format_ = core.MatrixFormat.kRowwise
        matrix.num_col_ = lp.num_col_
        matrix.num_row_ = lp.num_row_
        matrix.start_ = np.concatenate(
            (above.indptr, above.indptr[-1] + below.indptr[1:])).astype(np.int32)
        matrix.index_ = np.concatenate((above.indices, below.indices)).astype(np.int32)
        matrix.value_ = np.concatenate((above.data, below.data))
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue(
            "simplex_strategy",
            int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        )
        if highs.passModel(lp) == core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP")
        return highs

    def solve(self, lb: np.ndarray, ub: np.ndarray) -> LpResult:
        """Solve the LP under the column bounds ``[lb, ub]``."""
        core = bindings()
        highs = self._highs
        warm = highs is not None
        if highs is None:
            highs = self._highs = self._build(core, lb, ub)
        else:
            highs.changeColsBounds(self._columns.size, self._columns, lb, ub)
        if highs.run() == core.HighsStatus.kError:
            return LpResult(ERROR, warm=warm)
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count)
        status = highs.getModelStatus()
        if status == core.HighsModelStatus.kOptimal:
            # ``col_dual`` is the reduced cost ``c - A^T y``: >= 0 at a lower
            # bound, <= 0 at an upper bound (the tree minimises).
            solution = highs.getSolution()
            return LpResult(OPTIMAL, x=np.array(solution.col_value),
                            objective=float(info.objective_function_value),
                            iterations=iterations, warm=warm,
                            reduced_costs=np.array(solution.col_dual))
        if status == core.HighsModelStatus.kInfeasible:
            return LpResult(INFEASIBLE, iterations=iterations, warm=warm)
        if status == core.HighsModelStatus.kUnbounded:
            return LpResult(UNBOUNDED, iterations=iterations, warm=warm)
        return LpResult(ERROR, iterations=iterations, warm=warm)


def solve_lp_highs(
    lp: Union[StandardForm, HighsLp],
    lb: Optional[np.ndarray] = None,
    ub: Optional[np.ndarray] = None,
) -> LpResult:
    """Solve an LP relaxation on HiGHS: the one entry point of every HiGHS LP.

    ``lp`` is a :class:`HighsLp`, which a branch-and-bound tree re-solves
    under each node's bounds, or a bare form, solved once in a fresh
    instance.  ``lb``/``ub`` default to the form's own bounds.
    """
    if isinstance(lp, StandardForm):
        lp = HighsLp(lp)
    form = lp.form
    return lp.solve(form.lb if lb is None else lb, form.ub if ub is None else ub)


def _scipy_matrix(sparse, matrix: CsrMatrix):
    """A CsrMatrix as a SciPy CSR array, without a dense detour."""
    return sparse.csr_array((matrix.data, matrix.indices, matrix.indptr),
                            shape=matrix.shape, copy=True)


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
        optimize, sparse = _scipy()
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
                optimize.LinearConstraint(_scipy_matrix(sparse, form.A_ub_sparse), -np.inf, form.b_ub)
            )
        if form.num_eq_rows:
            constraints.append(
                optimize.LinearConstraint(_scipy_matrix(sparse, form.A_eq_sparse), form.b_eq, form.b_eq)
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
