"""Integer linear programming substrate (the reproduction's CPLEX stand-in).

The package provides a small modelling layer (:class:`Model`,
:class:`~repro.ilp.expr.LinExpr`, :func:`~repro.ilp.expr.quicksum`), a
presolve pass, a best-first branch-and-bound MILP solver with SOS-1
branching and primal heuristics, and its LP kernels: a revised simplex with
dual warm re-solves, the legacy dense tableau and, when SciPy is present,
HiGHS (the default ``bnb`` backend's node LPs).  The HiGHS MILP
(``scipy-milp``) is a backend of its own.  Every solver is picked by name
from the table in :mod:`repro.ilp.backends` and built by
:func:`create_solver`.

Typical usage::

    from repro.ilp import Model, quicksum

    m = Model("toy")
    x = [m.add_binary(f"x{i}") for i in range(4)]
    m.add_constraint(quicksum(x) <= 2)
    m.set_objective(-(x[0] + 2 * x[1] + 3 * x[2] + 4 * x[3]))
    solution = m.solve()
"""

from .errors import (
    IlpError,
    InfeasibleError,
    ModelError,
    NonLinearError,
    SolverError,
    TimeLimitExceeded,
    UnboundedError,
)
from .expr import EQ, GE, LE, Constraint, LinExpr, Variable, quicksum
from .model import MAXIMIZE, MINIMIZE, Model, SosGroup
from .sparse import CsrMatrix
from .context import PseudoCost, SolveContext
from .presolve import (
    REDUCED,
    SOLVED,
    Postsolve,
    PresolveResult,
    PresolveStats,
    presolve,
)
from .branch_bound import BnBOptions, BranchAndBoundSolver
from .diving import DIVE_STRATEGIES, DiveResult, dive, rins_dive
from .lns import NEIGHBORHOODS, LnsOptions, LnsResult, certified_gap, lns_search
from .backends import BACKENDS, PortfolioBackend, create_solver, resolve_backend
from .revised_simplex import (
    BasisState,
    RevisedOptions,
    RevisedSimplex,
    solve_lp_revised,
)
from .scipy_backend import ScipyMilpSolver, highs_available, solve_lp_highs
from .simplex import SimplexOptions, solve_lp_simplex
from .solution import (
    ERROR,
    FEASIBLE,
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    TIMEOUT,
    UNBOUNDED,
    LpResult,
    Solution,
    SolveStats,
    add_counters,
    sum_counters,
)
from .standard_form import StandardForm, to_standard_form

__all__ = [
    # modelling
    "Model",
    "SosGroup",
    "Variable",
    "LinExpr",
    "Constraint",
    "quicksum",
    "MINIMIZE",
    "MAXIMIZE",
    "LE",
    "GE",
    "EQ",
    # solving
    "BranchAndBoundSolver",
    "BnBOptions",
    "create_solver",
    # primal heuristics
    "dive",
    "rins_dive",
    "DiveResult",
    "DIVE_STRATEGIES",
    "lns_search",
    "LnsOptions",
    "LnsResult",
    "NEIGHBORHOODS",
    "certified_gap",
    # backend table
    "BACKENDS",
    "PortfolioBackend",
    "resolve_backend",
    "ScipyMilpSolver",
    "highs_available",
    "solve_lp_highs",
    "solve_lp_simplex",
    "SimplexOptions",
    "solve_lp_revised",
    "RevisedSimplex",
    "RevisedOptions",
    "BasisState",
    # results
    "Solution",
    "SolveStats",
    "LpResult",
    "add_counters",
    "sum_counters",
    "OPTIMAL",
    "FEASIBLE",
    "INFEASIBLE",
    "UNBOUNDED",
    "TIMEOUT",
    "NODE_LIMIT",
    "ERROR",
    # standard form / presolve / context
    "StandardForm",
    "to_standard_form",
    "CsrMatrix",
    "SolveContext",
    "PseudoCost",
    "presolve",
    "Postsolve",
    "PresolveResult",
    "PresolveStats",
    "REDUCED",
    "SOLVED",
    # errors
    "IlpError",
    "ModelError",
    "NonLinearError",
    "InfeasibleError",
    "UnboundedError",
    "SolverError",
    "TimeLimitExceeded",
]
