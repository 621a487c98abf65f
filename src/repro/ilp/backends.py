"""The fixed table of ILP solver backends.

Every solver is picked by name from :data:`BACKENDS` and built by
:func:`create_solver`; ``None`` and ``"auto"`` mean ``bnb``.  ``bnb``,
``bnb-pure`` and ``bnb-tableau`` are the from-scratch branch-and-bound
solver on HiGHS node LPs (the pure revised simplex without SciPy), the
revised simplex and the legacy dense tableau.  ``scipy-milp`` is HiGHS'
own branch-and-cut, and ``portfolio`` races ``bnb-pure`` against it.

Options a backend does not take are dropped rather than rejected, so one
option dictionary (the engine passes ``time_limit`` everywhere) can drive
any backend.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from functools import partial
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .branch_bound import BnBOptions, BranchAndBoundSolver
from .context import SolveContext
from .errors import ModelError, SolverError
from .model import MAXIMIZE, Model
from .scipy_backend import ScipyMilpSolver, highs_available
from .solution import Solution

__all__ = ["BACKENDS", "DEFAULT_BACKEND", "PortfolioBackend", "create_solver",
           "resolve_backend"]

#: Canonical name used when the caller passes ``None`` or ``"auto"``.
DEFAULT_BACKEND = "bnb"

#: Every option :class:`BranchAndBoundSolver` takes.
BNB_OPTIONS: FrozenSet[str] = frozenset(f.name for f in dataclasses.fields(BnBOptions))


class PortfolioBackend:
    """Race ``bnb-pure`` against ``scipy-milp``; the first proven optimum wins.

    Entrants run on a thread pool: the HiGHS MILP releases the GIL inside
    its C++ core, so it genuinely overlaps with the pure-Python
    branch-and-bound.  As soon as one entrant proves optimality a stop
    event is set; the branch-and-bound loop polls it between nodes and
    exits, while a HiGHS solve simply runs to its own (bounded) limit in
    the background.  When no entrant reaches optimality the best feasible
    incumbent is returned, and only if every entrant fails does the
    portfolio report the first failure.  Without SciPy the portfolio is a
    plain ``bnb-pure`` solve.
    """

    name = "portfolio"

    def __init__(
        self,
        time_limit: Optional[float] = None,
        rel_gap: float = 1e-6,
        fix_zero: Optional[Sequence[int]] = None,
        **bnb_options,
    ) -> None:
        self.time_limit = time_limit
        self.rel_gap = rel_gap
        self.fix_zero = tuple(fix_zero) if fix_zero is not None else None
        self.bnb_options = dict(bnb_options)

    # ------------------------------------------------------------- entrants
    def _build_entrants(self, stop: threading.Event) -> List[Tuple[str, object]]:
        racing = highs_available()
        options = dict(self.bnb_options)
        options.setdefault("lp_backend", "revised")
        if racing and options.get("context") is not None:
            # A losing racer is abandoned, not joined, so it may still be
            # mutating its context after solve() returns — never hand a
            # racing thread the caller's context.  A detached clone keeps
            # the warm start and the pseudo-cost knowledge without the race.
            options["context"] = SolveContext.from_dict(options["context"].as_dict())
        entrants: List[Tuple[str, object]] = [(
            "bnb-pure",
            BranchAndBoundSolver(
                time_limit=self.time_limit,
                rel_gap=self.rel_gap,
                stop_check=stop.is_set,
                fix_zero=self.fix_zero,
                **options,
            ),
        )]
        if racing:
            entrants.append((
                "scipy-milp",
                ScipyMilpSolver(time_limit=self.time_limit, rel_gap=self.rel_gap,
                                fix_zero=self.fix_zero),
            ))
        return entrants

    # ----------------------------------------------------------------- solve
    def solve(self, model: Model) -> Solution:
        start = time.perf_counter()
        stop = threading.Event()
        entrants = self._build_entrants(stop)
        labels = [label for label, _ in entrants]

        if len(entrants) == 1:
            label, solver = entrants[0]
            solution = solver.solve(model)
            return self._finish(solution, label, labels, start, cancelled=0)

        futures: Dict[Future, str] = {}
        pool = ThreadPoolExecutor(
            max_workers=len(entrants), thread_name_prefix="portfolio"
        )
        cancelled = 0
        try:
            for label, solver in entrants:
                futures[pool.submit(solver.solve, model)] = label

            finished: List[Tuple[str, Solution]] = []
            pending = set(futures)
            winner: Optional[Tuple[str, Solution]] = None
            while pending and winner is None:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    label = futures[future]
                    try:
                        solution = future.result()
                    except Exception:  # entrant crashed: let the others race on
                        continue
                    finished.append((label, solution))
                    if solution.is_optimal:
                        winner = (label, solution)
                        # Cancel the losers *immediately*: cooperative
                        # entrants poll this event between nodes, so the
                        # sooner it is set the sooner their thread frees
                        # the interpreter for the caller.
                        stop.set()
                        break
            stop.set()
            cancelled = len(pending)
            if winner is None:
                for future in pending:
                    label = futures[future]
                    try:
                        finished.append((label, future.result()))
                    except Exception:
                        continue
                cancelled = 0
        finally:
            stop.set()
            # Do NOT join the losers: a HiGHS solve cannot be interrupted
            # and would otherwise hold the winner hostage until its own
            # time limit.  The abandoned thread finishes in the background
            # (bounded by its per-entrant time limit when one is set).
            pool.shutdown(wait=False, cancel_futures=True)

        if winner is not None:
            return self._finish(winner[1], winner[0], labels, start,
                                cancelled=cancelled)
        feasible = [(lbl, s) for lbl, s in finished if s.is_success]
        if feasible:
            # Best incumbent in the *user's* optimisation sense.
            pick = max if model.sense == MAXIMIZE else min
            label, solution = pick(feasible, key=lambda pair: pair[1].objective)
            return self._finish(solution, label, labels, start, cancelled=0)
        if finished:
            return self._finish(finished[0][1], finished[0][0], labels, start,
                                cancelled=0)
        raise SolverError("every portfolio entrant crashed")

    def _finish(
        self,
        solution: Solution,
        label: str,
        entrants: List[str],
        start: float,
        cancelled: int,
    ) -> Solution:
        solution.stats.backend = f"portfolio[{label}:{solution.stats.backend or label}]"
        solution.stats.wall_time = time.perf_counter() - start
        solution.stats.extra["portfolio_winner"] = label
        solution.stats.extra["portfolio_entrants"] = list(entrants)
        solution.stats.extra["portfolio_cancelled"] = cancelled
        return solution


class Backend(NamedTuple):
    """One row of :data:`BACKENDS`."""

    factory: Callable[..., object]
    #: option names the factory takes; :func:`create_solver` drops the rest.
    options: FrozenSet[str]
    available: Callable[[], bool]
    description: str


def _pinned_bnb(lp_backend: str, **options) -> BranchAndBoundSolver:
    options.setdefault("lp_backend", lp_backend)
    return BranchAndBoundSolver(**options)


def _always() -> bool:
    return True


BACKENDS: Dict[str, Backend] = {
    "bnb": Backend(
        BranchAndBoundSolver, BNB_OPTIONS, _always,
        "best-first branch-and-bound with SOS-1 branching "
        "(HiGHS LP relaxations when SciPy is present)",
    ),
    "bnb-pure": Backend(
        partial(_pinned_bnb, "revised"), BNB_OPTIONS, _always,
        "branch-and-bound on the pure-Python revised simplex with dual "
        "warm re-solves (no third-party dependencies)",
    ),
    "bnb-tableau": Backend(
        partial(_pinned_bnb, "simplex"), BNB_OPTIONS, _always,
        "branch-and-bound on the legacy dense two-phase tableau simplex",
    ),
    "scipy-milp": Backend(
        ScipyMilpSolver, frozenset(inspect.signature(ScipyMilpSolver).parameters),
        highs_available, "HiGHS branch-and-cut via scipy.optimize.milp",
    ),
    "portfolio": Backend(
        # The portfolio installs its own stop check on the racing entrant.
        PortfolioBackend, BNB_OPTIONS - {"stop_check"}, _always,
        "race bnb-pure against scipy-milp; first proven-optimal result wins",
    ),
}


def resolve_backend(name: Optional[str]) -> str:
    """The table name ``name`` stands for (``None``/``"auto"`` mean ``bnb``)."""
    if name is None or name == "auto":
        return DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ModelError(
            f"unknown solver backend {name!r} (expected auto or one of "
            f"{', '.join(BACKENDS)})"
        )
    return name


def create_solver(name: Optional[str] = None, **options):
    """Build the solver ``name`` names, passing it the options it takes."""
    name = resolve_backend(name)
    backend = BACKENDS[name]
    if not backend.available():
        raise SolverError(
            f"solver backend {name!r} is not available in this "
            "environment (missing optional dependency)"
        )
    return backend.factory(
        **{key: value for key, value in options.items() if key in backend.options}
    )
