"""The end-to-end mapping pipeline: global mapping, then detailed mapping.

This is the public entry point most users of the library want:
:class:`MemoryMapper` runs the global ILP, hands the type assignment to the
detailed mapper, validates the resulting placement, and — in the rare case
a type's packing fails (possible only for banks with more than two ports,
where the paper's port estimator is conservative) — re-runs global mapping
with the failing (structure, type) combinations forbidden, exactly the
retry loop Section 4.1 describes ("the global and detailed mappers need to
execute multiple times until a solution is found").
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from ..arch.board import Board
from ..design.design import Design
from ..ilp import SolveContext, sum_counters
from .detailed_mapper import DetailedMapper, DetailedMappingFailure
from .global_mapper import GlobalMapper
from .heuristic_mapper import GreedyMapper
from .mapping import GlobalMapping, MappingError, MappingResult
from .objective import CostModel, CostWeights
from .preprocess import Preprocessor
from .validate import ensure_valid, validate_detailed_mapping, validate_global_mapping

__all__ = ["MemoryMapper"]


class MemoryMapper:
    """Two-stage memory mapper (the paper's proposed flow).

    Parameters
    ----------
    board:
        Target architecture description.
    weights:
        Objective weights (latency / pin-delay / pin-I/O).
    solver:
        ILP backend name (see :func:`repro.ilp.create_solver`).
    solver_options:
        Extra keyword options for the solver factory (e.g. ``time_limit``).
    capacity_mode:
        ``"strict"`` or ``"clique"`` — see :class:`repro.core.GlobalMapper`.
    max_retries:
        How many times the global stage may be re-run with forbidden pairs
        after a detailed-mapping failure before giving up.
    warm_start:
        When true (default) a greedy assignment seeds the ILP solver's
        incumbent, which speeds up branch-and-bound without affecting the
        optimum.
    warm_retries:
        When true (default) a :class:`repro.ilp.SolveContext` is threaded
        through the retry loop: retry ``N`` warm-starts from retry
        ``N-1``'s incumbent (repaired around the newly forbidden pair),
        reuses the cached standard form and keeps the pseudo-cost
        branching statistics.  ``False`` solves every retry cold — kept
        for benchmarking the old behaviour.
    validate:
        When true (default) both stages are checked by the validators and a
        :class:`repro.core.mapping.MappingError` is raised on any violation.
    mode:
        ``"exact"`` (default) or ``"fast"`` — see
        :class:`repro.core.GlobalMapper`.  Fast mode returns the first
        mapping certifying within ``gap_limit`` of a lower bound instead
        of proving optimality.
    gap_limit:
        Relative optimality-gap contract for fast mode (default 0.05).
    """

    def __init__(
        self,
        board: Board,
        weights: Optional[CostWeights] = None,
        solver: Optional[str] = "auto",
        solver_options: Optional[Dict[str, object]] = None,
        capacity_mode: str = "strict",
        port_estimation: str = "paper",
        max_retries: int = 3,
        warm_start: bool = True,
        warm_retries: bool = True,
        validate: bool = True,
        mode: str = "exact",
        gap_limit: Optional[float] = None,
    ) -> None:
        self.board = board
        self.weights = weights or CostWeights()
        self.solver = solver
        self.solver_options = dict(solver_options or {})
        self.capacity_mode = capacity_mode
        self.port_estimation = port_estimation
        self.max_retries = max_retries
        self.warm_start = warm_start
        self.warm_retries = warm_retries
        self.validate = validate
        self.global_mapper = GlobalMapper(
            board,
            weights=self.weights,
            solver=solver,
            solver_options=self.solver_options,
            capacity_mode=capacity_mode,
            port_estimation=port_estimation,
            mode=mode,
            gap_limit=gap_limit,
        )
        self.mode = self.global_mapper.mode
        self.gap_limit = self.global_mapper.gap_limit
        self.detailed_mapper = DetailedMapper(board)

    # ------------------------------------------------------------------ api
    def map(
        self, design: Design, context: Optional[SolveContext] = None
    ) -> MappingResult:
        """Map ``design`` onto the board and return the combined result.

        ``context`` (optional) supplies the :class:`repro.ilp.SolveContext`
        threaded through the retry loop instead of a fresh one — this is
        how the explore subsystem chains a sweep: the context of design
        point ``N-1`` (rebased via :meth:`SolveContext.from_chain_dict`)
        seeds point ``N``'s incumbent and root basis.  When a
        context is given it is used even with ``warm_retries=False``.
        """
        preprocessor = Preprocessor(
            design, self.board, port_estimation=self.port_estimation
        )
        cost_model = CostModel(
            design, self.board, self.weights, preprocessor=preprocessor
        )

        warm_assignment = None
        if self.warm_start:
            try:
                warm_assignment = GreedyMapper(self.board, self.weights).solve(
                    design, preprocessor=preprocessor, cost_model=cost_model
                ).assignment
            except MappingError:
                warm_assignment = None  # greedy failure only loses the warm start

        forbidden: Set[Tuple[str, str]] = set()
        retries = 0
        global_time = 0.0
        detailed_time = 0.0
        if context is None:
            context = SolveContext() if self.warm_retries else None
        stage_stats: List[Dict[str, object]] = []

        while True:
            start = time.perf_counter()
            global_mapping = self.global_mapper.solve(
                design,
                warm_start=warm_assignment,
                forbidden_pairs=forbidden,
                preprocessor=preprocessor,
                cost_model=cost_model,
                context=context,
            )
            global_time += time.perf_counter() - start
            stage_stats.append(dict(global_mapping.solver_stats))

            if self.validate:
                ensure_valid(
                    validate_global_mapping(
                        design, self.board, global_mapping, preprocessor=preprocessor
                    ),
                    context="global mapping",
                )

            start = time.perf_counter()
            try:
                detailed = self.detailed_mapper.map(
                    design, global_mapping, preprocessor=preprocessor
                )
            except DetailedMappingFailure as failure:
                detailed_time += time.perf_counter() - start
                retries += 1
                if retries > self.max_retries:
                    raise MappingError(
                        f"detailed mapping kept failing after {self.max_retries} "
                        f"retries (last failure: {failure})"
                    ) from failure
                # Forbid the heaviest offender on the failing type and retry;
                # removing one structure from the over-subscribed type is the
                # smallest perturbation that changes the global solution.
                offenders = sorted(
                    failure.structures,
                    key=lambda name: design.by_name(name).size_bits,
                    reverse=True,
                )
                forbidden.add((offenders[0], failure.bank_type))
                warm_assignment = None
                continue
            detailed_time += time.perf_counter() - start

            if self.validate:
                ensure_valid(
                    validate_detailed_mapping(design, self.board, global_mapping, detailed),
                    context="detailed mapping",
                )

            cost = cost_model.evaluate_assignment(dict(global_mapping.assignment))
            return MappingResult(
                design=design,
                board=self.board,
                global_mapping=global_mapping,
                detailed_mapping=detailed,
                cost=cost,
                global_time=global_time,
                detailed_time=detailed_time,
                retries=retries,
                solve_stats=self._solve_stats(stage_stats, context, retries),
            )

    def _solve_stats(
        self,
        stage_stats: List[Dict[str, object]],
        context: Optional[SolveContext],
        retries: int,
    ) -> Dict[str, object]:
        """Aggregate the per-solve solver statistics of the retry loop.

        Works for every backend: each counter the per-solve stats
        dictionaries carry is summed (:func:`repro.ilp.sum_counters`); the
        context adds its cross-retry extras when warm retries are enabled.
        """
        counters = sum_counters(stage_stats)
        presolve = counters["presolve"]
        stats: Dict[str, object] = {
            "global_solves": len(stage_stats),
            "retries": retries,
            **counters,
            "presolve_rows_dropped": presolve.get("rows_dropped_ub", 0)
            + presolve.get("rows_dropped_eq", 0),
            "presolve_cols_fixed": presolve.get("cols_fixed", 0),
            "warm_retries": context is not None,
            "backend": str(stage_stats[-1].get("backend", "")) if stage_stats else "",
            "mode": self.mode,
        }
        if stage_stats:
            # The achieved gap of the final (winning) global solve; NaN
            # for backends that never compute one (exact proves 0 but the
            # pure tree only fills this under a gap contract).
            gap = stage_stats[-1].get("gap")
            if isinstance(gap, (int, float)):
                stats["gap"] = float(gap)
        if context is not None:
            stats["warm_start_hits"] = context.warm_start_hits
            stats["form_reuses"] = context.form_reuses
        return stats

    def map_global_only(self, design: Design) -> GlobalMapping:
        """Run only the global stage (used by benchmarks and ablations)."""
        return self.global_mapper.solve(design)
