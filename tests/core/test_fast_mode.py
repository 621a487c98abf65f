"""Contract tests of the mapper's fast mode (``mode="fast"``).

Fast mode promises a *certified* optimality gap: every returned mapping
is feasible (it passes the same validators as an exact run) and its
objective is within ``gap_limit`` of a valid lower bound — whether the
Lagrangian fast lane certified it directly or the gap-limited exact tree
had to serve as the fallback.  These tests pin that contract, for the
mapper and for the gap-limited solver on its own, and the exact/fast
parity across solver backends.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arch import hierarchical_board
from repro.core import (
    MemoryMapper,
    validate_detailed_mapping,
    validate_global_mapping,
)
from repro.design import fir_filter_design, image_pipeline_design, random_design
from repro.ilp import (
    FEASIBLE,
    OPTIMAL,
    BranchAndBoundSolver,
    Model,
    certified_gap,
    quicksum,
)

from repro.bench.designpoints import default_design_points


def fast_points():
    return default_design_points(full=False)[:4]


def random_assignment_model(seed: int, n_items: int = 9, n_bins: int = 4) -> Model:
    """Seeded min-cost assignment instance with SOS rows and capacities."""
    rng = np.random.default_rng(seed)
    cost = rng.integers(1, 25, size=(n_items, n_bins))
    capacity = rng.integers(2, n_items // 2 + 2, size=n_bins)
    while int(capacity.sum()) < n_items:
        capacity[int(rng.integers(n_bins))] += 1

    m = Model(f"assign-{seed}")
    z = {}
    for i in range(n_items):
        row = [m.add_binary(f"z[{i},{j}]") for j in range(n_bins)]
        z[i] = row
        m.add_constraint(quicksum(row) == 1)
        m.add_sos1(row)
    for j in range(n_bins):
        m.add_constraint(
            quicksum(z[i][j] for i in range(n_items)) <= int(capacity[j])
        )
    m.set_objective(
        quicksum(
            float(cost[i][j]) * z[i][j]
            for i in range(n_items)
            for j in range(n_bins)
        )
    )
    return m


SEEDS = tuple(range(10))


class TestSolverGapContract:
    """``gap_limit=g`` on the solver alone: a feasible solution whose
    objective is within ``g`` of the reported best bound, and therefore
    of the true optimum."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_solution_is_feasible_within_gap(self, seed):
        m = random_assignment_model(seed)
        solution = BranchAndBoundSolver(gap_limit=0.1).solve(m)
        assert solution.status in (OPTIMAL, FEASIBLE)
        assert m.is_feasible(np.asarray(solution.values, dtype=float), tol=1e-6)
        bound = solution.stats.best_bound
        assert math.isfinite(bound)
        assert certified_gap(solution.objective, bound) <= 0.1 + 1e-9
        assert solution.objective <= bound * 1.1 + 1e-9

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_fast_objective_within_gap_of_true_optimum(self, seed):
        m = random_assignment_model(seed)
        fast = BranchAndBoundSolver(gap_limit=0.1).solve(m)
        exact = BranchAndBoundSolver().solve(random_assignment_model(seed))
        assert exact.is_optimal
        # The reported bound lower-bounds the optimum, so the contract
        # transfers: fast objective <= optimum * (1 + gap).
        assert fast.objective <= exact.objective * 1.1 + 1e-9
        assert fast.objective >= exact.objective - 1e-9

    def test_gap_zero_matches_exact_optimum(self):
        m = random_assignment_model(3)
        fast = BranchAndBoundSolver(gap_limit=0.0).solve(m)
        exact = BranchAndBoundSolver().solve(random_assignment_model(3))
        assert fast.objective == pytest.approx(exact.objective, abs=1e-9)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_fast_solve_is_deterministic(self, seed):
        first, second = (
            BranchAndBoundSolver(gap_limit=0.1).solve(random_assignment_model(seed))
            for _ in range(2)
        )
        assert np.array_equal(first.values, second.values)
        for counter in ("nodes_explored", "lp_solves", "incumbent_updates"):
            assert getattr(first.stats, counter) == \
                getattr(second.stats, counter), counter

    def test_certified_gap_is_relative_to_the_bound(self):
        assert certified_gap(11.0, 10.0) == pytest.approx(0.1)
        assert certified_gap(9.0, 10.0) == 0.0
        assert certified_gap(1.0, -math.inf) == math.inf


class TestFastContract:
    @pytest.mark.parametrize("point", fast_points(), ids=lambda p: p.label())
    def test_fast_mapping_is_feasible_within_gap(self, point):
        design, board = point.build(seed=0)
        result = MemoryMapper(
            board, solver="bnb-pure", mode="fast", gap_limit=0.05
        ).map(design)
        assert validate_global_mapping(design, board, result.global_mapping) == []
        assert validate_detailed_mapping(
            design, board, result.global_mapping, result.detailed_mapping
        ) == []
        stats = result.solve_stats
        assert stats["mode"] == "fast"
        gap = stats.get("gap")
        assert isinstance(gap, float)
        assert 0.0 <= gap <= 0.05 + 1e-9

    @pytest.mark.parametrize("point", fast_points(), ids=lambda p: p.label())
    def test_fast_objective_within_gap_of_exact(self, point):
        design, board = point.build(seed=0)
        exact = MemoryMapper(board, solver="bnb-pure").map(design)
        fast = MemoryMapper(
            board, solver="bnb-pure", mode="fast", gap_limit=0.05
        ).map(design)
        exact_obj = exact.cost.weighted_total
        fast_obj = fast.cost.weighted_total
        assert fast_obj >= exact_obj - 1e-9
        assert fast_obj <= exact_obj * 1.05 + 1e-9

    @pytest.mark.parametrize("solver", ["bnb-pure", "portfolio"])
    def test_parity_across_backends(self, solver):
        # Both contract halves must hold regardless of which exact
        # backend serves as the fast lane's fallback.
        board = hierarchical_board()
        design = image_pipeline_design()
        exact = MemoryMapper(board, solver=solver).map(design)
        fast = MemoryMapper(
            board, solver=solver, mode="fast", gap_limit=0.05
        ).map(design)
        assert validate_global_mapping(design, board, fast.global_mapping) == []
        assert fast.cost.weighted_total <= \
            exact.cost.weighted_total * 1.05 + 1e-9
        assert fast.solve_stats["mode"] == "fast"
        assert exact.solve_stats["mode"] == "exact"

    def test_fast_mode_is_deterministic(self):
        board = hierarchical_board()
        design = random_design(14, seed=3)
        first = MemoryMapper(board, solver="bnb-pure", mode="fast").map(design)
        second = MemoryMapper(board, solver="bnb-pure", mode="fast").map(design)
        assert first.global_mapping.assignment == second.global_mapping.assignment
        assert first.cost.weighted_total == second.cost.weighted_total
        assert first.solve_stats.get("gap") == second.solve_stats.get("gap")

    def test_fast_works_in_clique_capacity_mode(self):
        # The fast lane models the strict budgets, a subset of the clique
        # relaxation, so its certified assignments stay feasible there.
        board = hierarchical_board()
        design = fir_filter_design()
        result = MemoryMapper(
            board, solver="bnb-pure", capacity_mode="clique", mode="fast"
        ).map(design)
        assert validate_global_mapping(design, board, result.global_mapping) == []
        assert result.solve_stats["mode"] == "fast"


class TestFastConfiguration:
    def test_default_gap_limit_is_five_percent(self):
        mapper = MemoryMapper(hierarchical_board(), mode="fast")
        assert mapper.gap_limit == 0.05

    def test_exact_mode_has_no_gap_limit(self):
        mapper = MemoryMapper(hierarchical_board())
        assert mapper.mode == "exact"
        assert mapper.gap_limit is None

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MemoryMapper(hierarchical_board(), mode="turbo")

    def test_rejects_negative_gap_limit(self):
        with pytest.raises(ValueError):
            MemoryMapper(hierarchical_board(), mode="fast", gap_limit=-0.5)

    def test_heuristic_counters_surface_in_solve_stats(self):
        board = hierarchical_board()
        result = MemoryMapper(board, solver="bnb-pure").map(
            random_design(14, seed=0)
        )
        stats = result.solve_stats
        assert stats["incumbent_updates"] >= 1
