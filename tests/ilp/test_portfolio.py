"""Property tests of the primal-heuristic portfolio and the gap contract.

Three promises are pinned here:

* **Gap contract** — solving with ``gap_limit=g`` returns a feasible
  solution whose objective is within ``g`` of the reported best bound
  (and therefore of the true optimum), for every seeded instance.
* **Determinism** — the portfolio's LNS schedule runs from a fixed seed:
  the same model produces identical solutions and identical work
  counters.
* **Conservativeness** — heuristics only inject incumbents; the proved
  optimum with the portfolio on equals the optimum with it off.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ilp import (
    FEASIBLE,
    OPTIMAL,
    BranchAndBoundSolver,
    Model,
    quicksum,
)
from repro.ilp.lns import certified_gap


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


class TestGapContract:
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


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_same_heuristic_seed_reproduces_the_solve(self, seed):
        runs = []
        for _ in range(2):
            m = random_assignment_model(seed)
            solution = BranchAndBoundSolver(heuristics="root").solve(m)
            runs.append(solution)
        first, second = runs
        assert np.array_equal(first.values, second.values)
        for counter in ("nodes_explored", "lp_solves", "incumbent_updates",
                        "heuristic_incumbents", "dive_pivots",
                        "dive_lp_solves", "lns_rounds"):
            assert getattr(first.stats, counter) == \
                getattr(second.stats, counter), counter


class TestConservativeness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_portfolio_never_changes_the_proved_optimum(self, seed):
        baseline = BranchAndBoundSolver(heuristics="off").solve(
            random_assignment_model(seed)
        )
        with_portfolio = BranchAndBoundSolver(heuristics="root").solve(
            random_assignment_model(seed)
        )
        assert baseline.is_optimal and with_portfolio.is_optimal
        assert with_portfolio.objective == pytest.approx(
            baseline.objective, abs=1e-9
        )
        # Better incumbents can only shrink the tree, never grow it.
        assert with_portfolio.stats.nodes_explored <= \
            baseline.stats.nodes_explored

