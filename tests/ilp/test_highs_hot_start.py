"""The HiGHS node-LP kernel: one instance per tree, hot-started by bound changes.

A branch-and-bound tree on ``lp_backend="highs"`` (what ``auto`` means
with SciPy) builds one :class:`HighsLp` from its reduced form and
re-solves it under every node's bounds.  These tests pin what that must
not change: each re-solve answers like a fresh one-shot solve, a solver
object carries nothing from one ``solve()`` to the next, and the tree's
optima equal those of the revised kernel and of HiGHS' own MILP.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.designpoints import default_design_points
from repro.core.complete_mapper import CompleteMapper
from repro.core.pipeline import MemoryMapper
from repro.ilp import (
    INFEASIBLE,
    OPTIMAL,
    BranchAndBoundSolver,
    Model,
    highs_available,
    quicksum,
    solve_lp_highs,
    to_standard_form,
)
from repro.ilp.scipy_backend import HighsLp

pytestmark = pytest.mark.skipif(not highs_available(), reason="SciPy/HiGHS not installed")


def assignment_model(seed: int) -> Model:
    """Min-cost assignment with per-bin capacities: an LP that branches."""
    rng = np.random.default_rng(seed)
    items, bins = 7, 3
    cost = rng.integers(1, 30, size=(items, bins))
    m = Model("assign")
    z = [[m.add_binary(f"z[{i},{j}]") for j in range(bins)] for i in range(items)]
    for row in z:
        m.add_constraint(quicksum(row) == 1)
    for j in range(bins):
        m.add_constraint(quicksum(z[i][j] * int(rng.integers(1, 4)) for i in range(items)) <= 6)
    m.set_objective(quicksum(int(cost[i][j]) * z[i][j]
                             for i in range(items) for j in range(bins)))
    return m


class TestHighsLp:
    def test_an_infeasible_node_and_then_the_restored_bounds(self):
        form = to_standard_form(assignment_model(0))
        lp = HighsLp(form)
        first = lp.solve(form.lb, form.ub)
        assert first.status == OPTIMAL and not first.warm
        # z[0,*] all fixed to zero breaks the first assignment row.
        ub = form.ub.copy()
        ub[:3] = 0.0
        infeasible = lp.solve(form.lb, ub)
        assert infeasible.status == INFEASIBLE and infeasible.warm
        again = lp.solve(form.lb, form.ub)
        assert again.status == OPTIMAL and again.warm
        assert again.objective == pytest.approx(first.objective, abs=1e-9)

    def test_iterations_are_counted_per_solve(self):
        form = to_standard_form(assignment_model(1))
        lp = HighsLp(form)
        assert lp.solve(form.lb, form.ub).iterations > 0
        # Same bounds: the last basis is already optimal.
        assert lp.solve(form.lb, form.ub).iterations == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_hot_started_solves_match_one_shot_solves(self, seed):
        form = to_standard_form(assignment_model(seed))
        rng = np.random.default_rng(100 + seed)
        lp = HighsLp(form)
        for _ in range(12):
            lb, ub = form.lb.copy(), form.ub.copy()
            fixed = rng.choice(form.num_variables, size=3, replace=False)
            value = rng.integers(0, 2, size=3).astype(float)
            lb[fixed] = ub[fixed] = value
            hot = solve_lp_highs(lp, lb, ub)
            cold = solve_lp_highs(form.with_bounds(lb, ub))
            assert hot.status == cold.status
            if cold.status == OPTIMAL:
                assert hot.objective == pytest.approx(cold.objective, abs=1e-7)


class TestOneInstancePerTree:
    def test_a_solver_solving_twice_matches_a_fresh_solver(self):
        model = assignment_model(2)
        reused = BranchAndBoundSolver(lp_backend="highs")
        first = reused.solve(model)
        second = reused.solve(model)
        fresh = BranchAndBoundSolver(lp_backend="highs").solve(model)
        assert first.stats.lp_solves > 1
        for solution in (second, fresh):
            assert solution.status == first.status
            np.testing.assert_array_equal(solution.values, first.values)
            counters = {**solution.stats.as_dict(), "wall_time": None}
            assert counters == {**first.stats.as_dict(), "wall_time": None}

    def test_every_lp_after_the_root_is_hot_started(self):
        design, board = default_design_points()[5].build(seed=0)
        stats = MemoryMapper(board, solver="bnb").map(design).solve_stats
        assert stats["backend"] == "bnb+highs"
        assert stats["global_solves"] == 1
        assert stats["lp_solves"] > 10
        assert stats["warm_lp_solves"] == stats["lp_solves"] - 1


@pytest.mark.parametrize("point", default_design_points(), ids=lambda p: p.label())
def test_exact_backends_agree_on_every_table3_point(point):
    design, board = point.build(seed=0)
    objectives = {}
    for solver in ("bnb", "bnb-pure", "scipy-milp"):
        exact = MemoryMapper(board, solver=solver).map(design).global_mapping.objective
        complete = CompleteMapper(board, solver=solver).solve(design).global_mapping.objective
        objectives[solver] = (exact, complete)
    reference = objectives["scipy-milp"][0]
    for solver, (exact, complete) in objectives.items():
        assert exact == pytest.approx(reference, rel=1e-9), solver
        assert complete == pytest.approx(reference, rel=1e-9), solver
