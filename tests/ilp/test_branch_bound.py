"""Unit tests for the branch-and-bound MILP solver (the CPLEX stand-in)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    TIMEOUT,
    UNBOUNDED,
    BranchAndBoundSolver,
    Model,
    ModelError,
    ScipyMilpSolver,
    create_solver,
    highs_available,
    quicksum,
)


def knapsack_model(values, weights, capacity):
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(len(values))]
    m.add_constraint(quicksum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.set_objective(quicksum(-v * x for v, x in zip(values, xs)))
    return m, xs


def assignment_model(cost, capacity):
    """Min-cost assignment of items to bins with per-bin item capacity."""
    m = Model("assign")
    n_items, n_bins = len(cost), len(cost[0])
    z = {}
    for i in range(n_items):
        row = [m.add_binary(f"z[{i},{j}]") for j in range(n_bins)]
        z[i] = row
        m.add_constraint(quicksum(row) == 1)
        m.add_sos1(row)
    for j in range(n_bins):
        m.add_constraint(quicksum(z[i][j] for i in range(n_items)) <= capacity[j])
    m.set_objective(
        quicksum(cost[i][j] * z[i][j] for i in range(n_items) for j in range(n_bins))
    )
    return m, z


class TestKnapsackAndBasics:
    def test_small_knapsack_optimum(self):
        m, xs = knapsack_model([10, 13, 7, 8], [5, 6, 3, 4], 10)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-21.0)
        chosen = {i for i, x in enumerate(xs) if solution.rounded(x) == 1}
        assert chosen == {1, 3}

    def test_pure_simplex_backend_matches(self):
        m, _ = knapsack_model([10, 13, 7, 8], [5, 6, 3, 4], 10)
        solution = BranchAndBoundSolver(lp_backend="simplex").solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-21.0)

    def test_all_items_fit(self):
        m, xs = knapsack_model([1, 2, 3], [1, 1, 1], 10)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.objective == pytest.approx(-6.0)
        assert all(solution.rounded(x) == 1 for x in xs)

    def test_integer_variables_beyond_binary(self):
        # min 3x + 4y s.t. 2x + y >= 7, x + 3y >= 8, x,y integer >= 0.
        m = Model()
        x = m.add_integer("x", ub=20)
        y = m.add_integer("y", ub=20)
        m.add_constraint(2 * x + y >= 7)
        m.add_constraint(x + 3 * y >= 8)
        m.set_objective(3 * x + 4 * y)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        x_val, y_val = solution.rounded(x), solution.rounded(y)
        assert 2 * x_val + y_val >= 7 and x_val + 3 * y_val >= 8
        assert solution.objective == pytest.approx(3 * x_val + 4 * y_val)
        # Known optimum is x=3, y=2 (cost 17) or any tie with the same cost.
        assert solution.objective == pytest.approx(17.0)

    def test_infeasible_model_reported(self):
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y >= 3)
        m.set_objective(x + y)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.status == INFEASIBLE
        assert not solution.is_success

    def test_unbounded_model_reported(self):
        m = Model()
        x = m.add_continuous("x")
        m.set_objective(-x)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.status == UNBOUNDED

    def test_maximisation_sense(self):
        m = Model(sense="max")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y <= 1)
        m.set_objective(2 * x + 3 * y)
        solution = BranchAndBoundSolver().solve(m)
        assert solution.objective == pytest.approx(3.0)
        assert solution.rounded(y) == 1


class TestSosBranching:
    def test_assignment_with_sos_branching(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = assignment_model(cost, capacity=[2, 2, 2])
        solution = BranchAndBoundSolver(branching="sos1").solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(5.0)

    def test_variable_branching_same_optimum(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = assignment_model(cost, capacity=[2, 2, 2])
        solution = BranchAndBoundSolver(branching="variable").solve(m)
        assert solution.objective == pytest.approx(5.0)

    def test_sos_branching_without_groups_raises(self):
        m, _ = knapsack_model([1, 2], [1, 1], 1)
        with pytest.raises(ModelError):
            BranchAndBoundSolver(branching="sos1").solve(m)

    def test_tight_capacity_forces_spread(self):
        cost = [[1, 10], [1, 10], [1, 10]]
        m, z = assignment_model(cost, capacity=[1, 2])
        solution = BranchAndBoundSolver().solve(m)
        assert solution.is_optimal
        # Only one item can take the cheap bin; optimum is 1 + 10 + 10.
        assert solution.objective == pytest.approx(21.0)


class TestLimitsAndWarmStart:
    def test_node_limit_stops_search(self):
        rng = np.random.default_rng(7)
        cost = rng.integers(1, 20, size=(12, 4)).tolist()
        m, _ = assignment_model(cost, capacity=[3, 3, 3, 3])
        solution = BranchAndBoundSolver(node_limit=1).solve(m)
        assert solution.status in (NODE_LIMIT, OPTIMAL)
        assert solution.stats.nodes_explored <= 1

    def test_time_limit_reported(self):
        rng = np.random.default_rng(11)
        cost = rng.integers(1, 50, size=(20, 5)).tolist()
        m, _ = assignment_model(cost, capacity=[4, 4, 4, 4, 4])
        solution = BranchAndBoundSolver(time_limit=0.0).solve(m)
        assert solution.status in (TIMEOUT, OPTIMAL)

    def test_warm_start_is_used_as_incumbent(self):
        cost = [[3, 1], [2, 5], [6, 2]]
        m, z = assignment_model(cost, capacity=[3, 3])
        warm = np.zeros(m.num_variables)
        for i in range(3):
            warm[z[i][0].index] = 1.0  # all items in bin 0 (feasible, not optimal)
        solution = BranchAndBoundSolver(warm_start=warm).solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(1 + 2 + 2)
        assert solution.stats.incumbent_updates >= 1

    def test_bad_warm_start_length_rejected(self):
        m, _ = knapsack_model([1, 2], [1, 1], 1)
        with pytest.raises(ModelError):
            BranchAndBoundSolver(warm_start=np.zeros(5)).solve(m)

    def test_unknown_lp_backend_rejected(self):
        m, _ = knapsack_model([1, 2], [1, 1], 1)
        with pytest.raises(ModelError):
            BranchAndBoundSolver(lp_backend="quantum").solve(m)


class TestCreateSolver:
    def test_default_factory(self):
        assert isinstance(create_solver(None), BranchAndBoundSolver)
        assert isinstance(create_solver("auto"), BranchAndBoundSolver)

    def test_pure_factory_forces_revised(self):
        solver = create_solver("bnb-pure")
        assert solver.options.lp_backend == "revised"

    def test_tableau_factory_forces_simplex(self):
        solver = create_solver("bnb-tableau")
        assert solver.options.lp_backend == "simplex"

    @pytest.mark.skipif(not highs_available(), reason="SciPy/HiGHS not installed")
    def test_scipy_factory(self):
        solver = create_solver("scipy-milp", time_limit=5.0, node_limit=10)
        assert isinstance(solver, ScipyMilpSolver)
        assert solver.time_limit == 5.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError):
            create_solver("cplex")


@pytest.mark.skipif(not highs_available(), reason="SciPy/HiGHS not installed")
class TestAgreementWithScipyMilp:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_assignment_instances_match(self, seed):
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(4, 9))
        n_bins = int(rng.integers(2, 5))
        cost = rng.integers(1, 30, size=(n_items, n_bins)).tolist()
        capacity = [int(rng.integers(2, n_items + 1)) for _ in range(n_bins)]
        m, _ = assignment_model(cost, capacity)
        ours = BranchAndBoundSolver().solve(m)
        reference = ScipyMilpSolver().solve(m)
        assert ours.status == reference.status
        if ours.is_success:
            assert ours.objective == pytest.approx(reference.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_knapsacks_match(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 12))
        values = rng.integers(1, 40, size=n).tolist()
        weights = rng.integers(1, 15, size=n).tolist()
        capacity = int(max(weights) + rng.integers(5, 25))
        m, _ = knapsack_model(values, weights, capacity)
        ours = BranchAndBoundSolver().solve(m)
        reference = ScipyMilpSolver().solve(m)
        assert ours.objective == pytest.approx(reference.objective, abs=1e-6)



class TestObjectiveCutoff:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_cutoff_cuts_an_integer_span_to_the_incumbent_slack(self, sign):
        # min sign*x + 1.5*y  s.t.  sign*x + y >= 6, x integer in [0, 10]
        # (mirrored to [-10, 0] for sign -1), y binary.  The warm start
        # x = 5*sign, y = 1 costs 6.5, so the cutoff leaves x a span of
        # floor(6.5) = 6 from its cheap end; the optimum x = 6*sign,
        # y = 0 (cost 6) sits exactly on that edge.
        m = Model("span")
        x = m.add_integer("x", lb=min(0, 10 * sign), ub=max(0, 10 * sign))
        y = m.add_binary("y")
        m.add_constraint(sign * x + y >= 6)
        m.set_objective(sign * x + 1.5 * y)
        warm = np.zeros(2)
        warm[x.index], warm[y.index] = 5 * sign, 1.0
        solution = BranchAndBoundSolver(warm_start=warm).solve(m)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(6.0)
        assert solution.rounded(x) == 6 * sign
