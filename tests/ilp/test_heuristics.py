"""Unit tests for the primal heuristics that seed branch-and-bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import BranchAndBoundSolver, Model, quicksum, to_standard_form
from repro.ilp.heuristics import round_with_sos, sos_greedy_assignment
from repro.ilp.sos import SosIndex


def make_assignment_model(cost, capacity):
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


def round_model(m, form, x):
    groups = SosIndex.from_groups([g.members for g in m.sos1_groups], form.c)
    return round_with_sos(form, groups, x)


class TestRoundWithSos:
    def test_rounds_clean_fractional_point_to_feasible(self):
        cost = [[1, 5], [4, 2]]
        m, z = make_assignment_model(cost, capacity=[2, 2])
        form = to_standard_form(m)
        x = np.zeros(m.num_variables)
        x[z[0][0].index] = 0.7
        x[z[0][1].index] = 0.3
        x[z[1][0].index] = 0.4
        x[z[1][1].index] = 0.6
        rounded = round_model(m, form, x)
        assert rounded is not None
        assert rounded[z[0][0].index] == 1.0
        assert rounded[z[1][1].index] == 1.0
        assert m.is_feasible(rounded)

    def test_returns_none_when_rounding_breaks_capacity(self):
        cost = [[1, 5], [1, 5], [1, 5]]
        m, z = make_assignment_model(cost, capacity=[1, 3])
        form = to_standard_form(m)
        x = np.zeros(m.num_variables)
        for i in range(3):  # every group leans toward the capacity-1 bin
            x[z[i][0].index] = 0.9
            x[z[i][1].index] = 0.1
        assert round_model(m, form, x) is None

    def test_ties_broken_toward_cheaper_member(self):
        cost = [[7, 1]]
        m, z = make_assignment_model(cost, capacity=[1, 1])
        form = to_standard_form(m)
        x = np.zeros(m.num_variables)
        x[z[0][0].index] = 0.5
        x[z[0][1].index] = 0.5
        rounded = round_model(m, form, x)
        assert rounded is not None
        assert rounded[z[0][1].index] == 1.0


class TestGreedyAssignment:
    def test_produces_feasible_assignment(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = make_assignment_model(cost, capacity=[2, 2, 2])
        form = to_standard_form(m)
        x = sos_greedy_assignment(m, form)
        assert x is not None
        assert m.is_feasible(x)

    def test_greedy_value_bounds_optimum(self):
        cost = [[3, 1, 4], [2, 5, 1], [6, 2, 3], [1, 1, 9]]
        m, _ = make_assignment_model(cost, capacity=[2, 2, 2])
        form = to_standard_form(m)
        x = sos_greedy_assignment(m, form)
        greedy_cost = float(form.c @ x)
        optimal = m.solve().objective
        assert greedy_cost >= optimal - 1e-9

    def test_returns_none_without_sos_groups(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constraint(x <= 1)
        m.set_objective(x)
        assert sos_greedy_assignment(m, to_standard_form(m)) is None

    def test_returns_none_when_capacity_impossible(self):
        cost = [[1, 1], [1, 1], [1, 1]]
        m, _ = make_assignment_model(cost, capacity=[1, 1])
        form = to_standard_form(m)
        assert sos_greedy_assignment(m, form) is None

    def test_bails_out_on_foreign_equalities(self):
        cost = [[1, 2]]
        m, z = make_assignment_model(cost, capacity=[1, 1])
        extra = m.add_binary("extra")
        m.add_constraint(extra.to_expr() == 1)
        form = to_standard_form(m)
        assert sos_greedy_assignment(m, form) is None

    def test_equal_cost_ties_break_on_variable_name(self):
        # Both members of every group cost the same; the greedy must pick
        # the lexicographically-smallest variable name, not whichever
        # index the model happened to create first.  Pins the stable
        # ``(cost, name)`` sort that keeps fast-mode fingerprints
        # reproducible across model construction orders.
        m = Model("ties")
        b = m.add_binary("z[0,b]")
        a = m.add_binary("z[0,a]")
        m.add_constraint(quicksum([a, b]) == 1)
        m.add_sos1([b, a])
        m.add_constraint(a + b <= 1)
        m.set_objective(2.0 * a + 2.0 * b)
        form = to_standard_form(m)
        x = sos_greedy_assignment(m, form)
        assert x is not None
        assert x[a.index] == 1.0
        assert x[b.index] == 0.0

    def test_tie_break_is_construction_order_invariant(self):
        # The same two-member group declared in opposite construction
        # orders must produce the same winner.
        def build(order):
            m = Model("perm")
            vs = {name: m.add_binary(name) for name in order}
            pair = [vs["z[0,p]"], vs["z[0,q]"]]
            m.add_constraint(quicksum(pair) == 1)
            m.add_sos1(pair)
            m.add_constraint(quicksum(pair) <= 1)
            m.set_objective(quicksum(3.0 * v for v in pair))
            x = sos_greedy_assignment(m, to_standard_form(m))
            assert x is not None
            return {name: x[vs[name].index] for name in vs}

        assert build(["z[0,p]", "z[0,q]"]) == build(["z[0,q]", "z[0,p]"])


class TestRootIncumbent:
    @pytest.mark.parametrize("seed", range(10))
    def test_root_heuristic_never_changes_the_optimum(self, seed):
        # The greedy root incumbent only enters through the strict
        # improvement filter, so the proved optimum is the same with it
        # off, and the incumbent it gives the cutoff can only prune.
        rng = np.random.default_rng(seed)
        cost = rng.integers(1, 25, size=(9, 4)).tolist()
        capacity = rng.integers(2, 6, size=4)
        while int(capacity.sum()) < 9:
            capacity[int(rng.integers(4))] += 1
        solves = [
            BranchAndBoundSolver(root_heuristic=flag).solve(
                make_assignment_model(cost, capacity.tolist())[0]
            )
            for flag in (False, True)
        ]
        baseline, with_greedy = solves
        assert baseline.is_optimal and with_greedy.is_optimal
        assert with_greedy.objective == pytest.approx(
            baseline.objective, abs=1e-9
        )
        assert with_greedy.stats.nodes_explored <= \
            baseline.stats.nodes_explored
