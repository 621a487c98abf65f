"""Unit tests for the cross-solve SolveContext (warm starts, pseudo-costs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    BranchAndBoundSolver,
    Model,
    PseudoCost,
    SolveContext,
    quicksum,
)


def assignment_model(cost, capacity):
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


class TestPseudoCost:
    def test_update_and_estimate(self):
        pc = PseudoCost()
        assert pc.estimate("down", 2.5) == 2.5  # default before observations
        pc.update("down", 4.0)
        pc.update("down", 2.0)
        pc.update("up", 1.0)
        assert pc.estimate("down", 0.0) == pytest.approx(3.0)
        assert pc.estimate("up", 0.0) == pytest.approx(1.0)
        assert pc.observations == 3

    def test_negative_gains_clamped(self):
        pc = PseudoCost()
        pc.update("up", -5.0)
        assert pc.estimate("up", 9.9) == 0.0

    def test_round_trip(self):
        pc = PseudoCost(down_sum=1.5, down_count=2, up_sum=0.5, up_count=1)
        assert PseudoCost.from_dict(pc.as_dict()) == pc


class TestFormCache:
    def test_same_model_reuses_form(self):
        m, _ = assignment_model([[1, 2], [2, 1]], [2, 2])
        ctx = SolveContext()
        first = ctx.standard_form(m)
        second = ctx.standard_form(m)
        assert first is second
        assert ctx.form_reuses == 1

    def test_different_model_rebuilds(self):
        m1, _ = assignment_model([[1, 2]], [1, 1])
        m2, _ = assignment_model([[2, 1]], [1, 1])
        ctx = SolveContext()
        form1 = ctx.standard_form(m1)
        form2 = ctx.standard_form(m2)
        assert form1 is not form2
        assert ctx.form_reuses == 0


class TestContextThroughSolver:
    def test_context_accumulates_stats(self):
        m, _ = assignment_model([[3, 1], [2, 5], [6, 2]], [3, 3])
        ctx = SolveContext()
        solution = BranchAndBoundSolver(context=ctx).solve(m)
        assert solution.is_optimal
        assert ctx.warm_values is not None  # incumbent remembered
        assert ctx.form_reuses == 0  # first solve builds the form

    def test_second_solve_warm_starts_from_first(self):
        m, _ = assignment_model([[3, 1], [2, 5], [6, 2]], [3, 3])
        ctx = SolveContext()
        first = BranchAndBoundSolver(context=ctx).solve(m)
        second = BranchAndBoundSolver(context=ctx).solve(m)
        assert second.objective == pytest.approx(first.objective)
        assert ctx.warm_start_hits >= 1
        assert ctx.form_reuses >= 1

    def test_round_trip_preserves_counters(self):
        m, _ = assignment_model([[3, 1], [2, 5]], [2, 2])
        ctx = SolveContext()
        BranchAndBoundSolver(context=ctx).solve(m)
        BranchAndBoundSolver(context=ctx).solve(m)
        clone = SolveContext.from_dict(ctx.as_dict())
        assert (clone.warm_start_hits, clone.form_reuses) == (
            ctx.warm_start_hits, ctx.form_reuses)
        assert ctx.form_reuses == 1
        assert set(clone.pseudocosts) == set(ctx.pseudocosts)
        np.testing.assert_allclose(clone.warm_values, ctx.warm_values)

    def test_summary_is_json_serialisable(self):
        import json

        m, _ = assignment_model([[3, 1], [2, 5]], [2, 2])
        ctx = SolveContext()
        BranchAndBoundSolver(context=ctx).solve(m)
        json.dumps(ctx.as_dict())


class TestChainDict:
    """The name-keyed chaining hook of the explore subsystem."""

    def test_chain_dict_round_trip(self):
        ctx = SolveContext()
        ctx.pseudocost("Z[a|t0]").update("down", 2.0)
        ctx.note_assignment({"a": "t0", "b": "t1"})
        chained = SolveContext.from_chain_dict(ctx.chain_dict())
        assert chained.seed_assignment == {"a": "t0", "b": "t1"}
        # Pseudo-costs stay with the solve that learned them.
        assert "pseudocosts" not in ctx.chain_dict()
        assert chained.pseudocosts == {}

    def test_chain_with_legacy_pseudocosts_still_resumes(self):
        legacy = {
            "kind": "solve_context_chain",
            "pseudocosts": {"Z[a|t0]": {"down_sum": 2.0, "down_count": 1}},
            "seed_assignment": {"a": "t0"},
            "warm_basis": None,
        }
        chained = SolveContext.from_chain_dict(legacy)
        assert chained.seed_assignment == {"a": "t0"}
        assert chained.pseudocosts == {}

    def test_chain_dict_drops_model_specific_state(self):
        ctx = SolveContext()
        ctx.note_incumbent(np.array([1.0, 0.0]))
        ctx.note_assignment({"a": "t0"})
        ctx.form_reuses = 7
        chained = SolveContext.from_chain_dict(ctx.chain_dict())
        assert chained.warm_values is None
        assert chained.form_reuses == 0
        assert chained.seed_assignment == {"a": "t0"}

    def test_chain_dict_is_json_serialisable(self):
        import json

        ctx = SolveContext()
        ctx.note_assignment({"a": "t0"})
        json.dumps(ctx.chain_dict())

    def test_as_dict_round_trips_seed_assignment(self):
        ctx = SolveContext()
        ctx.note_assignment({"a": "t0"})
        clone = SolveContext.from_dict(ctx.as_dict())
        assert clone.seed_assignment == {"a": "t0"}
