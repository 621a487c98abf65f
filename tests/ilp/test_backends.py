"""Unit tests for the solver-backend table and the portfolio."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.ilp import (
    BACKENDS,
    BnBOptions,
    BranchAndBoundSolver,
    Model,
    ModelError,
    PortfolioBackend,
    ScipyMilpSolver,
    SolverError,
    create_solver,
    highs_available,
    resolve_backend,
    quicksum,
)
from repro.ilp import backends as backends_module

NAMES = ["bnb", "bnb-pure", "bnb-tableau", "scipy-milp", "portfolio"]


def knapsack_model() -> Model:
    model = Model("knapsack")
    values = [6, 5, 4, 3, 2]
    weights = [4, 3, 3, 2, 1]
    x = [model.add_binary(f"x{i}") for i in range(len(values))]
    model.add_constraint(quicksum(w * v for w, v in zip(weights, x)) <= 7)
    model.set_objective(quicksum(-value * var for value, var in zip(values, x)))
    return model


@pytest.fixture
def without_highs(monkeypatch):
    """Run the portfolio as if SciPy were missing."""
    monkeypatch.setattr(backends_module, "highs_available", lambda: False)


class TestRegistry:
    def test_at_least_three_backends_registered(self):
        assert list(BACKENDS) == NAMES
        assert all(backend.description for backend in BACKENDS.values())

    def test_canonical_names_resolve_and_former_aliases_raise(self):
        assert resolve_backend(None) == resolve_backend("auto") == "bnb"
        for name in NAMES:
            assert resolve_backend(name) == name
        for alias in ("branch-and-bound", "pure", "simplex", "tableau",
                      "scipy", "highs-milp", "race"):
            with pytest.raises(ModelError):
                resolve_backend(alias)

    def test_create_solver_keeps_backward_compatibility(self):
        assert isinstance(create_solver(None), BranchAndBoundSolver)
        assert isinstance(create_solver("auto"), BranchAndBoundSolver)
        pure = create_solver("bnb-pure")
        assert pure.options.lp_backend == "revised"
        if highs_available():
            assert isinstance(create_solver("scipy-milp"), ScipyMilpSolver)

    def test_unknown_backend_raises_model_error(self):
        with pytest.raises(ModelError):
            create_solver("cplex")

    def test_unavailable_backend_raises_solver_error(self, monkeypatch):
        row = BACKENDS["scipy-milp"]._replace(available=lambda: False)
        monkeypatch.setitem(BACKENDS, "scipy-milp", row)
        with pytest.raises(SolverError):
            create_solver("scipy-milp")

    def test_options_filtered_to_backend_schema(self):
        if not highs_available():
            pytest.skip("SciPy not available")
        # node_limit is a branch-and-bound knob; the HiGHS wrapper ignores it.
        solver = create_solver("scipy-milp", time_limit=5.0, node_limit=10)
        assert solver.time_limit == 5.0

    def test_bnb_options_are_the_one_option_list(self):
        fields = {f.name for f in dataclasses.fields(BnBOptions)}
        assert len(fields) == 17
        for name in ("bnb", "bnb-pure", "bnb-tableau"):
            assert BACKENDS[name].options == fields
        assert BACKENDS["portfolio"].options == fields - {"stop_check"}
        assert BACKENDS["scipy-milp"].options == {"time_limit", "rel_gap", "fix_zero"}

    def test_every_backend_satisfies_the_protocol(self):
        for name, backend in BACKENDS.items():
            if not backend.available():
                continue
            solution = create_solver(name, time_limit=30).solve(knapsack_model())
            assert solution.is_optimal, name
            assert solution.objective == pytest.approx(-11.0), name


class TestPortfolioBackend:
    def test_solves_to_optimality(self):
        solution = PortfolioBackend(time_limit=30).solve(knapsack_model())
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-11.0)
        assert solution.stats.backend.startswith("portfolio[")

    def test_matches_the_individual_entrants(self):
        portfolio = PortfolioBackend(time_limit=30).solve(knapsack_model())
        pure = create_solver("bnb-pure").solve(knapsack_model())
        assert portfolio.objective == pytest.approx(pure.objective)
        if highs_available():
            highs = create_solver("scipy-milp").solve(knapsack_model())
            assert portfolio.objective == pytest.approx(highs.objective)

    def test_single_entrant_degrades_to_direct_solve(self, without_highs):
        solution = PortfolioBackend().solve(knapsack_model())
        assert solution.is_optimal
        assert "bnb-pure" in solution.stats.backend
        assert solution.stats.extra["portfolio_entrants"] == ["bnb-pure"]

    def test_branch_and_bound_options_reach_the_entrant(self):
        portfolio = create_solver("portfolio", branching="variable", node_limit=7)
        entrants = dict(portfolio._build_entrants(threading.Event()))
        options = entrants["bnb-pure"].options
        assert (options.branching, options.node_limit) == ("variable", 7)
        assert options.lp_backend == "revised"
        assert sorted(entrants) == (
            ["bnb-pure", "scipy-milp"] if highs_available() else ["bnb-pure"]
        )

    def test_maximize_models_pick_the_best_incumbent(self):
        # Knapsack phrased as MAXIMIZE; the portfolio's fallback tie-break
        # must honour the model's sense, not always take min(objective).
        model = Model("knapsack-max", sense="max")
        values = [6, 5, 4, 3, 2]
        weights = [4, 3, 3, 2, 1]
        x = [model.add_binary(f"x{i}") for i in range(len(values))]
        model.add_constraint(quicksum(w * v for w, v in zip(weights, x)) <= 7)
        model.set_objective(quicksum(v * var for v, var in zip(values, x)))
        solution = PortfolioBackend(time_limit=30).solve(model)
        assert solution.is_success
        assert solution.objective == pytest.approx(11.0)

    def test_registered_and_usable_through_create_solver(self):
        solution = create_solver("portfolio", time_limit=30).solve(knapsack_model())
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-11.0)

    def test_winner_recorded_in_result_metadata(self):
        solution = PortfolioBackend(time_limit=30).solve(knapsack_model())
        extra = solution.stats.extra
        assert extra["portfolio_winner"] in extra["portfolio_entrants"]
        assert len(extra["portfolio_entrants"]) >= 1
        assert extra["portfolio_cancelled"] >= 0
        # The backend string names the same winner.
        assert extra["portfolio_winner"] in solution.stats.backend

    def test_single_entrant_metadata(self, without_highs):
        solution = PortfolioBackend().solve(knapsack_model())
        assert solution.stats.extra["portfolio_winner"] == "bnb-pure"
        assert solution.stats.extra["portfolio_cancelled"] == 0

    def test_fix_zero_honoured_by_every_entrant(self):
        # Forbid the best knapsack item; both entrants must respect it.
        model = knapsack_model()
        unrestricted = PortfolioBackend(time_limit=30).solve(model)
        best = int(max(
            range(model.num_variables),
            key=lambda i: unrestricted.values[i],
        ))
        restricted = PortfolioBackend(time_limit=30, fix_zero=[best]).solve(model)
        assert restricted.is_optimal
        assert restricted.values[best] == pytest.approx(0.0, abs=1e-9)
        assert restricted.objective >= unrestricted.objective - 1e-9


class TestStopCheck:
    def test_stop_check_cancels_the_solve(self):
        # A stop check that fires immediately must abort before any node is
        # explored while still returning cleanly.
        solver = BranchAndBoundSolver(stop_check=lambda: True, root_heuristic=False)
        solution = solver.solve(knapsack_model())
        assert solution.status == "timeout"
        assert solution.stats.nodes_explored == 0
