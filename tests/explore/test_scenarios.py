"""Unit tests for the scenario catalog."""

from __future__ import annotations

import pytest

from repro.arch.board import Board
from repro.design.design import Design
from repro.explore import (
    ScenarioParamError,
    ScenarioPoint,
    UnknownScenarioError,
    list_scenario_families,
    scenario_family,
)


class TestRegistry:
    def test_builtin_families_are_registered(self):
        names = {family.name for family in list_scenario_families()}
        expected = {
            "image-pipeline",
            "fir-filter",
            "fft",
            "matrix-multiply",
            "motion-estimation",
            "random",
            "board-scale",
        }
        assert expected <= names

    def test_unknown_family_is_a_clean_error(self):
        with pytest.raises(UnknownScenarioError,
                           match="no-such-family.*known families are.*board-scale"):
            scenario_family("no-such-family")

    def test_unknown_parameter_is_a_clean_error(self):
        with pytest.raises(ScenarioParamError, match="no parameter"):
            ScenarioPoint(family="fft", params={"bogus": 1})

    def test_bad_parameter_value_is_a_clean_error(self):
        with pytest.raises(ScenarioParamError, match="expects int"):
            ScenarioPoint(family="fft", params={"points": "many"})


class TestScenarioPoints:
    def test_build_produces_design_and_board(self):
        point = ScenarioPoint(family="fir-filter", params={"taps": 32})
        design, board = point.build()
        assert isinstance(design, Design)
        assert isinstance(board, Board)
        assert design.by_name("coefficients").depth == 32

    def test_board_scale_matches_requested_banks(self):
        point = ScenarioPoint(family="board-scale", params={"banks": 8, "segments": 6})
        _, board = point.build()
        assert board.total_banks == 8

    def test_defaults_fill_unset_parameters(self):
        point = ScenarioPoint(family="image-pipeline", params={"width": 64})
        resolved = point.resolved_params()
        assert resolved["width"] == 64
        assert resolved["kernel"] == 3
        assert resolved["board"] == "hierarchical"

    def test_labels_are_deterministic_and_param_sorted(self):
        point_a = ScenarioPoint(
            family="random", params={"structures": 6, "occupancy": 0.5}
        )
        point_b = ScenarioPoint(
            family="random", params={"occupancy": 0.5, "structures": 6}
        )
        assert point_a.label() == point_b.label()
        assert point_a.label() == "random[occupancy=0.5,structures=6]"

    def test_unknown_board_parameter_value_fails_at_build(self):
        point = ScenarioPoint(family="fft", params={"board": "no-such-board"})
        with pytest.raises(ScenarioParamError, match="unknown board"):
            point.build()


class TestSeedSensitivity:
    def test_paper_workload_families_are_seed_insensitive(self):
        for name in ("image-pipeline", "fir-filter", "fft",
                     "matrix-multiply", "motion-estimation"):
            assert not scenario_family(name).seed_sensitive, name

    def test_generator_backed_families_stay_seed_sensitive(self):
        for name in ("random", "board-scale", "dag-schedule", "hetero-cost"):
            assert scenario_family(name).seed_sensitive, name

    def test_insensitive_point_normalizes_its_seed(self):
        # The fft builder ignores the seed entirely, so ~s7 and ~s3 would
        # be the same instance under two labels (and two cache keys).
        point = ScenarioPoint(family="fft", params={"points": 64}, seed=7)
        assert point.seed == 0
        assert point.label() == "fft[points=64]"
        assert point == ScenarioPoint(family="fft", params={"points": 64}, seed=3)

    def test_sensitive_point_keeps_its_seed(self):
        point = ScenarioPoint(family="random", params={}, seed=7)
        assert point.seed == 7
        assert point.label() == "random~s7"

    def test_points_are_hashable(self):
        a = ScenarioPoint(family="random", params={"structures": 6}, seed=1)
        b = ScenarioPoint(family="random", params={"structures": 6}, seed=1)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestNewFamilies:
    def test_dag_schedule_builds_a_sparse_conflict_instance(self):
        point = ScenarioPoint(
            family="dag-schedule",
            params={"depth": 6, "width": 2, "branch": 0.3},
            seed=3,
        )
        design, board = point.build()
        n = design.num_segments
        assert n >= 6  # one buffer per task, at least one task per layer
        # Distant layers never coexist under list scheduling, so the
        # conflict graph must be banded — strictly sparser than the
        # paper's all-pairs workloads.
        assert len(design.conflicts) < n * (n - 1) // 2
        assert board.name == "hierarchical"

    def test_dag_schedule_is_deterministic_per_seed(self):
        point = ScenarioPoint(
            family="dag-schedule", params={"depth": 4, "width": 3}, seed=5
        )
        design_a, _ = point.build()
        design_b, _ = point.build()
        assert [
            (ds.name, ds.depth, ds.width) for ds in design_a
        ] == [(ds.name, ds.depth, ds.width) for ds in design_b]

    def test_hetero_cost_builds_tiered_board(self):
        point = ScenarioPoint(
            family="hetero-cost",
            params={"tiers": 3, "banks_per_tier": 2, "segments": 6},
            seed=1,
        )
        design, board = point.build()
        assert design.num_segments == 6
        names = [bank.name for bank in board]
        assert names == ["tier0-onchip", "tier1-class", "tier2-class"]
        latencies = [bank.read_latency for bank in board]
        assert latencies == sorted(latencies)

    def test_new_families_are_registered(self):
        names = {family.name for family in list_scenario_families()}
        assert {"dag-schedule", "hetero-cost"} <= names

    def test_dag_schedule_rejects_bad_knobs(self):
        from repro.design import DesignError

        with pytest.raises(DesignError, match="burstiness"):
            ScenarioPoint(
                family="dag-schedule", params={"burstiness": 1.5}
            ).build()
