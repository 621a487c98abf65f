"""Unit tests for the global-mapping ILP (Section 4.1.2 / 4.1.3)."""

from __future__ import annotations

import pytest

from repro.arch import BankType, Board
from repro.core import (
    CostWeights,
    GlobalMapper,
    GreedyMapper,
    MappingError,
    Preprocessor,
    validate_global_mapping,
)
from repro.design import ConflictSet, DataStructure, Design


@pytest.fixture
def tight_board():
    """A board where the on-chip type cannot hold everything (forces choice)."""
    onchip = BankType(name="fast", num_instances=4, num_ports=2,
                      configurations=[(2048, 1), (1024, 2), (512, 4), (256, 8), (128, 16)],
                      read_latency=1, write_latency=1, pins_traversed=0)
    offchip = BankType(name="slow", num_instances=2, num_ports=1,
                       configurations=[(65536, 32)], read_latency=3, write_latency=3,
                       pins_traversed=2)
    return Board(name="tight", bank_types=(onchip, offchip))


@pytest.fixture
def competing_design():
    """Three structures whose total exceeds the fast type's capacity."""
    structures = (
        DataStructure("big", 2048, 4),     # 8192 bits: exactly the fast capacity
        DataStructure("mid", 1024, 4),     # 4096 bits
        DataStructure("small", 256, 8),    # 2048 bits
    )
    return Design(name="competing", data_structures=structures,
                  conflicts=ConflictSet.all_pairs(structures))


class TestModelStructure:
    def test_variable_and_constraint_counts(self, two_type_board, small_design):
        mapper = GlobalMapper(two_type_board)
        artifacts = mapper.build_model(small_design)
        model = artifacts.model
        # One Z variable per feasible (structure, type) pair.
        pre = Preprocessor(small_design, two_type_board)
        feasible_pairs = int(pre.feasible_pairs().sum())
        assert model.num_variables == feasible_pairs
        # Uniqueness per structure plus <=2 resource rows per type.
        uniq = small_design.num_segments
        assert model.num_constraints == uniq + 2 * len(two_type_board)
        # One SOS-1 group per structure that has more than one candidate.
        assert len(model.sos1_groups) <= small_design.num_segments

    def test_global_model_is_much_smaller_than_complete(self, two_type_board, small_design):
        from repro.core import CompleteMapper

        global_model = GlobalMapper(two_type_board).build_model(small_design).model
        complete_model = CompleteMapper(two_type_board).build_model(small_design).model
        assert global_model.num_variables < complete_model.num_variables / 5

    def test_unmappable_structure_raises(self, two_type_board):
        design = Design.from_segments("huge", [("blob", 10**6, 64)])
        with pytest.raises(MappingError):
            GlobalMapper(two_type_board).build_model(design)

    def test_forbidding_every_type_raises(self, two_type_board, small_design):
        mapper = GlobalMapper(two_type_board)
        with pytest.raises(MappingError):
            mapper.solve(
                small_design,
                forbidden_pairs=[("coeffs", "blockram"), ("coeffs", "sram")],
            )


class TestSkeletonMemoization:
    def test_rebuilds_reuse_the_skeleton(self, two_type_board, small_design):
        mapper = GlobalMapper(two_type_board)
        mapper.build_model(small_design)
        assert (mapper.skeleton_builds, mapper.skeleton_reuses) == (1, 0)
        # The retry loop's shape: same design, growing forbidden set.
        mapper.solve(small_design, forbidden_pairs=[("coeffs", "blockram")])
        mapper.solve(small_design, forbidden_pairs=[("coeffs", "blockram"),
                                                    ("table", "blockram")])
        assert mapper.skeleton_builds == 1
        assert mapper.skeleton_reuses > 0

    def test_memoized_rebuild_produces_the_same_model(self, two_type_board, small_design):
        fresh = GlobalMapper(two_type_board).build_model(small_design)
        warm_mapper = GlobalMapper(two_type_board)
        warm_mapper.build_model(small_design)  # populate the skeleton cache
        warm = warm_mapper.build_model(small_design)
        assert set(warm.z_vars) == set(fresh.z_vars)
        assert warm.model.num_variables == fresh.model.num_variables
        assert warm.model.num_constraints == fresh.model.num_constraints
        assert [c.name for c in warm.model.constraints] == \
            [c.name for c in fresh.model.constraints]

    def test_distinct_designs_get_distinct_skeletons(self, two_type_board, small_design):
        mapper = GlobalMapper(two_type_board)
        other = Design.from_segments("other", [("tiny", 16, 8)])
        mapper.build_model(small_design)
        mapper.build_model(other)
        assert mapper.skeleton_builds == 2

    def test_solve_after_forbidden_rebuild_stays_optimal(self, two_type_board, small_design):
        mapper = GlobalMapper(two_type_board)
        baseline = mapper.solve(small_design)
        rerouted = mapper.solve(
            small_design,
            forbidden_pairs=[("coeffs", baseline.type_of("coeffs"))],
        )
        assert rerouted.solver_status == "optimal"
        assert rerouted.type_of("coeffs") != baseline.type_of("coeffs")
        assert validate_global_mapping(small_design, two_type_board, rerouted) == []


class TestSolving:
    def test_small_design_all_onchip(self, two_type_board, small_design):
        mapping = GlobalMapper(two_type_board).solve(small_design)
        assert mapping.solver_status == "optimal"
        # Everything except the frame fits on-chip and on-chip is cheaper.
        assert mapping.type_of("coeffs") == "blockram"
        assert mapping.type_of("frame") == "sram"
        assert validate_global_mapping(small_design, two_type_board, mapping) == []

    def test_capacity_pressure_pushes_somebody_offchip(self, tight_board, competing_design):
        mapping = GlobalMapper(tight_board).solve(competing_design)
        placements = set(mapping.assignment.values())
        assert "slow" in placements           # not everything fits on "fast"
        assert validate_global_mapping(competing_design, tight_board, mapping) == []

    def test_optimum_prefers_small_structures_offchip(self, tight_board, competing_design):
        # With latency-only weights the ILP should keep the structures with
        # the most accesses (the big ones) on the fast type.
        mapping = GlobalMapper(tight_board, weights=CostWeights.latency_only()).solve(
            competing_design
        )
        assert mapping.type_of("big") == "fast"

    def test_matches_greedy_or_better(self, two_type_board, small_design):
        ilp = GlobalMapper(two_type_board).solve(small_design)
        greedy = GreedyMapper(two_type_board).solve(small_design)
        assert ilp.objective <= greedy.objective + 1e-9

    def test_warm_start_does_not_change_optimum(self, two_type_board, small_design):
        mapper = GlobalMapper(two_type_board)
        cold = mapper.solve(small_design)
        greedy = GreedyMapper(two_type_board).solve(small_design)
        warm = mapper.solve(small_design, warm_start=greedy.assignment)
        assert warm.objective == pytest.approx(cold.objective)

    def test_solver_stats_recorded(self, two_type_board, small_design):
        mapping = GlobalMapper(two_type_board).solve(small_design)
        assert mapping.solve_time >= 0.0
        assert "wall_time" in mapping.solver_stats

    def test_infeasible_port_budget_raises(self):
        # One single-ported instance cannot host two structures.
        bank = BankType(name="one", num_instances=1, num_ports=1,
                        configurations=[(1024, 8)])
        board = Board(name="tiny", bank_types=(bank,))
        design = Design.from_segments("two", [("a", 16, 8), ("b", 16, 8)])
        with pytest.raises(MappingError):
            GlobalMapper(board).solve(design)


class TestCapacityModes:
    def test_clique_mode_allows_sharing(self):
        bank = BankType(name="fast", num_instances=2, num_ports=2,
                        configurations=[(128, 1), (64, 2), (32, 4), (16, 8)])
        slow = BankType(name="slow", num_instances=1, num_ports=1,
                        configurations=[(65536, 32)], read_latency=4, write_latency=4,
                        pins_traversed=2)
        board = Board(name="sharing", bank_types=(bank, slow))
        # Two 128-bit structures: together they exceed one instance but they
        # never conflict, so clique mode may count only the larger of the two
        # against the capacity and keep both on the fast type.
        structures = (
            DataStructure("x", 16, 8, lifetime=(0, 1)),
            DataStructure("y", 16, 8, lifetime=(2, 3)),
            DataStructure("z", 16, 8, lifetime=(4, 5)),
        )
        design = Design(name="no-conflicts", data_structures=structures,
                        conflicts=ConflictSet.from_lifetimes(structures))
        strict = GlobalMapper(board, capacity_mode="strict").solve(design)
        clique = GlobalMapper(board, capacity_mode="clique").solve(design)
        assert clique.objective <= strict.objective + 1e-9

    def test_unknown_capacity_mode_rejected(self, two_type_board):
        with pytest.raises(ValueError):
            GlobalMapper(two_type_board, capacity_mode="magic")

    def test_invalid_unknown_solver_name(self, two_type_board, small_design):
        mapper = GlobalMapper(two_type_board, solver="does-not-exist")
        with pytest.raises(Exception):
            mapper.solve(small_design)
