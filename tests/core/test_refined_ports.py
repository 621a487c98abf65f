"""Tests for the refined (>2-port) port-estimation extension.

The paper lists improving ``consumed_ports()`` for banks with more than two
ports as future work: the Figure 3 estimate charges ports proportionally to
the occupied space, which wastes ports on 3+-ported banks (the (8, 8, 0)
rejection of Table 2).  The ``port_estimation="refined"`` mode charges a
partial fragment one port and a whole-instance fragment all ports, so
designs rejected by the paper's estimate can become mappable, while never
changing behaviour on the single- and dual-ported banks the paper targets.
"""

from __future__ import annotations

import pytest

from repro.arch import BankType, Board
from repro.core import (
    MappingError,
    MemoryMapper,
    Preprocessor,
    compute_pair_metrics,
    refined_consumed_ports,
    validate_detailed_mapping,
)
from repro.design import DataStructure, Design


@pytest.fixture
def three_port_bank():
    return BankType(name="tri", num_instances=2, num_ports=3,
                    configurations=[(128, 1), (64, 2), (32, 4), (16, 8)])


@pytest.fixture
def three_port_board(three_port_bank):
    slow = BankType(name="slow", num_instances=1, num_ports=1,
                    configurations=[(16384, 32)], read_latency=4, write_latency=4,
                    pins_traversed=2)
    return Board(name="tri-board", bank_types=(three_port_bank, slow))


class TestRefinedCharge:
    def test_never_exceeds_paper_charge(self, three_port_bank, blockram_like, sram_like):
        for bank in (three_port_bank, blockram_like, sram_like):
            for depth, width in [(8, 8), (55, 17), (200, 3), (16, 8), (1024, 16)]:
                metrics = compute_pair_metrics(DataStructure("d", depth, width), bank)
                assert refined_consumed_ports(metrics, bank) <= metrics.consumed_ports

    def test_matches_paper_for_single_ported_banks(self, sram_like):
        for depth, width in [(8, 8), (1000, 16), (16384, 32)]:
            metrics = compute_pair_metrics(DataStructure("d", depth, width), sram_like)
            assert refined_consumed_ports(metrics, sram_like) == metrics.consumed_ports

    def test_whole_instance_fragments_still_block_every_port(self, three_port_bank):
        metrics = compute_pair_metrics(DataStructure("full", 16, 8), three_port_bank)
        assert refined_consumed_ports(metrics, three_port_bank) == 3

    def test_half_instance_fragment_charges_one_port(self, three_port_bank):
        # The paper's estimate charges 2 of the 3 ports for an 8-word piece.
        metrics = compute_pair_metrics(DataStructure("half", 8, 8), three_port_bank)
        assert metrics.consumed_ports == 2
        assert refined_consumed_ports(metrics, three_port_bank) == 1

    def test_unknown_mode_rejected(self, three_port_board):
        design = Design.from_segments("x", [("a", 8, 8)])
        with pytest.raises(ValueError):
            Preprocessor(design, three_port_board, port_estimation="magic")


class TestRefinedPreprocessor:
    def test_cp_table_uses_refined_charge(self, three_port_board):
        design = Design.from_segments("pair", [("a", 8, 8), ("b", 8, 8)])
        paper = Preprocessor(design, three_port_board)
        refined = Preprocessor(design, three_port_board, port_estimation="refined")
        tri = three_port_board.type_index("tri")
        assert paper.cp[0, tri] == 2
        assert refined.cp[0, tri] == 1
        # Ceiling sizes are identical: only the port charge changes.
        assert (paper.cw == refined.cw).all()
        assert (paper.cd == refined.cd).all()

    def test_dual_ported_boards_unchanged(self, two_type_board, small_design):
        paper = Preprocessor(small_design, two_type_board)
        refined = Preprocessor(small_design, two_type_board, port_estimation="refined")
        # For 1- and 2-ported banks the refined charge only differs where the
        # paper's proportional charge exceeds one port for a partial
        # fragment; it never exceeds the paper value.
        assert (refined.cp <= paper.cp).all()


class TestRefinedPipeline:
    def test_enables_designs_the_paper_estimate_rejects(self, three_port_board):
        # Six 8-word structures on two 3-port instances: physically three
        # structures share each instance (3 ports, 3 x 64 bits < 128 bits is
        # false -- 3 x 64 = 192 > 128, so only two share by capacity), plus
        # one on the off-chip SRAM port.  The paper's estimate (2 ports per
        # structure) admits at most 3 on the tri type + 1 off-chip = 4, so a
        # 5-structure design is infeasible under "paper" but feasible under
        # "refined".
        design = Design.from_segments(
            "five", [(f"s{i}", 8, 8) for i in range(5)]
        )
        with pytest.raises(MappingError):
            MemoryMapper(three_port_board, port_estimation="paper",
                         max_retries=1, warm_start=False).map(design)
        result = MemoryMapper(three_port_board, port_estimation="refined",
                              max_retries=5, warm_start=False).map(design)
        violations = validate_detailed_mapping(
            design, three_port_board, result.global_mapping, result.detailed_mapping
        )
        assert violations == []

    def test_refined_mode_still_valid_on_example_designs(self, default_board):
        from repro.design import fir_filter_design, image_pipeline_design

        for design in (fir_filter_design(), image_pipeline_design()):
            result = MemoryMapper(default_board, port_estimation="refined").map(design)
            assert validate_detailed_mapping(
                design, default_board, result.global_mapping, result.detailed_mapping
            ) == []

    def test_refined_objective_never_worse(self, default_board):
        from repro.design import matrix_multiply_design

        design = matrix_multiply_design()
        paper = MemoryMapper(default_board, port_estimation="paper").map(design)
        refined = MemoryMapper(default_board, port_estimation="refined").map(design)
        # Refined constraints are a relaxation of the paper's, so the optimal
        # objective can only improve or stay equal.
        assert refined.cost.weighted_total <= paper.cost.weighted_total + 1e-9
