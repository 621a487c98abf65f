"""Unit and property tests for the named and synthetic board builders."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import (
    ArchitectureError,
    apex_board,
    board_with_complexity,
    flex10k_board,
    hierarchical_board,
    virtex_board,
)


class TestNamedBoards:
    def test_virtex_board_composition(self):
        board = virtex_board("XCV300", num_srams=3)
        assert board.num_types == 2
        assert board.type_by_name("XCV300-BlockRAM").num_instances == 16
        assert board.type_by_name("SRAM-direct").num_instances == 3

    def test_apex_and_flex_boards(self):
        assert apex_board("EP20K200E").total_banks == 52 + 4
        assert flex10k_board("EPF10K70", num_srams=1).total_banks == 10

    def test_hierarchical_board_has_four_levels(self):
        board = hierarchical_board()
        assert board.num_types == 4
        assert len(board.on_chip_types) == 1
        assert len(board.off_chip_types) == 3
        # Distances must be monotonically non-decreasing across the hierarchy.
        pins = [t.pins_traversed for t in board.bank_types]
        assert pins == sorted(pins)


class TestBoardWithComplexity:
    @pytest.mark.parametrize(
        "banks,ports,configs",
        [
            (13, 25, 50),
            (23, 45, 100),
            (45, 77, 150),
            (65, 105, 150),
            (180, 265, 375),
        ],
    )
    def test_reproduces_table3_complexities(self, banks, ports, configs):
        board = board_with_complexity(banks, ports, configs, seed=1)
        assert board.total_banks == banks
        assert board.total_ports == ports
        assert board.total_config_settings == configs

    def test_deterministic_for_seed(self):
        a = board_with_complexity(45, 77, 150, seed=5)
        b = board_with_complexity(45, 77, 150, seed=5)
        assert a.describe() == b.describe()

    def test_rejects_inconsistent_port_totals(self):
        with pytest.raises(ArchitectureError):
            board_with_complexity(10, 9, 25)     # fewer ports than banks
        with pytest.raises(ArchitectureError):
            board_with_complexity(10, 25, 25)    # more than two ports per bank

    def test_rejects_non_multiple_of_five_configs(self):
        with pytest.raises(ArchitectureError):
            board_with_complexity(10, 15, 23)

    def test_rejects_configs_exceeding_ports(self):
        with pytest.raises(ArchitectureError):
            board_with_complexity(4, 5, 50)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_property_exact_complexity_for_consistent_triples(self, data):
        banks = data.draw(st.integers(min_value=2, max_value=120))
        ports = data.draw(st.integers(min_value=banks, max_value=2 * banks))
        multi_ports = data.draw(st.integers(min_value=0, max_value=ports))
        configs = 5 * multi_ports
        try:
            board = board_with_complexity(banks, ports, configs, seed=banks)
        except ArchitectureError:
            # A handful of extreme corner triples are declared unrealisable;
            # that is acceptable as long as realised boards are exact.
            return
        assert board.total_banks == banks
        assert board.total_ports == ports
        assert board.total_config_settings == configs


class TestHeterogeneousCostBoard:
    def test_tier_structure_and_names(self):
        from repro.arch import heterogeneous_cost_board

        board = heterogeneous_cost_board(tiers=3, banks_per_tier=4)
        assert board.name == "hetero-3x4"
        assert [bt.name for bt in board.bank_types] == [
            "tier0-onchip", "tier1-class", "tier2-class",
        ]
        assert all(bt.num_instances == 4 for bt in board.bank_types)
        assert board.total_banks == 12

    def test_tier0_is_the_fast_multi_config_class(self):
        from repro.arch import heterogeneous_cost_board

        tier0 = heterogeneous_cost_board().bank_types[0]
        assert tier0.num_ports == 2
        assert len(tier0.configurations) == 3
        # Equal-capacity configuration set: every shape holds the same bits.
        bits = {c.depth * c.width for c in tier0.configurations}
        assert len(bits) == 1
        assert tier0.read_latency == 1 and tier0.pins_traversed == 0

    def test_cost_ladder_is_monotone(self):
        from repro.arch import heterogeneous_cost_board

        board = heterogeneous_cost_board(tiers=4, cost_spread=2.0, seed=3)
        latencies = [bt.read_latency for bt in board.bank_types]
        pins = [bt.pins_traversed for bt in board.bank_types]
        capacities = [
            max(c.depth * c.width for c in bt.configurations)
            for bt in board.bank_types
        ]
        assert latencies == sorted(latencies)
        assert pins == sorted(pins)
        assert capacities == sorted(capacities)
        # Each off-chip step up quadruples capacity (modulo jitter).
        assert capacities[2] > 3 * capacities[1]

    def test_cost_spread_widens_the_ladder(self):
        from repro.arch import heterogeneous_cost_board

        narrow = heterogeneous_cost_board(tiers=3, cost_spread=1.0, seed=0)
        wide = heterogeneous_cost_board(tiers=3, cost_spread=4.0, seed=0)
        assert wide.bank_types[2].read_latency > narrow.bank_types[2].read_latency
        assert wide.bank_types[2].pins_traversed > narrow.bank_types[2].pins_traversed

    def test_deterministic_per_seed(self):
        from repro.arch import heterogeneous_cost_board

        a = heterogeneous_cost_board(tiers=3, seed=7)
        b = heterogeneous_cost_board(tiers=3, seed=7)
        c = heterogeneous_cost_board(tiers=3, seed=8)
        assert a.describe() == b.describe()
        assert a.describe() != c.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tiers": 0},
            {"banks_per_tier": 0},
            {"cost_spread": 0.5},
            {"base_words": 8},
        ],
    )
    def test_bad_knobs_are_rejected(self, kwargs):
        from repro.arch import heterogeneous_cost_board

        with pytest.raises(ArchitectureError):
            heterogeneous_cost_board(**kwargs)
