"""Unit tests for the Table 1 device catalog."""

from __future__ import annotations

import pytest

from repro.arch import (
    ALTERA_EAB_CONFIGS,
    APEXE_ESB_COUNTS,
    FLEX10K_EAB_COUNTS,
    VIRTEX_BLOCKRAM_CONFIGS,
    VIRTEX_BLOCKRAM_COUNTS,
    apexe_esb,
    flex10k_eab,
    offchip_dram,
    offchip_sram,
    onchip_ram_table_rows,
    virtex_blockram,
)


class TestTable1Endpoints:
    """The endpoints quoted in the paper must be reproduced exactly."""

    def test_virtex_range(self):
        assert VIRTEX_BLOCKRAM_COUNTS["XCV50"] == 8
        assert VIRTEX_BLOCKRAM_COUNTS["XCV3200E"] == 208

    def test_flex10k_range(self):
        assert FLEX10K_EAB_COUNTS["EPF10K70"] == 9
        assert FLEX10K_EAB_COUNTS["EPF10K250A"] == 20

    def test_apexe_range(self):
        assert APEXE_ESB_COUNTS["EP20K30E"] == 12
        assert APEXE_ESB_COUNTS["EP20K1500E"] == 216

    def test_configuration_sets(self):
        assert [str(c) for c in VIRTEX_BLOCKRAM_CONFIGS] == [
            "4096x1", "2048x2", "1024x4", "512x8", "256x16",
        ]
        assert [str(c) for c in ALTERA_EAB_CONFIGS] == [
            "2048x1", "1024x2", "512x4", "256x8", "128x16",
        ]

    def test_capacities(self):
        assert all(c.capacity_bits == 4096 for c in VIRTEX_BLOCKRAM_CONFIGS)
        assert all(c.capacity_bits == 2048 for c in ALTERA_EAB_CONFIGS)


class TestBankTypeConstructors:
    def test_virtex_blockram_defaults(self):
        bank = virtex_blockram("XCV1000")
        assert bank.num_instances == 32
        assert bank.num_ports == 2
        assert bank.is_on_chip
        assert bank.capacity_bits == 4096
        assert bank.num_configs == 5

    def test_flex10k_single_ported_by_default(self):
        bank = flex10k_eab("EPF10K100")
        assert bank.num_ports == 1
        assert bank.capacity_bits == 2048

    def test_apexe_counts(self):
        bank = apexe_esb("EP20K1500E")
        assert bank.num_instances == 216

    def test_unknown_device_lists_alternatives(self):
        with pytest.raises(KeyError) as excinfo:
            virtex_blockram("XCV9999")
        assert "XCV50" in str(excinfo.value)

    def test_case_insensitive_lookup(self):
        assert virtex_blockram("xcv50").num_instances == 8

    def test_offchip_sram_distance_model(self):
        direct = offchip_sram(direct=True)
        indirect = offchip_sram(direct=False)
        assert direct.pins_traversed == 2
        assert indirect.pins_traversed == 4
        assert not direct.is_on_chip
        assert direct.num_configs == 1

    def test_offchip_dram_is_slow_and_far(self):
        dram = offchip_dram()
        assert dram.read_latency > 2
        assert dram.pins_traversed >= 4


class TestCatalogHelpers:
    def test_table1_rows_cover_three_families(self):
        rows = onchip_ram_table_rows()
        assert len(rows) == 3
        families = {row["device"] for row in rows}
        assert families == {"Xilinx Virtex", "Altera Flex 10K", "Altera Apex E"}
        virtex_row = next(r for r in rows if r["device"] == "Xilinx Virtex")
        assert virtex_row["banks"] == "8 - 208"
        assert virtex_row["size_bits"] == 4096
        assert len(virtex_row["configurations"]) == 5
