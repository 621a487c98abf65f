"""Architecture substrate: memory bank types, boards and device catalogs.

This package implements the architecture-description side of the paper's
problem formulation (Section 3.1 and Figure 1): a reconfigurable board is a
collection of memory *bank types*, each with a number of identical
instances, a port count, one or more depth/width configurations, read/write
latencies and a pin-traversal distance from the single processing unit.
"""

from .bank import ArchitectureError, BankType, MemoryConfig, make_configurations
from .board import Board
from .builder import (
    apex_board,
    board_with_complexity,
    flex10k_board,
    heterogeneous_cost_board,
    hierarchical_board,
    virtex_board,
)
from .devices import (
    ALTERA_EAB_CONFIGS,
    APEXE_ESB_COUNTS,
    FLEX10K_EAB_COUNTS,
    ONCHIP_RAM_TABLE,
    VIRTEX_BLOCKRAM_CONFIGS,
    VIRTEX_BLOCKRAM_COUNTS,
    apexe_esb,
    flex10k_eab,
    offchip_dram,
    offchip_sram,
    onchip_ram_table_rows,
    virtex_blockram,
)

__all__ = [
    "ArchitectureError",
    "BankType",
    "MemoryConfig",
    "make_configurations",
    "Board",
    # boards
    "virtex_board",
    "apex_board",
    "flex10k_board",
    "hierarchical_board",
    "board_with_complexity",
    "heterogeneous_cost_board",
    # devices
    "virtex_blockram",
    "flex10k_eab",
    "apexe_esb",
    "offchip_sram",
    "offchip_dram",
    "onchip_ram_table_rows",
    "VIRTEX_BLOCKRAM_CONFIGS",
    "ALTERA_EAB_CONFIGS",
    "VIRTEX_BLOCKRAM_COUNTS",
    "FLEX10K_EAB_COUNTS",
    "APEXE_ESB_COUNTS",
    "ONCHIP_RAM_TABLE",
]
