"""Device catalog of FPGA on-chip RAM resources (Table 1 of the paper).

The paper motivates the mapping problem with the on-chip memory blocks of
three commercial FPGA families circa 2000/2001:

==============  ===================  ================  =============================
Family          On-chip RAM          Banks per device  Configurations (depth x width)
==============  ===================  ================  =============================
Xilinx Virtex   BlockRAM (4096 bit)  8 .. 208          4096x1 2048x2 1024x4 512x8 256x16
Altera FLEX10K  EAB      (2048 bit)  9 .. 20           2048x1 1024x2 512x4 256x8 128x16
Altera APEX E   ESB      (2048 bit)  12 .. 216         2048x1 1024x2 512x4 256x8 128x16
==============  ===================  ================  =============================

The per-device bank counts at the range endpoints (XCV50=8, XCV3200E=208,
EPF10K70=9, EPF10K250A=20, EP20K30E=12, EP20K1500E=216) are exactly the
numbers quoted in the paper; intermediate devices follow the vendor data
sheets referenced by the paper ([18], [2], [1]) and are included so that
boards of many different sizes can be modelled.

Besides the on-chip catalog, this module defines representative *off-chip*
bank types (directly and indirectly connected SRAM) with the latency and
pin-traversal models of Section 3.1, since the mapping problem is only
interesting when on-chip and off-chip memories compete.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .bank import BankType, MemoryConfig, make_configurations

__all__ = [
    "VIRTEX_BLOCKRAM_CONFIGS",
    "ALTERA_EAB_CONFIGS",
    "VIRTEX_BLOCKRAM_COUNTS",
    "FLEX10K_EAB_COUNTS",
    "APEXE_ESB_COUNTS",
    "ONCHIP_RAM_TABLE",
    "virtex_blockram",
    "flex10k_eab",
    "apexe_esb",
    "offchip_sram",
    "offchip_dram",
    "onchip_ram_table_rows",
]

# --------------------------------------------------------------------------
# Configuration sets (Table 1, "Configurations" column).
# --------------------------------------------------------------------------

#: Xilinx Virtex BlockRAM: 4096 bits, five selectable aspect ratios.
VIRTEX_BLOCKRAM_CONFIGS: Tuple[MemoryConfig, ...] = make_configurations(
    ["4096x1", "2048x2", "1024x4", "512x8", "256x16"]
)

#: Altera FLEX 10K EAB and APEX E ESB: 2048 bits, five aspect ratios.
ALTERA_EAB_CONFIGS: Tuple[MemoryConfig, ...] = make_configurations(
    ["2048x1", "1024x2", "512x4", "256x8", "128x16"]
)

# --------------------------------------------------------------------------
# Per-device on-chip bank counts.  The endpoints of every family match the
# ranges quoted in the paper; intermediate devices follow the vendor data
# sheets the paper cites.
# --------------------------------------------------------------------------

VIRTEX_BLOCKRAM_COUNTS: Dict[str, int] = {
    "XCV50": 8,
    "XCV100": 10,
    "XCV150": 12,
    "XCV200": 14,
    "XCV300": 16,
    "XCV400": 20,
    "XCV600": 24,
    "XCV800": 28,
    "XCV1000": 32,
    "XCV400E": 40,
    "XCV600E": 72,
    "XCV1000E": 96,
    "XCV1600E": 144,
    "XCV2000E": 160,
    "XCV2600E": 184,
    "XCV3200E": 208,
}

FLEX10K_EAB_COUNTS: Dict[str, int] = {
    "EPF10K70": 9,
    "EPF10K100": 12,
    "EPF10K130": 16,
    "EPF10K200": 18,
    "EPF10K250A": 20,
}

APEXE_ESB_COUNTS: Dict[str, int] = {
    "EP20K30E": 12,
    "EP20K60E": 16,
    "EP20K100E": 26,
    "EP20K160E": 40,
    "EP20K200E": 52,
    "EP20K300E": 72,
    "EP20K400E": 104,
    "EP20K600E": 152,
    "EP20K1000E": 160,
    "EP20K1500E": 216,
}

#: Summary rows used to regenerate Table 1 (family, RAM name, bank range,
#: capacity in bits, configuration strings).
ONCHIP_RAM_TABLE: Tuple[Dict[str, object], ...] = (
    {
        "family": "Xilinx Virtex",
        "ram_name": "BlockRAM",
        "min_banks": min(VIRTEX_BLOCKRAM_COUNTS.values()),
        "max_banks": max(VIRTEX_BLOCKRAM_COUNTS.values()),
        "size_bits": 4096,
        "configurations": tuple(str(c) for c in VIRTEX_BLOCKRAM_CONFIGS),
        "counts": VIRTEX_BLOCKRAM_COUNTS,
    },
    {
        "family": "Altera Flex 10K",
        "ram_name": "Embedded Array Block",
        "min_banks": min(FLEX10K_EAB_COUNTS.values()),
        "max_banks": max(FLEX10K_EAB_COUNTS.values()),
        "size_bits": 2048,
        "configurations": tuple(str(c) for c in ALTERA_EAB_CONFIGS),
        "counts": FLEX10K_EAB_COUNTS,
    },
    {
        "family": "Altera Apex E",
        "ram_name": "Embedded System Block",
        "min_banks": min(APEXE_ESB_COUNTS.values()),
        "max_banks": max(APEXE_ESB_COUNTS.values()),
        "size_bits": 2048,
        "configurations": tuple(str(c) for c in ALTERA_EAB_CONFIGS),
        "counts": APEXE_ESB_COUNTS,
    },
)


def _lookup_count(counts: Dict[str, int], device: str, family: str) -> int:
    try:
        return counts[device.upper()]
    except KeyError:
        known = ", ".join(sorted(counts))
        raise KeyError(f"unknown {family} device {device!r}; known devices: {known}")


# --------------------------------------------------------------------------
# On-chip bank type constructors.
# --------------------------------------------------------------------------

def virtex_blockram(device: str = "XCV1000", num_ports: int = 2,
                    read_latency: int = 1, write_latency: int = 1) -> BankType:
    """On-chip BlockRAM bank type of a Xilinx Virtex / Virtex-E device.

    Virtex BlockRAMs are true dual-port memories; ``num_ports`` defaults to
    two but can be reduced to model designs that tie one port off.
    """
    count = _lookup_count(VIRTEX_BLOCKRAM_COUNTS, device, "Xilinx Virtex")
    return BankType(
        name=f"{device.upper()}-BlockRAM",
        family="Xilinx Virtex BlockRAM",
        num_instances=count,
        num_ports=num_ports,
        configurations=VIRTEX_BLOCKRAM_CONFIGS,
        read_latency=read_latency,
        write_latency=write_latency,
        pins_traversed=0,
    )


def flex10k_eab(device: str = "EPF10K100", num_ports: int = 1,
                read_latency: int = 1, write_latency: int = 1) -> BankType:
    """On-chip Embedded Array Block bank type of an Altera FLEX 10K device.

    EABs are single-ported in their standard RAM mode; pass ``num_ports=2``
    to model the dual-port EAB mode of later family members.
    """
    count = _lookup_count(FLEX10K_EAB_COUNTS, device, "Altera FLEX 10K")
    return BankType(
        name=f"{device.upper()}-EAB",
        family="Altera FLEX 10K EAB",
        num_instances=count,
        num_ports=num_ports,
        configurations=ALTERA_EAB_CONFIGS,
        read_latency=read_latency,
        write_latency=write_latency,
        pins_traversed=0,
    )


def apexe_esb(device: str = "EP20K400E", num_ports: int = 2,
              read_latency: int = 1, write_latency: int = 1) -> BankType:
    """On-chip Embedded System Block bank type of an Altera APEX E device."""
    count = _lookup_count(APEXE_ESB_COUNTS, device, "Altera APEX E")
    return BankType(
        name=f"{device.upper()}-ESB",
        family="Altera APEX E ESB",
        num_instances=count,
        num_ports=num_ports,
        configurations=ALTERA_EAB_CONFIGS,
        read_latency=read_latency,
        write_latency=write_latency,
        pins_traversed=0,
    )


# --------------------------------------------------------------------------
# Off-chip bank types (Section 3.1 latency / pin-traversal model).
# --------------------------------------------------------------------------

def offchip_sram(num_instances: int = 4, depth: int = 65536, width: int = 32,
                 num_ports: int = 1, read_latency: int = 2, write_latency: int = 2,
                 direct: bool = True, name: str = "") -> BankType:
    """A board-level SRAM bank type (single fixed configuration).

    ``direct=True`` models an SRAM wired straight to the FPGA (two pins
    traversed in the paper's model); ``direct=False`` models an SRAM behind
    a crossbar or a neighbouring FPGA (four pins traversed).
    """
    pins = 2 if direct else 4
    label = name or ("SRAM-direct" if direct else "SRAM-indirect")
    return BankType(
        name=label,
        family="off-chip SRAM",
        num_instances=num_instances,
        num_ports=num_ports,
        configurations=(MemoryConfig(depth, width),),
        read_latency=read_latency,
        write_latency=write_latency,
        pins_traversed=pins,
    )


def offchip_dram(num_instances: int = 1, depth: int = 1 << 20, width: int = 32,
                 read_latency: int = 6, write_latency: int = 4,
                 name: str = "DRAM") -> BankType:
    """A large, slow, indirectly connected DRAM bank type.

    Not present in the paper's experiments but useful for examples: it gives
    the mapper a high-capacity last-resort type with poor latency.
    """
    return BankType(
        name=name,
        family="off-chip DRAM",
        num_instances=num_instances,
        num_ports=1,
        configurations=(MemoryConfig(depth, width),),
        read_latency=read_latency,
        write_latency=write_latency,
        pins_traversed=4,
    )


# --------------------------------------------------------------------------
# Table 1 rendering helpers.
# --------------------------------------------------------------------------

def onchip_ram_table_rows() -> List[Dict[str, object]]:
    """Rows of Table 1 as dictionaries (used by the Table 1 benchmark)."""
    rows: List[Dict[str, object]] = []
    for entry in ONCHIP_RAM_TABLE:
        rows.append(
            {
                "device": entry["family"],
                "ram_name": entry["ram_name"],
                "banks": f"{entry['min_banks']} - {entry['max_banks']}",
                "size_bits": entry["size_bits"],
                "configurations": list(entry["configurations"]),
            }
        )
    return rows

