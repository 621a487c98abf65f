"""Predefined and synthetic reconfigurable-board builders.

The paper evaluates the mapper on unnamed RC boards characterised only by
their memory-complexity parameters (Table 3).  This module provides:

* **named boards** that combine the Table 1 on-chip types with off-chip
  SRAMs the way late-1990s RC boards (WILDFORCE/WILDSTAR-class) did; these
  are used by the examples and quick tests, and
* **synthetic boards** generated from a seed and a target complexity, used
  by the Table 3 / Figure 4 benchmark harness to hit the exact
  (#banks, #ports, #configs) values of each design point.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .bank import ArchitectureError, BankType, MemoryConfig, make_configurations
from .board import Board
from .devices import (
    ALTERA_EAB_CONFIGS,
    VIRTEX_BLOCKRAM_CONFIGS,
    apexe_esb,
    flex10k_eab,
    offchip_dram,
    offchip_sram,
    virtex_blockram,
)

__all__ = [
    "virtex_board",
    "apex_board",
    "flex10k_board",
    "hierarchical_board",
    "board_with_complexity",
    "heterogeneous_cost_board",
]


# --------------------------------------------------------------------------
# Named boards for examples and tests.
# --------------------------------------------------------------------------

def virtex_board(device: str = "XCV1000", num_srams: int = 4,
                 sram_depth: int = 65536, sram_width: int = 32,
                 name: Optional[str] = None) -> Board:
    """A single-FPGA Virtex board with directly attached ZBT-style SRAMs."""
    types = [
        virtex_blockram(device),
        offchip_sram(num_instances=num_srams, depth=sram_depth, width=sram_width),
    ]
    return Board(name=name or f"virtex-{device.lower()}", bank_types=tuple(types))


def apex_board(device: str = "EP20K400E", num_srams: int = 4,
               name: Optional[str] = None) -> Board:
    """A single-FPGA APEX E board with directly attached SRAMs."""
    types = [
        apexe_esb(device),
        offchip_sram(num_instances=num_srams),
    ]
    return Board(name=name or f"apex-{device.lower()}", bank_types=tuple(types))


def flex10k_board(device: str = "EPF10K100", num_srams: int = 2,
                  name: Optional[str] = None) -> Board:
    """A FLEX 10K board with a small number of off-chip SRAMs."""
    types = [
        flex10k_eab(device),
        offchip_sram(num_instances=num_srams),
    ]
    return Board(name=name or f"flex10k-{device.lower()}", bank_types=tuple(types))


def hierarchical_board(device: str = "XCV1000", name: str = "hierarchical") -> Board:
    """A board exposing a full memory hierarchy to the mapper.

    Four bank types with increasing capacity and decreasing performance:
    on-chip BlockRAM, directly attached SRAM, indirectly attached SRAM
    (behind a crossbar) and a DRAM.  This is the board used by most
    examples because it exercises every cost term of the objective.
    """
    types = [
        virtex_blockram(device),
        offchip_sram(num_instances=4, direct=True),
        offchip_sram(num_instances=4, direct=False, depth=262144, width=32),
        offchip_dram(num_instances=1),
    ]
    return Board(name=name, bank_types=tuple(types))


# --------------------------------------------------------------------------
# Synthetic boards for the benchmark harness.
# --------------------------------------------------------------------------

_SYNTH_ONCHIP_CONFIG_SETS: Tuple[Tuple[MemoryConfig, ...], ...] = (
    VIRTEX_BLOCKRAM_CONFIGS,
    ALTERA_EAB_CONFIGS,
)


def heterogeneous_cost_board(
    tiers: int = 3,
    banks_per_tier: int = 4,
    cost_spread: float = 2.0,
    base_words: int = 1024,
    width: int = 16,
    seed: int = 0,
    name: Optional[str] = None,
) -> Board:
    """A board of cost-tiered bank classes, EC2 instance-class style.

    Cloud embedders (distrinet's EC2 mapper) choose among instance
    classes that trade capacity against cost: each step up roughly
    doubles capacity but costs more to reach.  This builder expresses the
    same trade-off in the board vocabulary the mapper prices: tier ``t``
    quadruples the per-bank capacity of tier ``t-1`` while its access
    latency and pin distance grow by ``cost_spread`` per tier, so cheap
    capacity sits far away and fast banks are scarce.  Unlike
    :func:`hierarchical_board`, the resulting cost ladder is
    *parameterised* — ``tiers`` × ``cost_spread`` sweeps move the
    objective's break-even points, which is exactly what the
    ``hetero-cost`` scenario family explores.

    Tier 0 is dual-ported and multi-configuration (on-chip class); every
    other tier is a single-ported, single-configuration bank whose depth
    gets a small seeded jitter so distinct seeds give distinct (but
    reproducible) boards.
    """
    if tiers < 1:
        raise ArchitectureError("heterogeneous_cost_board needs tiers >= 1")
    if banks_per_tier < 1:
        raise ArchitectureError("heterogeneous_cost_board needs banks_per_tier >= 1")
    if cost_spread < 1.0:
        raise ArchitectureError(
            "heterogeneous_cost_board needs cost_spread >= 1.0 (each tier "
            "must cost at least as much as the previous one)"
        )
    if base_words < 16:
        raise ArchitectureError("heterogeneous_cost_board needs base_words >= 16")
    rng = np.random.default_rng(seed)
    types: List[BankType] = []
    for tier in range(tiers):
        capacity_words = base_words * (4 ** tier)
        if tier == 0:
            types.append(
                BankType(
                    name="tier0-onchip",
                    family="hetero-cost tier 0",
                    num_instances=banks_per_tier,
                    num_ports=2,
                    # Equal-capacity configuration set (Table 1 style):
                    # the same bits reachable as deep-narrow, square or
                    # shallow-wide words.
                    configurations=make_configurations(
                        (
                            (capacity_words * 2, max(1, width // 2)),
                            (capacity_words, width),
                            (capacity_words // 2, width * 2),
                        )
                    ),
                    read_latency=1,
                    write_latency=1,
                    pins_traversed=0,
                )
            )
            continue
        jitter = int(rng.integers(0, max(1, capacity_words // 8)))
        latency = max(2, int(round((1 + tier) * cost_spread)))
        types.append(
            BankType(
                name=f"tier{tier}-class",
                family=f"hetero-cost tier {tier}",
                num_instances=banks_per_tier,
                num_ports=1,
                configurations=(MemoryConfig(capacity_words + jitter, width),),
                read_latency=latency,
                write_latency=latency,
                pins_traversed=2 * tier * max(1, int(round(cost_spread))),
            )
        )
    return Board(
        name=name or f"hetero-{tiers}x{banks_per_tier}",
        bank_types=tuple(types),
    )


def board_with_complexity(
    total_banks: int,
    total_ports: int,
    total_configs: int,
    seed: int = 0,
    name: str = "benchmark-board",
) -> Board:
    """Build a board matching the Table 3 physical-memory complexity triple.

    The generator chooses a mix of dual-ported multi-configuration on-chip
    types (five configurations each, like Table 1) and single-ported
    single-configuration off-chip types so that:

    * the instance counts sum to ``total_banks``,
    * ports summed over instances equal ``total_ports``, and
    * configuration settings summed over multi-config ports equal
      ``total_configs``.

    The three targets are not independent (``configs`` must be five times
    the number of multi-config ports, and ports lie between one and two per
    bank); the builder satisfies them exactly whenever the triple is
    consistent and raises :class:`ArchitectureError` otherwise.
    """
    if total_banks <= 0 or total_ports < total_banks:
        raise ArchitectureError(
            "need at least one bank and at least one port per bank "
            f"(banks={total_banks}, ports={total_ports})"
        )
    if total_ports > 2 * total_banks:
        raise ArchitectureError(
            f"ports={total_ports} exceeds two per bank for banks={total_banks}"
        )
    if total_configs % 5 != 0:
        raise ArchitectureError(
            f"configs={total_configs} must be a multiple of 5 (five settings per "
            "multi-configuration port, as in Table 1)"
        )

    # Dual-ported banks account for the ports beyond one-per-bank.
    dual_banks = total_ports - total_banks
    single_banks = total_banks - dual_banks

    # Multi-configuration ports required to reach the configs target.
    multi_ports_needed = total_configs // 5
    if multi_ports_needed > total_ports:
        raise ArchitectureError(
            f"configs={total_configs} requires {multi_ports_needed} multi-config "
            f"ports, more than the {total_ports} ports available"
        )

    rng = np.random.default_rng(seed)
    types: List[BankType] = []

    # Greedily cover the multi-config ports, preferring dual-ported on-chip
    # banks (2 multi-config ports per bank), then single-ported on-chip banks.
    remaining_multi_ports = multi_ports_needed
    remaining_dual = dual_banks
    remaining_single = single_banks

    dual_multi_banks = min(remaining_dual, remaining_multi_ports // 2)
    remaining_multi_ports -= 2 * dual_multi_banks
    remaining_dual -= dual_multi_banks

    single_multi_banks = min(remaining_single, remaining_multi_ports)
    remaining_multi_ports -= single_multi_banks
    remaining_single -= single_multi_banks

    if remaining_multi_ports > 0:
        # One dual-ported bank can still contribute a single multi-config port
        # only if we split a type; simplest consistent fix is to convert one
        # remaining dual bank into a multi-config dual bank and absorb the
        # surplus by removing one single-ported multi-config bank.
        if remaining_dual > 0 and single_multi_banks > 0:
            dual_multi_banks += 1
            remaining_dual -= 1
            single_multi_banks -= 1
            remaining_single += 1
            remaining_multi_ports = 0
        else:
            raise ArchitectureError(
                "cannot realise the requested (banks, ports, configs) triple "
                f"({total_banks}, {total_ports}, {total_configs})"
            )

    def add_type(name_prefix: str, instances: int, ports: int,
                 multi_config: bool, distance_rank: int) -> None:
        if instances <= 0:
            return
        if multi_config:
            configs = _SYNTH_ONCHIP_CONFIG_SETS[len(types) % len(_SYNTH_ONCHIP_CONFIG_SETS)]
            pins = 0
            read_latency = write_latency = 1
        else:
            depth = int(2 ** rng.integers(14, 17))
            width = int(rng.choice([16, 32]))
            configs = (MemoryConfig(depth, width),)
            pins = 2 * (1 + distance_rank)
            read_latency = write_latency = 2 + distance_rank
        types.append(
            BankType(
                name=f"{name_prefix}-{len(types)}",
                family="benchmark",
                num_instances=instances,
                num_ports=ports,
                configurations=configs,
                read_latency=read_latency,
                write_latency=write_latency,
                pins_traversed=pins,
            )
        )

    # Split each category into at most two types so boards have a realistic
    # number of distinct types (4-8) without inflating the ILP beyond the
    # paper's setting.
    def split(count: int) -> Tuple[int, int]:
        if count <= 3:
            return count, 0
        first = count // 2
        return first, count - first

    a, b = split(dual_multi_banks)
    add_type("onchip-dual", a, 2, True, 0)
    add_type("onchip-dual", b, 2, True, 0)
    a, b = split(single_multi_banks)
    add_type("onchip-single", a, 1, True, 0)
    add_type("onchip-single", b, 1, True, 0)
    a, b = split(remaining_dual)
    add_type("offchip-dual", a, 2, False, 0)
    add_type("offchip-dual", b, 2, False, 1)
    a, b = split(remaining_single)
    add_type("offchip-single", a, 1, False, 0)
    add_type("offchip-single", b, 1, False, 1)

    board = Board(name=name, bank_types=tuple(types))
    # The construction above is exact; keep a defensive check so benchmark
    # design points can trust the complexity they report.
    actual = (board.total_banks, board.total_ports, board.total_config_settings)
    expected = (total_banks, total_ports, total_configs)
    if actual != expected:
        raise ArchitectureError(
            f"internal error: built board complexity {actual} != requested {expected}"
        )
    return board
