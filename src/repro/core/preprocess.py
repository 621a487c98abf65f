"""ILP pre-processing of Section 4.1.1: consumed ports and ceiling sizes.

Before building the global-mapping ILP, the paper computes three parameters
for every (data structure *d*, bank type *t*) pair:

``CP[d][t]``
    the total number of ports of type *t* consumed if *d* is assigned to it,
``CW[d][t]``
    the "ceiling" width *d* would occupy on type *t*, and
``CD[d][t]``
    the "ceiling" depth *d* would occupy on type *t*.

The port count decomposes into the four components of Figure 2 — fully
used instances (FP), the partially used right column (WP), the partially
used bottom row (DP) and the bottom-right corner instance (WDP) — computed
with the fractional-port-consumption function ``consumed_ports`` of
Figure 3.  Two configurations of the bank type participate:

* α — the configuration with the smallest width not smaller than the
  structure's width :math:`W_d` (or the widest configuration when
  :math:`W_d` exceeds every width), and
* β — the configuration with the smallest width not smaller than the
  *left-over* width :math:`W_d \\bmod W_{tα}`.

All fractions of an instance are rounded up to a power-of-two number of
words so that no extra base-address logic is required, and the port
assignment inside an instance follows decreasing fraction sizes (see
:mod:`repro.core.detailed_mapper`).

The worked example of the paper — a 55x17 structure on a 3-port bank with
configurations 128x1 / 64x2 / 32x4 / 16x8 — decomposes into FP=18, WP=3,
DP=4, WDP=1 (26 consumed ports), CW=17 and CD=56; the unit tests pin these
numbers down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch.bank import BankType, MemoryConfig
from ..arch.board import Board
from ..design.datastruct import DataStructure
from ..design.design import Design

__all__ = [
    "next_power_of_two",
    "consumed_ports",
    "refined_consumed_ports",
    "select_alpha",
    "select_beta",
    "PairMetrics",
    "compute_pair_metrics",
    "Preprocessor",
]


def next_power_of_two(value: int) -> int:
    """Smallest power of two that is >= ``value`` (0 maps to 0).

    Figure 3 rounds every fraction placed in an instance to a power-of-two
    depth so that fractions sharing an instance never need base-address
    adders; rounding *up* is the safe direction (the fraction must still
    hold all its words).
    """
    if value < 0:
        raise ValueError(f"cannot round a negative word count ({value})")
    if value == 0:
        return 0
    return 1 << (value - 1).bit_length()


def consumed_ports(words: int, bank_depth: int, num_ports: int) -> int:
    """Fractional port consumption of Figure 3.

    ``words`` is the number of words of the data structure placed in the
    instance, ``bank_depth`` the depth of the configuration the instance's
    port uses, and ``num_ports`` the port count :math:`P_t` of the type.
    The words are rounded up to a power of two, converted to a fraction of
    the instance, and the fraction is charged ``ceil(fraction * P_t)``
    ports.

    The function is exact for single- and dual-ported banks and
    conservative (may overestimate) for banks with more than two ports, as
    the paper notes for the (8, 8, 0) split of a 3-port bank.
    """
    if bank_depth <= 0:
        raise ValueError("bank_depth must be positive")
    if num_ports <= 0:
        raise ValueError("num_ports must be positive")
    if words <= 0:
        return 0
    depth = next_power_of_two(words)
    fraction = depth / bank_depth
    return int(math.ceil(fraction * num_ports))


def select_alpha(bank: BankType, width: int) -> MemoryConfig:
    """Configuration α: smallest width >= ``width``, else the widest one."""
    candidates = [c for c in bank.configs_by_width() if c.width >= width]
    if candidates:
        return candidates[0]
    return bank.widest_config()


def select_beta(bank: BankType, leftover_width: int) -> Optional[MemoryConfig]:
    """Configuration β for the leftover width (``None`` when no leftover)."""
    if leftover_width <= 0:
        return None
    return select_alpha(bank, leftover_width)


@dataclass(frozen=True)
class PairMetrics:
    """All pre-processed quantities for one (data structure, bank type) pair."""

    structure: str
    bank_type: str
    #: configurations chosen for the full-width columns and the leftover column
    alpha: MemoryConfig
    beta: Optional[MemoryConfig]
    #: the four port-consumption components of Figure 2
    fp: int
    wp: int
    dp: int
    wdp: int
    #: ceiling width and depth (CW, CD)
    ceiling_width: int
    ceiling_depth: int
    #: grid decomposition used by the detailed mapper
    full_rows: int          # floor(Dd / Dt_alpha)
    full_cols: int          # floor(Wd / Wt_alpha)
    leftover_words: int     # Dd mod Dt_alpha
    leftover_width: int     # Wd mod Wt_alpha

    @property
    def consumed_ports(self) -> int:
        """CP[d][t] — total ports consumed (sum of the four components)."""
        return self.fp + self.wp + self.dp + self.wdp

    @property
    def consumed_bits(self) -> int:
        """Footprint used by the capacity constraint (CW * CD)."""
        return self.ceiling_width * self.ceiling_depth

    @property
    def instances_touched(self) -> int:
        """Number of bank instances the structure's fragments touch."""
        count = self.full_rows * self.full_cols
        if self.leftover_width > 0:
            count += self.full_rows
        if self.leftover_words > 0:
            count += self.full_cols
        if self.leftover_width > 0 and self.leftover_words > 0:
            count += 1
        return count


def compute_pair_metrics(ds: DataStructure, bank: BankType) -> PairMetrics:
    """Compute CP/CW/CD and the Figure 2 decomposition for one pair."""
    alpha = select_alpha(bank, ds.width)
    # When the structure is narrower than alpha's width the "full" column
    # count is zero and the whole width is the leftover column handled by
    # configuration beta (which then coincides with alpha); the paper's
    # formulas cover this case without special treatment.
    full_cols = ds.width // alpha.width
    leftover_width = ds.width % alpha.width

    beta = select_beta(bank, leftover_width)

    full_rows = ds.depth // alpha.depth
    leftover_words = ds.depth % alpha.depth

    pt = bank.num_ports
    fp = full_rows * full_cols * pt
    wp = 0
    if leftover_width > 0:
        assert beta is not None
        wp = full_rows * consumed_ports(alpha.depth, beta.depth, pt)
    dp = 0
    if leftover_words > 0:
        dp = full_cols * consumed_ports(leftover_words, alpha.depth, pt)
    wdp = 0
    if leftover_width > 0 and leftover_words > 0:
        assert beta is not None
        wdp = consumed_ports(leftover_words, beta.depth, pt)

    ceiling_width = full_cols * alpha.width
    if leftover_width > 0:
        assert beta is not None
        ceiling_width += beta.width
    ceiling_depth = full_rows * alpha.depth
    if leftover_words > 0:
        ceiling_depth += next_power_of_two(leftover_words)

    return PairMetrics(
        structure=ds.name,
        bank_type=bank.name,
        alpha=alpha,
        beta=beta,
        fp=fp,
        wp=wp,
        dp=dp,
        wdp=wdp,
        ceiling_width=ceiling_width,
        ceiling_depth=ceiling_depth,
        full_rows=full_rows,
        full_cols=full_cols,
        leftover_words=leftover_words,
        leftover_width=leftover_width,
    )


def refined_consumed_ports(metrics: PairMetrics, bank: BankType) -> int:
    """Refined (future-work) port charge for banks with more than two ports.

    Figure 3's estimate charges every fraction ``ceil(fraction * P_t)``
    ports, which is what lets the *global* port constraint double as an
    intra-instance space constraint — but, as the paper notes, it wastes
    ports on banks with more than two ports (e.g. the (8, 8, 0) split of a
    3-port 16-word bank).  The refined charge implemented here counts what
    a fraction physically blocks: a fragment that fills a whole instance
    blocks all of its ports, every other fragment blocks exactly one.
    Space is then policed only by the capacity constraint and the detailed
    mapper's packing (with the pipeline's retry loop as the safety net), so
    the refinement is offered as an opt-in ``port_estimation="refined"``
    mode of the :class:`Preprocessor`.
    """
    pt = bank.num_ports
    capacity = bank.capacity_bits

    def charge(allocated_words: int, config_width: int) -> int:
        return pt if allocated_words * config_width >= capacity else 1

    total = metrics.full_rows * metrics.full_cols * pt
    if metrics.leftover_width > 0:
        assert metrics.beta is not None
        per_fragment = charge(next_power_of_two(metrics.alpha.depth), metrics.beta.width)
        total += metrics.full_rows * per_fragment
    if metrics.leftover_words > 0:
        per_fragment = charge(next_power_of_two(metrics.leftover_words), metrics.alpha.width)
        total += metrics.full_cols * per_fragment
    if metrics.leftover_width > 0 and metrics.leftover_words > 0:
        assert metrics.beta is not None
        total += charge(next_power_of_two(metrics.leftover_words), metrics.beta.width)
    return total


#: Accepted values of the Preprocessor's ``port_estimation`` parameter.
PORT_ESTIMATION_MODES = ("paper", "refined")


class Preprocessor:
    """Pre-computes the CP/CW/CD tables for a (design, board) pair.

    The tables are exposed both as per-pair :class:`PairMetrics` objects
    (used by the detailed mapper to reconstruct the fragment layout) and as
    dense NumPy arrays indexed ``[segment, type]`` (used to assemble the ILP
    constraint rows without Python-level loops over pairs).

    ``port_estimation`` selects how the CP table charges ports: ``"paper"``
    (default) uses the Figure 3 estimate, which guarantees that detailed
    mapping succeeds on single- and dual-ported banks; ``"refined"`` uses
    :func:`refined_consumed_ports`, the paper's future-work direction for
    banks with more than two ports (tighter, but detailed mapping may need
    the pipeline's retry loop).
    """

    def __init__(self, design: Design, board: Board,
                 port_estimation: str = "paper") -> None:
        if port_estimation not in PORT_ESTIMATION_MODES:
            raise ValueError(
                f"unknown port_estimation {port_estimation!r}; "
                f"expected one of {PORT_ESTIMATION_MODES}"
            )
        self.design = design
        self.board = board
        self.port_estimation = port_estimation
        num_segments = design.num_segments
        num_types = board.num_types

        self._metrics: Dict[Tuple[str, str], PairMetrics] = {}
        self.cp = np.zeros((num_segments, num_types), dtype=np.int64)
        self.cw = np.zeros((num_segments, num_types), dtype=np.int64)
        self.cd = np.zeros((num_segments, num_types), dtype=np.int64)

        for d_index, ds in enumerate(design.data_structures):
            for t_index, bank in enumerate(board.bank_types):
                metrics = compute_pair_metrics(ds, bank)
                self._metrics[(ds.name, bank.name)] = metrics
                if port_estimation == "refined":
                    self.cp[d_index, t_index] = refined_consumed_ports(metrics, bank)
                else:
                    self.cp[d_index, t_index] = metrics.consumed_ports
                self.cw[d_index, t_index] = metrics.ceiling_width
                self.cd[d_index, t_index] = metrics.ceiling_depth

        # Per-type totals used by the port and capacity constraints.
        self.type_total_ports = np.array(
            [bank.total_ports for bank in board.bank_types], dtype=np.int64
        )
        self.type_total_bits = np.array(
            [bank.total_capacity_bits for bank in board.bank_types], dtype=np.int64
        )

    # ------------------------------------------------------------- accessors
    def metrics(self, structure: str, bank_type: str) -> PairMetrics:
        """The :class:`PairMetrics` of a (structure, bank type) pair."""
        try:
            return self._metrics[(structure, bank_type)]
        except KeyError:
            raise KeyError(
                f"no metrics for structure {structure!r} on bank type {bank_type!r}"
            )

    def consumed_bits_table(self) -> np.ndarray:
        """CW[d][t] * CD[d][t] as an array (capacity-constraint load)."""
        return (self.cw * self.cd).copy()

    def feasible_pairs(self) -> np.ndarray:
        """Boolean mask of pairs that can possibly hold the structure.

        A pair is infeasible when the structure alone would exceed the
        type's total ports or total capacity; the corresponding ``Z[d][t]``
        variable can be fixed to zero (model reduction), and a structure
        with *no* feasible type makes the whole design unmappable.
        """
        port_ok = self.cp <= self.type_total_ports[np.newaxis, :]
        bits_ok = (self.cw * self.cd) <= self.type_total_bits[np.newaxis, :]
        return port_ok & bits_ok

    def unmappable_structures(self) -> List[str]:
        """Names of structures that fit on no bank type at all."""
        mask = self.feasible_pairs()
        names = []
        for d_index, ds in enumerate(self.design.data_structures):
            if not mask[d_index].any():
                names.append(ds.name)
        return names
