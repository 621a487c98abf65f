"""Port/space allocation options of a multi-ported bank (Table 2).

A bank instance with :math:`P_t` ports can be shared by up to :math:`P_t`
data-structure fractions, each occupying a power-of-two number of words.
Table 2 of the paper enumerates, for a 3-port 16-word bank, every *general*
way the instance's space can be split across the ports — non-increasing
tuples of power-of-two word counts (or zero) whose sum does not exceed the
depth — and notes that the ``consumed_ports`` estimate of Figure 3 rejects
some of them (e.g. ``(8, 8, 0)``: each 8-word fraction is charged two of
the three ports, so the estimate needs four ports).  The over-estimation
never occurs for single- or dual-ported banks.

This module reproduces both views: the general enumeration
(:func:`space_allocation_options`) and the subset the estimator accepts
(:func:`accepted_allocation_options`), plus the grouped presentation used
to render Table 2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .preprocess import consumed_ports

__all__ = [
    "powers_of_two_up_to",
    "space_allocation_options",
    "estimated_ports_for_split",
    "is_split_accepted",
    "accepted_allocation_options",
    "table2_rows",
]


def powers_of_two_up_to(limit: int) -> List[int]:
    """All powers of two between 1 and ``limit`` inclusive, ascending."""
    if limit < 1:
        return []
    powers = []
    value = 1
    while value <= limit:
        powers.append(value)
        value *= 2
    return powers


def space_allocation_options(depth: int, num_ports: int) -> List[Tuple[int, ...]]:
    """Enumerate the general space splits of Table 2.

    Returns every non-increasing ``num_ports``-tuple whose entries are
    powers of two (or zero) and whose sum does not exceed ``depth``, sorted
    in the descending order Table 2 uses.  ``(0, 0, ..., 0)`` (an unused
    instance) is included, exactly as in the paper's table.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    if num_ports <= 0:
        raise ValueError("num_ports must be positive")
    candidates = [0] + powers_of_two_up_to(depth)

    results: List[Tuple[int, ...]] = []

    def extend(prefix: Tuple[int, ...], remaining: int, max_value: int) -> None:
        if len(prefix) == num_ports:
            results.append(prefix)
            return
        for value in candidates:
            if value > max_value or value > remaining:
                continue
            extend(prefix + (value,), remaining - value, value)

    extend(tuple(), depth, depth)
    # Sort descending lexicographically so the listing matches Table 2
    # (16,0,0 first, ..., 0,0,0 last).
    results.sort(reverse=True)
    return results


def estimated_ports_for_split(split: Sequence[int], depth: int, num_ports: int) -> int:
    """Total ports charged by Figure 3's estimator for a given word split."""
    return sum(consumed_ports(words, depth, num_ports) for words in split if words > 0)


def is_split_accepted(split: Sequence[int], depth: int, num_ports: int) -> bool:
    """Whether the estimator of Figure 3 accepts this split.

    A split is accepted when the estimated ports of all its fractions fit
    within the instance's ``num_ports``.  For dual-ported banks every
    general split is accepted; for three or more ports some splits (such as
    ``(8, 8, 0)`` on a 16-word 3-port bank) are rejected even though they
    physically fit — the conservatism the paper flags as future work.
    """
    return estimated_ports_for_split(split, depth, num_ports) <= num_ports


def accepted_allocation_options(depth: int, num_ports: int) -> List[Tuple[int, ...]]:
    """The subset of :func:`space_allocation_options` the estimator accepts."""
    return [
        split
        for split in space_allocation_options(depth, num_ports)
        if is_split_accepted(split, depth, num_ports)
    ]


def table2_rows(depth: int = 16, num_ports: int = 3) -> List[Dict[str, object]]:
    """Rows of Table 2 in its grouped presentation.

    The paper lists one row per distinct (port-1, port-2) prefix and groups
    the feasible port-3 word counts into a single cell; each returned row
    carries the prefix, the grouped last-port options, and whether the
    Figure 3 estimator accepts *any* completion of the prefix.
    """
    options = space_allocation_options(depth, num_ports)
    grouped: Dict[Tuple[int, ...], List[int]] = {}
    for split in options:
        prefix, last = split[:-1], split[-1]
        grouped.setdefault(prefix, []).append(last)
    rows: List[Dict[str, object]] = []
    for prefix in sorted(grouped, reverse=True):
        lasts = sorted(grouped[prefix], reverse=True)
        accepted = [
            last for last in lasts if is_split_accepted(prefix + (last,), depth, num_ports)
        ]
        rows.append(
            {
                "prefix": prefix,
                "last_port_options": lasts,
                "accepted_last_port_options": accepted,
                "estimated_ports_prefix": estimated_ports_for_split(
                    prefix, depth, num_ports
                ),
            }
        )
    return rows
