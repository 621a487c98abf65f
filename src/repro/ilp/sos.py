"""SOS-1 groups as one array, so per-group work is a NumPy segment reduction.

Branch-and-bound asks the same questions of every SOS-1 group at every
node: which members may still win, what the cheapest selectable member
costs (the structural floor and the objective cutoff), which group is the
most fractional (branching) and which member an LP point rounds to (the
node heuristic).  :class:`SosIndex` lays the members out group after group
(``perm``, ``starts``, ``sizes``, ``cost = c[perm]``), so each of those
questions is a handful of ``np.*.reduceat`` calls instead of a Python loop
over groups.  The groups are disjoint, as the mapping formulations write
them: one group per data structure.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["SosIndex"]


class SosIndex:
    """Group-sorted SOS-1 members of one column space.

    Group ``g`` owns ``perm[starts[g]:starts[g] + sizes[g]]``, in the
    order its members were declared; every group has at least one member.
    ``c`` is the space's cost vector: the floor needs the columns outside
    the groups as well.
    """

    __slots__ = ("c", "perm", "sizes", "starts", "cost", "in_group", "_positions")

    def __init__(self, perm: np.ndarray, sizes: np.ndarray, c: np.ndarray) -> None:
        self.c = c
        self.perm = perm
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        self.cost = c[perm]
        self.in_group = np.zeros(c.shape[0], dtype=bool)
        self.in_group[perm] = True
        self._positions = np.arange(perm.size)

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[int]], c: np.ndarray) -> "SosIndex":
        """Index the member tuples ``groups`` (empty groups are dropped)."""
        groups = [members for members in groups if len(members)]
        perm = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp)
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        return cls(perm, sizes, c)

    def restrict(self, column_map: np.ndarray, c: np.ndarray) -> "SosIndex":
        """The index over presolve's reduced columns.

        ``column_map`` sends a full-space column to its reduced position,
        or to -1 when presolve fixed it; a group left with fewer than two
        members has nothing to branch on and drops out.
        """
        mapped = column_map[self.perm]
        kept = mapped >= 0
        counts = np.add.reduceat(kept, self.starts, dtype=np.intp)
        branching = counts >= 2
        return SosIndex(mapped[kept & np.repeat(branching, self.sizes)], counts[branching], c)

    def members(self, group: int) -> np.ndarray:
        start = int(self.starts[group])
        return self.perm[start:start + int(self.sizes[group])]

    def floor(self, lb: np.ndarray, ub: np.ndarray,
              offset: float = 0.0) -> Tuple[float, Optional[np.ndarray]]:
        """Lower bound on ``c.x + offset`` over the box ``[lb, ub]``, and its group minima.

        Every group contributes its members fixed to one, or else its
        cheapest selectable member (the exactly-one semantics SOS
        branching relies on); every other column its interval minimum.
        A group with no selectable member makes the box infeasible:
        ``(inf, None)``.  Unbounded columns can make the floor ``-inf`` or
        NaN, which callers read as "no bound".
        """
        c = self.c
        outside = ~self.in_group
        base = float(np.where(c >= 0, c * lb, c * ub)[outside].sum())
        selectable = ub[self.perm] > 0.5
        if not np.logical_or.reduceat(selectable, self.starts).all():
            return np.inf, None
        forced = selectable & (lb[self.perm] > 0.5)
        cheapest = np.minimum.reduceat(np.where(selectable, self.cost, np.inf), self.starts)
        forced_sum = np.add.reduceat(np.where(forced, self.cost, 0.0), self.starts)
        minima = np.where(np.logical_or.reduceat(forced, self.starts), forced_sum, cheapest)
        # Summed in order: the objective cutoff's fixings sit on a knife
        # edge (a member that only ties the incumbent exceeds the slack by
        # exactly the cutoff's margin), so the last ulp decides them.
        return base + (sum(minima.tolist()) + offset), minima

    def too_dear(self, lb: np.ndarray, ub: np.ndarray, minima: np.ndarray,
                 slack: float) -> np.ndarray:
        """Open members whose cost exceeds their group's minimum by more than ``slack``."""
        open_members = (ub[self.perm] > 0.5) & (lb[self.perm] < 0.5)
        excess = self.cost - np.repeat(minima, self.sizes)
        return self.perm[open_members & (excess > slack)]

    def most_fractional(self, x: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                        tol: float) -> Optional[int]:
        """The undecided group with the most fractional mass above ``tol``.

        A group's score is ``sum(min(x, 1 - x))`` over its members; a group
        whose every member is fixed is decided.  Ties go to the first
        group.
        """
        if not self.sizes.size:
            return None
        values = x[self.perm]
        undecided = np.logical_or.reduceat(ub[self.perm] - lb[self.perm] >= tol, self.starts)
        scores = np.add.reduceat(np.minimum(values, 1.0 - values), self.starts)
        scores[~undecided] = -np.inf
        best = int(np.argmax(scores))
        return best if scores[best] > tol else None

    def round_winners(self, x: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                      tol: float) -> np.ndarray:
        """The member each group rounds ``x`` to (groups with no winner are absent).

        A member fixed to one wins its group.  Otherwise the allowed
        member (``ub >= 0.5``) with the largest value wins, then the
        cheapest, then the first declared; it wins only when its value
        exceeds ``tol``.
        """
        perm, starts, cost, positions = self.perm, self.starts, self.cost, self._positions
        past = perm.size
        first_forced = np.minimum.reduceat(np.where(lb[perm] > 0.5, positions, past), starts)
        allowed = ub[perm] >= 0.5
        values = x[perm]
        top = np.maximum.reduceat(np.where(allowed, values, -np.inf), starts)
        tied = allowed & (values == np.repeat(top, self.sizes))
        cheapest = np.minimum.reduceat(np.where(tied, cost, np.inf), starts)
        tied &= cost == np.repeat(cheapest, self.sizes)
        first_tied = np.minimum.reduceat(np.where(tied, positions, past), starts)
        forced = first_forced < past
        winners = np.where(forced, first_forced, first_tied)
        return perm[winners[forced | (top > tol)]]
