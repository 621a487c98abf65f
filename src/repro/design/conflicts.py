"""Conflict (lifetime-overlap) description between data structures.

Section 3.3 of the paper: scheduling determines the lifetimes of the
design's data structures; structures whose lifetimes do *not* overlap may
share the same physical storage, which reduces the total capacity the
mapper must reserve.  The mapper therefore receives a set of *conflict
pairs*: pair ``(L1, L2)`` means L1 and L2 cannot share storage space.

:class:`ConflictSet` stores these pairs symmetrically, can be derived from
lifetime annotations, and answers the queries the capacity constraints and
the detailed mapper need (does a group of structures pairwise conflict?
what is the worst-case simultaneous footprint of a set of structures?).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from .datastruct import DataStructure, DesignError

__all__ = ["ConflictSet"]

Pair = Tuple[str, str]


def _canonical(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ConflictSet:
    """An immutable, symmetric set of conflicting data-structure pairs."""

    pairs: FrozenSet[Pair]

    # ------------------------------------------------------------ builders
    @classmethod
    def empty(cls) -> "ConflictSet":
        return cls(frozenset())

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[str]]) -> "ConflictSet":
        canonical: Set[Pair] = set()
        for pair in pairs:
            a, b = pair
            if a == b:
                raise DesignError(f"a data structure cannot conflict with itself ({a!r})")
            canonical.add(_canonical(a, b))
        return cls(frozenset(canonical))

    @classmethod
    def all_pairs(cls, structures: Iterable[DataStructure]) -> "ConflictSet":
        """Every pair conflicts (no storage sharing possible at all)."""
        names = [ds.name for ds in structures]
        return cls(frozenset(_canonical(a, b) for a, b in combinations(names, 2)))

    @classmethod
    def from_lifetimes(cls, structures: Iterable[DataStructure]) -> "ConflictSet":
        """Derive conflicts from lifetime annotations.

        Structures without a lifetime are conservatively assumed to be live
        for the whole execution, hence they conflict with everything.
        """
        structures = list(structures)
        pairs: Set[Pair] = set()
        for a, b in combinations(structures, 2):
            if a.overlaps_lifetime(b):
                pairs.add(_canonical(a.name, b.name))
        return cls(frozenset(pairs))

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def conflicts(self, a: str, b: str) -> bool:
        """Whether structures ``a`` and ``b`` may not share storage."""
        if a == b:
            return False
        return _canonical(a, b) in self.pairs

    def compatible(self, a: str, b: str) -> bool:
        """Whether ``a`` and ``b`` are allowed to overlap in memory."""
        return not self.conflicts(a, b)

    def neighbours(self, name: str) -> Set[str]:
        """All structures that conflict with ``name``."""
        result = set()
        for a, b in self.pairs:
            if a == name:
                result.add(b)
            elif b == name:
                result.add(a)
        return result

    def restricted_to(self, names: Iterable[str]) -> "ConflictSet":
        """Conflicts among a subset of structures (used per bank type)."""
        keep = set(names)
        return ConflictSet(
            frozenset(p for p in self.pairs if p[0] in keep and p[1] in keep)
        )

    def degree(self, name: str) -> int:
        return len(self.neighbours(name))

    # --------------------------------------------------- capacity analysis
    def conflict_cliques(self, structures: Sequence[DataStructure]) -> List[List[str]]:
        """Greedy clique cover of the conflict graph.

        Structures in the same clique all pairwise conflict, so each clique's
        storage demands add up; structures in different cliques of the cover
        *may* be able to overlap.  Used by the conflict-aware capacity
        constraint to compute a safe lower bound on the space a set of
        structures needs when sharing is allowed.
        """
        remaining = [ds.name for ds in sorted(structures, key=lambda d: -d.size_bits)]
        cliques: List[List[str]] = []
        for name in remaining:
            placed = False
            for clique in cliques:
                if all(self.conflicts(name, member) for member in clique):
                    clique.append(name)
                    placed = True
                    break
            if not placed:
                cliques.append([name])
        return cliques

    def union(self, other: "ConflictSet") -> "ConflictSet":
        return ConflictSet(self.pairs | other.pairs)

    def describe(self) -> str:
        return f"{len(self.pairs)} conflict pairs"
