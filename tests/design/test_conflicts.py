"""Unit tests for the conflict-pair model (Section 3.3)."""

from __future__ import annotations

import pytest

from repro.design import ConflictSet, DataStructure, DesignError


def structures(*specs):
    return [DataStructure(name, depth, width) for name, depth, width in specs]


class TestConstruction:
    def test_pairs_are_symmetric(self):
        conflicts = ConflictSet.from_pairs([("b", "a")])
        assert conflicts.conflicts("a", "b")
        assert conflicts.conflicts("b", "a")

    def test_self_conflict_rejected(self):
        with pytest.raises(DesignError):
            ConflictSet.from_pairs([("a", "a")])

    def test_duplicates_collapse(self):
        conflicts = ConflictSet.from_pairs([("a", "b"), ("b", "a"), ("a", "b")])
        assert len(conflicts) == 1

    def test_all_pairs(self):
        items = structures(("a", 4, 4), ("b", 4, 4), ("c", 4, 4))
        conflicts = ConflictSet.all_pairs(items)
        assert len(conflicts) == 3

    def test_empty(self):
        conflicts = ConflictSet.empty()
        assert len(conflicts) == 0
        assert conflicts.compatible("a", "b")

    def test_from_lifetimes(self):
        items = [
            DataStructure("a", 4, 4, lifetime=(0, 3)),
            DataStructure("b", 4, 4, lifetime=(4, 7)),
            DataStructure("c", 4, 4, lifetime=(2, 5)),
        ]
        conflicts = ConflictSet.from_lifetimes(items)
        assert not conflicts.conflicts("a", "b")
        assert conflicts.conflicts("a", "c")
        assert conflicts.conflicts("b", "c")

    def test_from_lifetimes_missing_annotation_conflicts_with_all(self):
        items = [
            DataStructure("a", 4, 4),
            DataStructure("b", 4, 4, lifetime=(0, 1)),
        ]
        conflicts = ConflictSet.from_lifetimes(items)
        assert conflicts.conflicts("a", "b")


class TestQueries:
    def test_neighbours_and_degree(self):
        conflicts = ConflictSet.from_pairs([("a", "b"), ("a", "c")])
        assert conflicts.neighbours("a") == {"b", "c"}
        assert conflicts.degree("a") == 2
        assert conflicts.degree("d") == 0

    def test_restricted_to_subset(self):
        conflicts = ConflictSet.from_pairs([("a", "b"), ("a", "c"), ("c", "d")])
        sub = conflicts.restricted_to(["a", "b", "d"])
        assert sub.conflicts("a", "b")
        assert not sub.conflicts("a", "c")
        assert not sub.conflicts("c", "d")

    def test_union(self):
        a = ConflictSet.from_pairs([("a", "b")])
        b = ConflictSet.from_pairs([("b", "c")])
        merged = a.union(b)
        assert merged.conflicts("a", "b") and merged.conflicts("b", "c")

    def test_iteration_is_sorted(self):
        conflicts = ConflictSet.from_pairs([("z", "y"), ("a", "b")])
        assert list(conflicts) == [("a", "b"), ("y", "z")]


class TestCapacityAnalysis:
    def test_clique_cover_groups_conflicting_structures(self):
        items = structures(("a", 10, 8), ("b", 20, 8), ("c", 30, 8), ("d", 5, 8))
        conflicts = ConflictSet.from_pairs([("a", "b"), ("c", "d")])
        cliques = conflicts.conflict_cliques(items)
        as_sets = [set(c) for c in cliques]
        assert {"a", "b"} in as_sets or any({"a", "b"} <= s for s in as_sets)
        # Every structure appears exactly once in the cover.
        flat = [name for clique in cliques for name in clique]
        assert sorted(flat) == ["a", "b", "c", "d"]
