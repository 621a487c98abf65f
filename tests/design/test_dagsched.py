"""Unit tests for the time-indexed DAG-scheduling workload generator."""

from __future__ import annotations

import pytest

from repro.arch import hierarchical_board
from repro.design import DagScheduleGenerator, DesignError


class TestKnobValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"depth": 0}, "depth"),
            ({"width": 0}, "width"),
            ({"burstiness": 1.5}, "burstiness"),
            ({"burstiness": -0.1}, "burstiness"),
            ({"branch_factor": 2.0}, "branch_factor"),
            ({"slots": 0}, "slots"),
            ({"min_words": 0}, "words"),
            ({"min_words": 64, "max_words": 32}, "words"),
        ],
    )
    def test_bad_knobs_fail_fast(self, kwargs, match):
        with pytest.raises(DesignError, match=match):
            DagScheduleGenerator(**kwargs)


class TestGeneration:
    def test_one_buffer_per_task(self):
        design = DagScheduleGenerator(depth=4, width=3, seed=0).generate()
        # Flat layers (burstiness 0): depth x width tasks, one buffer each.
        assert design.num_segments == 12

    def test_identical_seed_is_identical_design(self):
        a = DagScheduleGenerator(depth=5, width=3, branch_factor=0.7, seed=9).generate()
        b = DagScheduleGenerator(depth=5, width=3, branch_factor=0.7, seed=9).generate()
        assert [(ds.name, ds.depth, ds.width) for ds in a] == [
            (ds.name, ds.depth, ds.width) for ds in b
        ]
        assert sorted(a.conflicts.pairs) == sorted(b.conflicts.pairs)

    def test_different_seeds_differ(self):
        a = DagScheduleGenerator(depth=5, width=3, seed=1).generate()
        b = DagScheduleGenerator(depth=5, width=3, seed=2).generate()
        assert [(ds.depth, ds.width) for ds in a] != [
            (ds.depth, ds.width) for ds in b
        ]

    def test_deep_dag_has_banded_conflicts(self):
        # Buffers of distant layers never coexist, so the conflict graph
        # must be strictly sparser than all-pairs — the structural
        # difference from the paper's pipeline workloads.
        design = DagScheduleGenerator(depth=8, width=2, branch_factor=0.3, seed=4).generate()
        n = design.num_segments
        assert len(design.conflicts) < n * (n - 1) // 2

    def test_burstiness_swells_alternating_layers(self):
        flat = DagScheduleGenerator(depth=4, width=4, burstiness=0.0)
        bursty = DagScheduleGenerator(depth=4, width=4, burstiness=1.0)
        assert flat._layer_widths() == [4, 4, 4, 4]
        widths = bursty._layer_widths()
        assert widths[1] > widths[0]  # odd layers swell, even shrink
        assert widths[1] > 4 and widths[0] < 4

    def test_fewer_slots_stretch_the_schedule(self):
        tight = DagScheduleGenerator(depth=4, width=4, slots=1, seed=2).generate()
        loose = DagScheduleGenerator(depth=4, width=4, slots=8, seed=2).generate()
        # Same DAG either way; only the per-step capacity (and hence the
        # lifetimes/conflicts) changes.
        assert tight.num_segments == loose.num_segments
        assert sorted(tight.conflicts.pairs) != sorted(loose.conflicts.pairs)

    def test_board_fit_respects_capacity(self):
        board = hierarchical_board()
        design = DagScheduleGenerator(depth=4, width=3, seed=0).generate(
            board=board, target_occupancy=0.4
        )
        assert design.total_bits <= board.total_capacity_bits

    def test_wrapper_names_the_design(self):
        design = DagScheduleGenerator(depth=3, width=2, seed=6).generate()
        assert design.name == "dag-3x2-seed6"
