"""Unit tests for grid spec parsing and chain expansion."""

from __future__ import annotations

import pytest

from repro.explore import GridSpecError, ScenarioGrid, ScenarioSweep
from repro.io import SCHEMA_VERSION, scenario_grid_to_dict


class TestSpecParsing:
    def test_family_only_spec_is_one_point(self):
        sweep = ScenarioSweep.parse("fft")
        assert sweep.num_points == 1
        assert sweep.points()[0].label() == "fft"

    def test_integer_range_is_inclusive(self):
        sweep = ScenarioSweep.parse("random@structures=4:10:2")
        values = sweep.axes["structures"]
        assert values == (4, 6, 8, 10)

    def test_float_range_is_rounded(self):
        sweep = ScenarioSweep.parse("random@occupancy=0.5:0.8:0.05")
        assert sweep.axes["occupancy"] == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8)

    def test_value_list(self):
        sweep = ScenarioSweep.parse("fft@board=hierarchical|virtex-xcv1000")
        assert sweep.axes["board"] == ("hierarchical", "virtex-xcv1000")

    def test_last_axis_varies_fastest_in_snake_order(self):
        sweep = ScenarioSweep.parse("random@structures=4|6,occupancy=0.4|0.5")
        params = [point.params for point in sweep.points()]
        # Boustrophedon: the last axis reverses on every pass, so every
        # consecutive pair differs in exactly one knob.
        assert params == [
            {"structures": 4, "occupancy": 0.4},
            {"structures": 4, "occupancy": 0.5},
            {"structures": 6, "occupancy": 0.5},
            {"structures": 6, "occupancy": 0.4},
        ]

    def test_consecutive_points_differ_in_exactly_one_knob(self):
        spec = "random@structures=4|6|8,occupancy=0.4|0.5,conflict_density=0.5|1.0"
        points = ScenarioSweep.parse(spec).points()
        for before, after in zip(points, points[1:]):
            changed = [
                key
                for key in before.params
                if before.params[key] != after.params[key]
            ]
            assert len(changed) == 1

    def test_unknown_family_fails(self):
        with pytest.raises(Exception, match="unknown scenario family"):
            ScenarioSweep.parse("nope@x=1")

    def test_bad_axis_syntax_fails(self):
        with pytest.raises(GridSpecError, match="key=value"):
            ScenarioSweep.parse("fft@points")

    def test_duplicate_axis_fails(self):
        with pytest.raises(GridSpecError, match="twice"):
            ScenarioSweep.parse("fft@points=8,points=16")

    def test_float_range_requires_step(self):
        with pytest.raises(GridSpecError, match="step"):
            ScenarioSweep.parse("random@occupancy=0.4:0.8")

    def test_descending_range_fails(self):
        with pytest.raises(GridSpecError, match="lo <= hi"):
            ScenarioSweep.parse("random@structures=10:4")


class TestGrid:
    def test_one_chain_per_spec(self):
        grid = ScenarioGrid.parse(["fft", "random@structures=4:8:2"])
        chains = grid.chains()
        assert [len(chain) for chain in chains] == [1, 3]
        assert grid.num_points == 4

    def test_empty_grid_fails(self):
        with pytest.raises(GridSpecError, match="at least one sweep"):
            ScenarioGrid.parse([])

    def test_chains_ignore_worker_count(self):
        grid = ScenarioGrid.parse(["random@structures=4:8:2"])
        labels_a = [p.label() for chain in grid.chains() for p in chain]
        labels_b = [p.label() for chain in grid.chains() for p in chain]
        assert labels_a == labels_b

    def test_grid_document_lists_each_sweep(self):
        grid = ScenarioGrid.parse(
            ["image-pipeline@width=128:512:128", "random@occupancy=0.5|0.7"]
        )
        assert scenario_grid_to_dict(grid) == {
            "kind": "scenario_grid",
            "schema_version": SCHEMA_VERSION,
            "sweeps": [
                {"family": "image-pipeline", "axes": {"width": [128, 256, 384, 512]}},
                {"family": "random", "axes": {"occupancy": [0.5, 0.7]}},
            ],
        }


class TestEmptyAlternatives:
    def test_trailing_empty_alternative_is_an_error(self):
        # "k=1|" used to silently drop the empty part and run a smaller
        # sweep than asked for.
        with pytest.raises(GridSpecError, match="empty alternative"):
            ScenarioSweep.parse("random@structures=4|")

    def test_lone_separator_is_an_error(self):
        with pytest.raises(GridSpecError, match="empty alternative"):
            ScenarioSweep.parse("random@structures=|")

    def test_double_separator_is_an_error(self):
        with pytest.raises(GridSpecError, match="empty alternative"):
            ScenarioSweep.parse("fft@board=hierarchical||virtex-xcv1000")

    def test_whitespace_only_alternative_is_an_error(self):
        with pytest.raises(GridSpecError, match="empty alternative"):
            ScenarioSweep.parse("random@structures=4| |6")


class TestHashability:
    def test_sweeps_are_hashable_and_order_insensitive(self):
        sweep = ScenarioSweep.parse("random@structures=4|6,occupancy=0.4|0.5")
        other = ScenarioSweep(
            family="random",
            axes={"occupancy": (0.4, 0.5), "structures": (4, 6)},
        )
        # dict equality ignores insertion order; the hash must agree.
        assert sweep == other
        assert hash(sweep) == hash(other)
        assert len({sweep, other}) == 1

    def test_grids_are_hashable(self):
        specs = ["fft", "random@structures=4:8:2"]
        grid = ScenarioGrid.parse(specs)
        again = ScenarioGrid.parse(specs)
        assert hash(grid) == hash(again)
        assert len({grid, again}) == 1

    def test_sweep_usable_as_dict_key(self):
        sweep = ScenarioSweep.parse("fft@points=64|128")
        assert {sweep: "x"}[ScenarioSweep.parse("fft@points=64|128")] == "x"


class TestLazyEnumeration:
    SPECS = [
        "fft",
        "fft@points=64|128|256",
        "random@structures=4:8:2,occupancy=0.4|0.5",
        "random@structures=4|6|8,occupancy=0.4|0.5,conflict_density=0.5|1.0",
    ]

    def test_iter_points_matches_points_exactly(self):
        for spec in self.SPECS:
            sweep = ScenarioSweep.parse(spec)
            lazy = [p.params for p in sweep.iter_points(seed=2)]
            eager = [p.params for p in sweep.points(seed=2)]
            assert lazy == eager, spec

    def test_iter_chains_matches_chains(self):
        grid = ScenarioGrid.parse(self.SPECS[1:3])
        lazy = [[p.label() for p in chain] for chain in grid.iter_chains(seed=1)]
        eager = [[p.label() for p in chain] for chain in grid.chains(seed=1)]
        assert lazy == eager

    def test_chain_lengths_need_no_enumeration(self):
        grid = ScenarioGrid.parse(self.SPECS)
        assert grid.chain_lengths() == [s.num_points for s in grid.sweeps]
        assert sum(grid.chain_lengths()) == grid.num_points

    def test_three_axis_snake_covers_the_product_with_one_knob_steps(self):
        spec = ("random@structures=4|6|8,occupancy=0.4|0.5|0.6,"
                "conflict_density=0.25|0.5|1.0")
        points = list(ScenarioSweep.parse(spec).iter_points())
        assert len(points) == 27
        combos = {tuple(sorted(p.params.items())) for p in points}
        assert len(combos) == 27  # the full product, each combo once
        # One-knob adjacency must hold across *every* consecutive pair,
        # including the rollovers where an outer axis advances.
        for before, after in zip(points, points[1:]):
            changed = [
                key
                for key in before.params
                if before.params[key] != after.params[key]
            ]
            assert len(changed) == 1, (before.params, after.params)
