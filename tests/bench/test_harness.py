"""Integration tests for the Table 3 experiment harness (tiny points only)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCALED_DESIGN_POINTS,
    ExperimentRow,
    Table3Harness,
    default_solver_backend,
)


class TestHarness:
    def test_default_backend_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER", raising=False)
        assert default_solver_backend() in ("scipy-milp", "auto")
        monkeypatch.setenv("REPRO_SOLVER", "bnb-pure")
        assert default_solver_backend() == "bnb-pure"

    def test_run_point_produces_comparable_row(self):
        harness = Table3Harness(points=SCALED_DESIGN_POINTS[:1], time_limit=60)
        row = harness.run_point(SCALED_DESIGN_POINTS[0])
        assert isinstance(row, ExperimentRow)
        assert row.global_detailed_seconds > 0
        assert row.complete_seconds > 0
        assert row.global_status == "optimal"
        assert row.objectives_match
        assert row.speedup > 0
        # The flat formulation is always the (much) larger model.
        assert row.complete_model_size["variables"] > row.global_model_size["variables"]

    def test_run_without_complete_baseline(self):
        harness = Table3Harness(
            points=SCALED_DESIGN_POINTS[:1], time_limit=60, run_complete=False
        )
        row = harness.run_point(SCALED_DESIGN_POINTS[0])
        assert row.complete_status == "skipped"
        assert row.complete_objective is None
        assert not row.objectives_match

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_run_point_reports_the_size_of_the_model_it_solved(self, index):
        from repro.core import MemoryMapper

        point = SCALED_DESIGN_POINTS[index]
        harness = Table3Harness(points=[point], time_limit=60, run_complete=False)
        row = harness.run_point(point)
        design, board = point.build(seed=harness.seed, occupancy=harness.occupancy)
        model = MemoryMapper(board).global_mapper.build_model(design).model
        assert row.global_model_size == {
            "variables": model.num_variables,
            "constraints": model.num_constraints,
        }

    def test_artifact_records_no_legacy_solver_knobs(self, tmp_path):
        rows = Table3Harness(points=SCALED_DESIGN_POINTS[:1], time_limit=60,
                             run_complete=False, artifact_dir=str(tmp_path)).run()
        [path] = tmp_path.glob("BENCH_table3*.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert "warm_retries" not in document and "presolve" not in document
        assert document["num_points"] == 1
        assert document["results"][0]["global_model_size"] == rows[0].global_model_size

    def test_run_table3_over_two_points(self):
        rows = Table3Harness(points=SCALED_DESIGN_POINTS[:2], time_limit=60).run()
        assert len(rows) == 2
        assert all(r.global_status == "optimal" for r in rows)
        assert all(r.objectives_match for r in rows)

    def test_builtin_solver_backend_agrees_with_default(self):
        point = SCALED_DESIGN_POINTS[0]
        default_row = Table3Harness(points=[point], time_limit=60).run_point(point)
        builtin_row = Table3Harness(points=[point], solver="auto",
                                    time_limit=60).run_point(point)
        assert builtin_row.global_objective == pytest.approx(
            default_row.global_objective, rel=1e-6
        )


class TestParallelHarness:
    def test_parallel_run_matches_serial_objectives(self):
        points = SCALED_DESIGN_POINTS[:2]
        serial = Table3Harness(points=points, time_limit=60, jobs=1).run()
        parallel = Table3Harness(points=points, time_limit=60, jobs=2).run()
        assert len(parallel) == len(serial) == 2
        for s, p in zip(serial, parallel):
            assert p.point == s.point
            assert p.global_objective == pytest.approx(s.global_objective)
            assert p.complete_objective == pytest.approx(s.complete_objective)
            assert p.global_status == s.global_status
            assert p.objectives_match == s.objectives_match
            assert p.complete_model_size["variables"] == \
                s.complete_model_size["variables"]

    def test_parallel_run_without_complete_baseline(self):
        rows = Table3Harness(points=SCALED_DESIGN_POINTS[:2], time_limit=60,
                             jobs=2, run_complete=False).run()
        assert all(r.complete_status == "skipped" for r in rows)
        assert all(r.global_status == "optimal" for r in rows)

    def test_parallel_run_reports_the_serial_global_model_sizes(self):
        points = SCALED_DESIGN_POINTS[:2]
        serial = Table3Harness(points=points, time_limit=60,
                               run_complete=False).run()
        parallel = Table3Harness(points=points, time_limit=60, jobs=2,
                                 run_complete=False).run()
        assert [r.global_model_size for r in parallel] == \
            [r.global_model_size for r in serial]
        assert all(r.global_model_size["variables"] > 0 for r in serial)
