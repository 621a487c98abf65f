"""Integration tests for the design-space explorer."""

from __future__ import annotations

import pytest

from repro.bench import explore_artifact
from repro.explore import DesignSpaceExplorer, ScenarioGrid, render_explore_report

#: A small grid with genuine branch-and-bound work on the random chain,
#: so warm chaining has LP solves to save.
SPECS = [
    "image-pipeline@width=128:384:128",
    "random@structures=12,occupancy=0.5:0.7:0.05",
]


@pytest.fixture(scope="module")
def warm_result():
    grid = ScenarioGrid.parse(SPECS)
    return DesignSpaceExplorer(grid, warm_chain=True).run()


@pytest.fixture(scope="module")
def cold_result():
    grid = ScenarioGrid.parse(SPECS)
    return DesignSpaceExplorer(grid, warm_chain=False).run()


class TestDeterminism:
    def test_rerun_is_fingerprint_identical(self, warm_result):
        grid = ScenarioGrid.parse(SPECS)
        rerun = DesignSpaceExplorer(grid, warm_chain=True).run()
        assert rerun.fingerprint() == warm_result.fingerprint()

    def test_worker_count_does_not_change_the_outcome(self, warm_result):
        grid = ScenarioGrid.parse(SPECS)
        parallel = DesignSpaceExplorer(grid, warm_chain=True, jobs=2).run()
        assert parallel.fingerprint() == warm_result.fingerprint()

    def test_warm_and_cold_find_identical_mappings(self, warm_result, cold_result):
        warm_prints = [p.fingerprint for p in warm_result.points]
        cold_prints = [p.fingerprint for p in cold_result.points]
        assert warm_prints == cold_prints


class TestWarmChaining:
    def test_warm_chaining_saves_lp_solves(self, warm_result, cold_result):
        warm_lp = warm_result.total("lp_solves")
        cold_lp = cold_result.total("lp_solves")
        assert warm_lp < cold_lp

    def test_every_point_succeeds(self, warm_result):
        assert warm_result.num_failed == 0
        assert all(p.objective is not None for p in warm_result.points)

    def test_chain_layout_matches_the_grid(self, warm_result):
        assert len(warm_result.chains) == 2
        assert [len(chain) for chain in warm_result.chains] == [3, 5]


class TestReductions:
    def test_pareto_front_is_not_dominated(self, warm_result):
        front = warm_result.pareto_front()
        assert front
        vectors = [(p.objective, p.lp_solves) for p in warm_result.ok_points]
        for member in front:
            vec = (member.objective, member.lp_solves)
            better = [
                v
                for v in vectors
                if v[0] <= vec[0] and v[1] <= vec[1] and v != vec
            ]
            assert not better or all(v == vec for v in better)

    def test_report_renders(self, warm_result):
        text = render_explore_report(warm_result)
        assert "Exploration summary" in text
        assert "warm-chained" in text
        assert "total LP solves" in text

    def test_artifact_schema(self, warm_result):
        document = explore_artifact(warm_result)
        assert document["kind"] == "bench_artifact"
        assert document["name"] == "explore"
        assert document["num_points"] == len(warm_result.points)
        assert document["grid"]["kind"] == "scenario_grid"
        assert document["fingerprint"] == warm_result.fingerprint()
        labels = {row["label"] for row in document["results"]}
        assert set(document["pareto_front"]) <= labels
        assert sum(len(c) for c in document["chains"]) == document["num_points"]


class TestFailureHandling:
    def test_infeasible_points_are_reported_not_raised(self):
        # banks=2 is far too small for 10 structures: the point must fail
        # cleanly and the rest of the chain must still run.
        grid = ScenarioGrid.parse(["board-scale@segments=10,banks=2|8"])
        result = DesignSpaceExplorer(grid, warm_chain=True).run()
        assert result.num_failed == 1
        statuses = [p.status for p in result.points]
        assert statuses == ["failed", "ok"]
        assert result.points[0].error


class TestTotals:
    @staticmethod
    def _result_with_failure():
        from repro.explore import ExplorePointResult, ExploreResult

        grid = ScenarioGrid.parse(["fft@points=64|128"])
        points = [
            ExplorePointResult(
                label="fft[points=64]", family="fft", params={},
                chain=0, step=0, status="failed", objective=None,
                solve_stats={"lp_solves": 2}, error="infeasible",
            ),
            ExplorePointResult(
                label="fft[points=128]", family="fft", params={},
                chain=0, step=1, status="ok", objective=2.5,
                solve_stats={"lp_solves": 3},
            ),
        ]
        return ExploreResult(
            grid=grid, points=points,
            chains=[["fft[points=64]", "fft[points=128]"]],
            jobs=1, solver="auto", warm_chain=True, elapsed=0.0,
        )

    def test_total_objective_skips_failed_points(self):
        # total("objective") used to raise TypeError (None + float) as
        # soon as any point had failed.
        result = self._result_with_failure()
        assert result.total("objective") == 2.5

    def test_counter_totals_still_include_failed_points(self):
        result = self._result_with_failure()
        assert result.total("lp_solves") == 5.0

    def test_artifact_builds_with_failed_points(self):
        artifact = explore_artifact(self._result_with_failure())
        assert artifact["num_failed"] == 1
        assert artifact["total_lp_solves"] == 5
