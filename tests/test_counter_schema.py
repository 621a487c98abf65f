"""One solver-counter schema: every :class:`SolveStats` counter reaches every aggregate.

Each counter field of the schema is stamped with a distinct value on
every branch-and-bound solve; the pipeline's ``solve_stats``, the explore
totals and the ``total_*`` keys of the explore and Table 3 artifacts must
then carry exactly that value times the number of global solves.  The
stamped set is read from the dataclass, so a field added to
:class:`SolveStats` is covered here without editing this file.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.arch import BankType, Board
from repro.bench.artifacts import explore_artifact
from repro.bench.designpoints import default_design_points
from repro.bench.harness import Table3Harness
from repro.core import MemoryMapper
from repro.design import Design
from repro.engine import MappingEngine
from repro.explore import DesignSpaceExplorer, ScenarioGrid
from repro.ilp import SolveStats, add_counters, sum_counters
from repro.ilp.branch_bound import BranchAndBoundSolver

#: Counter fields of the schema: ints and maps of ints.
SCALARS = [f.name for f in fields(SolveStats) if f.type == "int"]
MAPS = [f.name for f in fields(SolveStats) if f.type == "Counts"]

#: One distinct value per counter (and per map entry).
STAMP = {name: 1009 + 37 * i for i, name in enumerate(SCALARS)}
STAMP.update(
    {name: {"a": 5003 + 41 * i, "b": 7001 + 43 * i} for i, name in enumerate(MAPS)}
)


def scaled(value, times: int):
    if isinstance(value, dict):
        return {key: count * times for key, count in value.items()}
    return value * times


@pytest.fixture
def stamped(monkeypatch):
    """Every B&B solve reports the :data:`STAMP` counters."""
    original = BranchAndBoundSolver.solve

    def solve(self, model):
        solution = original(self, model)
        for name, value in STAMP.items():
            setattr(solution.stats, name, dict(value) if isinstance(value, dict) else value)
        return solution

    monkeypatch.setattr(BranchAndBoundSolver, "solve", solve)


def assert_stamped(totals, solves: int) -> None:
    assert solves > 0
    for name, value in STAMP.items():
        assert totals[name] == scaled(value, solves), name


def assert_total_keys(document, solves: int) -> None:
    for name in SCALARS:
        assert document[f"total_{name}"] == STAMP[name] * solves, name
    assert document["total_global_solves"] == solves


class TestHelpers:
    def test_sum_counters_lists_every_schema_counter_at_zero(self):
        totals = sum_counters(())
        assert set(totals) == set(SCALARS) | set(MAPS)
        assert {name: totals[name] for name in SCALARS} == dict.fromkeys(SCALARS, 0)
        assert {name: totals[name] for name in MAPS} == {name: {} for name in MAPS}

    def test_add_counters_skips_flags_times_names_and_extras(self):
        totals = add_counters({}, {
            "lp_solves": 2, "warm_retries": True, "wall_time": 1.5, "gap": 0.0,
            "backend": "bnb", "extra": {"portfolio_cancelled": 1},
            "refactor_triggers": {"start": 4}, "retries": 1,
        })
        assert totals == {"lp_solves": 2, "refactor_triggers": {"start": 4}, "retries": 1}
        add_counters(totals, {"lp_solves": 3, "refactor_triggers": {"start": 1, "fill": 2}})
        assert totals == {
            "lp_solves": 5, "refactor_triggers": {"start": 5, "fill": 2}, "retries": 1,
        }

    def test_as_dict_copies_every_field(self):
        stats = SolveStats(**STAMP)
        document = stats.as_dict()
        assert list(document) == [f.name for f in fields(SolveStats)]
        document["presolve"]["a"] = 0
        assert stats.presolve == STAMP["presolve"]


@pytest.mark.usefixtures("stamped")
class TestPropagation:
    def test_pipeline_solve_stats(self):
        # A 3-port type the first detailed attempt cannot pack: the
        # pipeline retries, so the totals span several global solves.
        tri = BankType(name="tri", num_instances=3, num_ports=3,
                       configurations=[(128, 1), (64, 2), (32, 4), (16, 8)])
        slow = BankType(name="slow", num_instances=2, num_ports=1,
                        configurations=[(16384, 32)], read_latency=3,
                        write_latency=3, pins_traversed=2)
        board = Board(name="tri-board", bank_types=(tri, slow))
        design = Design.from_segments(
            "threeport", [(name, 8, 8) for name in "abcde"]
        )
        stats = MemoryMapper(board, solver="bnb-pure").map(design).solve_stats
        assert stats["global_solves"] > 1
        assert_stamped(stats, stats["global_solves"])

    @pytest.mark.parametrize("streamed", [False, True], ids=["in-memory", "streamed"])
    def test_explore_totals_and_artifact(self, tmp_path, streamed):
        grid = ScenarioGrid.parse(["fft@points=64|128", "fir-filter@taps=16|32"])
        explorer = DesignSpaceExplorer(
            grid,
            solver="bnb-pure",
            results_path=str(tmp_path / "spool.jsonl") if streamed else None,
        )
        result = explorer.run()
        assert result.streamed is streamed
        totals = result.counter_totals()
        solves = totals["global_solves"]
        assert solves >= result.num_points == 4
        assert_stamped(totals, solves)
        artifact = explore_artifact(result)
        assert_total_keys(artifact, solves)
        assert result.total("lp_solves") == STAMP["lp_solves"] * solves

    def test_table3_artifact(self, tmp_path):
        harness = Table3Harness(
            points=default_design_points(full=False)[:2],
            solver="bnb-pure",
            run_complete=False,
            artifact_dir=str(tmp_path),
        )
        rows = harness.run()
        artifact = json.loads((tmp_path / "BENCH_table3.json").read_text())
        solves = sum(row.global_solve_stats["global_solves"] for row in rows)
        assert_total_keys(artifact, solves)


class Killed(Exception):
    """Stands in for the process being killed mid-sweep."""


class TestSpoolCompatibility:
    """Spool rows written before the counter schema still resume."""

    GRID = ["fft@points=64|128|256"]

    @staticmethod
    def _flat_key_row(line: str) -> str:
        """The row as the older layout wrote it: counters also top level."""
        row = json.loads(line)
        stats = row["solve_stats"]
        for key in ("lp_solves", "nodes_explored", "simplex_iterations",
                    "warm_lp_solves", "basis_reuses", "refactorizations",
                    "etas_applied", "retries"):
            row[key] = int(stats.get(key, 0) or 0)
        for key in ("nodes_pruned", "presolve"):
            stats.pop(key, None)
        return json.dumps(row, sort_keys=True)

    def test_flat_key_spool_resumes_to_the_uninterrupted_run(self, tmp_path, monkeypatch):
        grid = ScenarioGrid.parse(self.GRID)
        whole = DesignSpaceExplorer(
            grid, solver="bnb-pure", results_path=str(tmp_path / "whole.jsonl")
        ).run()

        spool = tmp_path / "spool.jsonl"
        checkpoint = tmp_path / "checkpoint.json"
        original = MappingEngine.run
        waves = []

        def killed_after_one_wave(self, jobs):
            if waves:
                raise Killed
            waves.append(len(jobs))
            return original(self, jobs)

        monkeypatch.setattr(MappingEngine, "run", killed_after_one_wave)
        with pytest.raises(Killed):
            DesignSpaceExplorer(
                grid, solver="bnb-pure", results_path=str(spool),
                checkpoint_path=str(checkpoint),
            ).run()
        monkeypatch.setattr(MappingEngine, "run", original)
        lines = spool.read_text().splitlines()
        assert len(lines) == 1
        spool.write_text(self._flat_key_row(lines[0]) + "\n")

        resumed = DesignSpaceExplorer(
            grid, solver="bnb-pure", results_path=str(spool),
            checkpoint_path=str(checkpoint),
        ).run()
        assert resumed.fingerprint() == whole.fingerprint()
        assert resumed.total("lp_solves") == whole.total("lp_solves")
        assert resumed.total("retries") == whole.total("retries")
