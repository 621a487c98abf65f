"""Regression tests for the warm-started retry loop.

The issue's acceptance criterion: pipeline retries with warm start must
produce fingerprint-identical mappings to cold solves, while doing no
more solver work.
"""

from __future__ import annotations

import pytest

from repro.arch import BankType, Board
from repro.core import MemoryMapper
from repro.design import Design
from repro.engine.cache import result_fingerprint
from repro.ilp import highs_available
from repro.io.serialize import mapping_result_to_dict


@pytest.fixture
def retry_board() -> Board:
    """A board whose 3-port type makes the first detailed attempt fail."""
    tri = BankType(name="tri", num_instances=3, num_ports=3,
                   configurations=[(128, 1), (64, 2), (32, 4), (16, 8)])
    slow = BankType(name="slow", num_instances=2, num_ports=1,
                    configurations=[(16384, 32)], read_latency=3,
                    write_latency=3, pins_traversed=2)
    return Board(name="tri-board", bank_types=(tri, slow))


@pytest.fixture
def retry_design() -> Design:
    return Design.from_segments(
        "threeport",
        [("a", 8, 8), ("b", 8, 8), ("c", 8, 8), ("d", 8, 8), ("e", 8, 8)],
    )


BACKENDS = ["bnb-pure"] + (["scipy-milp", "portfolio"] if highs_available() else [])


class TestWarmRetryFingerprints:
    @pytest.mark.parametrize("solver", BACKENDS)
    def test_warm_retries_match_cold_solves(self, retry_board, retry_design, solver):
        warm = MemoryMapper(retry_board, max_retries=5, solver=solver,
                            warm_retries=True).map(retry_design)
        cold = MemoryMapper(retry_board, max_retries=5, solver=solver,
                            warm_retries=False).map(retry_design)
        assert warm.retries >= 1  # the scenario must actually retry
        assert warm.retries == cold.retries
        fp_warm = result_fingerprint(mapping_result_to_dict(warm))
        fp_cold = result_fingerprint(mapping_result_to_dict(cold))
        assert fp_warm == fp_cold

    def test_warm_retries_reuse_state(self, retry_board, retry_design):
        result = MemoryMapper(retry_board, max_retries=5, solver="bnb-pure",
                              warm_retries=True).map(retry_design)
        stats = result.solve_stats
        assert stats["global_solves"] == result.retries + 1
        # The context carried state across retries: the cached standard
        # form was reused and at least one warm start was accepted.
        assert stats["form_reuses"] >= 1
        assert stats["warm_start_hits"] >= 1

    def test_warm_retries_do_no_extra_lp_work(self, retry_board, retry_design):
        warm = MemoryMapper(retry_board, max_retries=5, solver="bnb-pure",
                            warm_retries=True).map(retry_design)
        cold = MemoryMapper(retry_board, max_retries=5, solver="bnb-pure",
                            warm_retries=False,
                            solver_options={"presolve": False}).map(retry_design)
        assert warm.solve_stats["lp_solves"] <= cold.solve_stats["lp_solves"]
        assert warm.cost.weighted_total == pytest.approx(cold.cost.weighted_total)


class TestSolveStatsSurfacing:
    def test_mapping_result_carries_solve_stats(self, retry_board, retry_design):
        result = MemoryMapper(retry_board, max_retries=5).map(retry_design)
        for key in ("global_solves", "lp_solves", "nodes_explored",
                    "presolve_rows_dropped", "presolve_cols_fixed", "retries"):
            assert key in result.solve_stats
        assert result.solve_stats["retries"] == result.retries

    def test_solve_stats_survive_serialisation(self, retry_board, retry_design):
        result = MemoryMapper(retry_board, max_retries=5).map(retry_design)
        document = mapping_result_to_dict(result)
        assert document["solve_stats"] == result.solve_stats

    def test_fingerprint_ignores_solve_stats(self, retry_board, retry_design):
        result = MemoryMapper(retry_board, max_retries=5).map(retry_design)
        document = mapping_result_to_dict(result)
        mutated = dict(document)
        mutated["solve_stats"] = {"lp_solves": 10**6}
        assert result_fingerprint(document) == result_fingerprint(mutated)

    def test_describe_mentions_solver_work(self, retry_board, retry_design):
        result = MemoryMapper(retry_board, max_retries=5).map(retry_design)
        assert "LP solves" in result.describe()
