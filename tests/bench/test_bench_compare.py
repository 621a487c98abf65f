"""``scripts/bench_compare.py`` gates explore runs on their fingerprint
and Table 3 runs on their objectives and presolve totals.

An explore fingerprint hashes every point's mapping, so two runs of the
same grid, solver and warm-chain setting must agree on it even where
every objective is equal.  Table 3 optima are deterministic under every
exact solver, so a run of any of them must match the committed baseline
on every point both carry.  The committed artifacts stand in for fresh
runs.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACTS = REPO_ROOT / "bench-artifacts"

spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "scripts" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def _artifact(name):
    return json.loads((ARTIFACTS / name).read_text(encoding="utf-8"))


@pytest.fixture()
def warm():
    return _artifact("BENCH_explore_warm.json")


def _drifted(document):
    drifted = copy.deepcopy(document)
    fingerprint = drifted["fingerprint"]
    drifted["fingerprint"] = ("0" if fingerprint[0] != "0" else "1") + fingerprint[1:]
    return drifted


class TestExploreFingerprintGate:
    def test_same_fingerprint_passes(self, warm):
        assert bench_compare.compare(warm, copy.deepcopy(warm), fail_over=None) == 0

    @pytest.mark.parametrize("fail_over", [None, 300.0])
    def test_drifted_fingerprint_fails(self, warm, fail_over, capsys):
        assert bench_compare.compare(warm, _drifted(warm), fail_over=fail_over) == 1
        assert "fingerprint" in capsys.readouterr().out

    def test_runs_of_different_inputs_are_not_compared(self, warm):
        # Warm and cold chains of one grid hash differently by design.
        cold = _artifact("BENCH_explore_cold.json")
        assert cold["grid"] == warm["grid"]
        assert cold["fingerprint"] != warm["fingerprint"]
        assert bench_compare.compare(warm, cold, fail_over=None) == 0


@pytest.fixture()
def table3():
    return _artifact("BENCH_table3_new.json")


class TestTable3ObjectiveGate:
    def test_a_subset_of_the_points_with_the_same_optima_passes(self, table3):
        subset = copy.deepcopy(table3)
        subset["solver"] = "bnb"
        subset["results"] = subset["results"][:4]
        subset["num_points"] = 4
        assert bench_compare.compare(table3, subset, fail_over=None) == 0

    @pytest.mark.parametrize("fail_over", [None, 300.0])
    def test_a_moved_optimum_fails(self, table3, fail_over, capsys):
        moved = copy.deepcopy(table3)
        moved["results"][2]["global_objective"] *= 1.01
        assert bench_compare.compare(table3, moved, fail_over=fail_over) == 1
        assert moved["results"][2]["label"] in capsys.readouterr().out

    def test_a_run_without_the_legacy_knob_keys_compares(self, table3, capsys):
        # The committed baseline still carries ``warm_retries`` and
        # ``presolve``; fresh Table 3 artifacts no longer write them.
        assert "warm_retries" in table3 and "presolve" in table3
        fresh = copy.deepcopy(table3)
        del fresh["warm_retries"], fresh["presolve"]
        assert bench_compare.compare(table3, fresh, fail_over=None) == 0
        assert bench_compare.compare(fresh, table3, fail_over=None) == 0
        assert "warm_retries" not in capsys.readouterr().out


class TestTable3PresolveGate:
    """Presolve totals are deterministic: the same points and retries agree."""

    @pytest.mark.parametrize("key", ["total_presolve_rows_dropped",
                                     "total_presolve_cols_fixed"])
    @pytest.mark.parametrize("fail_over", [None, 300.0])
    def test_a_moved_presolve_total_fails(self, table3, key, fail_over, capsys):
        moved = copy.deepcopy(table3)
        moved["solver"] = "bnb"
        moved[key] += 1
        assert bench_compare.compare(table3, moved, fail_over=fail_over) == 1
        assert key in capsys.readouterr().out

    def test_equal_totals_on_another_lp_kernel_pass(self, table3):
        fresh = copy.deepcopy(table3)
        fresh["solver"] = "bnb"
        del fresh["presolve"]
        assert bench_compare.compare(table3, fresh, fail_over=None) == 0

    def test_runs_of_other_points_or_retries_are_not_compared(self, table3):
        subset = copy.deepcopy(table3)
        subset["results"] = subset["results"][:4]
        subset["num_points"] = 4
        subset["total_presolve_rows_dropped"] = 7
        assert bench_compare.compare(table3, subset, fail_over=None) == 0
        retried = copy.deepcopy(table3)
        retried["total_retries"] += 2
        retried["total_presolve_cols_fixed"] += 2
        assert bench_compare.compare(table3, retried, fail_over=None) == 0

    def test_a_run_without_presolve_is_not_compared(self, table3):
        # The committed legacy artifact was solved with presolve off.
        legacy = _artifact("BENCH_table3_legacy.json")
        assert legacy["presolve"] is False
        assert legacy["total_presolve_rows_dropped"] == 0
        assert bench_compare.compare(legacy, table3, fail_over=None) == 0
