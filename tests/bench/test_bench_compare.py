"""``scripts/bench_compare.py`` gates explore runs on their fingerprint.

An explore fingerprint hashes every point's mapping, so two runs of the
same grid, solver and warm-chain setting must agree on it even where
every objective is equal.  The committed warm baseline stands in for a
fresh run.
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
