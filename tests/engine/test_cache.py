"""Unit tests for canonical hashing and the on-disk result cache."""

from __future__ import annotations

import json
import subprocess
import sys
from types import MappingProxyType
from typing import Mapping

import pytest

from repro.bench.designpoints import SCALED_DESIGN_POINTS
from repro.engine import (
    MappingJob,
    ResultCache,
    canonical_hash,
    canonical_json,
    execute_payload,
    result_fingerprint,
)
from repro.engine.cache import _NONDETERMINISTIC_KEYS


def reference_fingerprint(document):
    """The original ``isinstance(Mapping)`` strip, kept as the oracle."""

    def strip(value):
        if isinstance(value, Mapping):
            return {
                k: strip(v)
                for k, v in value.items()
                if k not in _NONDETERMINISTIC_KEYS
            }
        if isinstance(value, (list, tuple)):
            return [strip(v) for v in value]
        return value

    return None if document is None else canonical_hash(strip(document))


class TestCanonicalHash:
    def test_key_order_does_not_matter(self):
        assert canonical_hash({"a": 1, "b": [1, 2]}) == \
            canonical_hash({"b": [1, 2], "a": 1})

    def test_values_do_matter(self):
        assert canonical_hash({"a": 1}) != canonical_hash({"a": 2})

    def test_canonical_json_is_compact_and_sorted(self):
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text == '{"a":{"c":3,"d":2},"b":1}'

    def test_hash_is_stable_across_processes(self):
        script = (
            "from repro.engine import canonical_hash\n"
            "print(canonical_hash({'design': 'fir', 'weights': [1.0, 0.5],"
            " 'nested': {'x': 1}}))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        local = canonical_hash(
            {"design": "fir", "weights": [1.0, 0.5], "nested": {"x": 1}}
        )
        assert completed.stdout.strip() == local


class TestResultFingerprint:
    def test_ignores_timing_fields_at_any_depth(self):
        a = {"objective": 1.5, "global_time": 0.123,
             "nested": {"solve_time": 9.0, "assignment": {"x": "sram"}}}
        b = {"objective": 1.5, "global_time": 7.777,
             "nested": {"solve_time": 0.1, "assignment": {"x": "sram"}}}
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_detects_real_differences(self):
        a = {"assignment": {"x": "sram"}}
        b = {"assignment": {"x": "blockram"}}
        assert result_fingerprint(a) != result_fingerprint(b)

    def test_none_document_has_no_fingerprint(self):
        assert result_fingerprint(None) is None

    def test_matches_the_mapping_walk_on_non_dict_containers(self):
        document = {
            "proxy": MappingProxyType({"wall_time": 3.0, "banks": ("a", "b")}),
            "pairs": (("x", 1), ["y", 2.5, None, True]),
            "solve_stats": {"nodes": 4},
            "nested": [MappingProxyType({"solver_stats": {}, "keep": 1})],
        }
        assert result_fingerprint(document) == reference_fingerprint(document)
        assert result_fingerprint(document) == result_fingerprint(
            {"proxy": {"banks": ["a", "b"]}, "pairs": [["x", 1], ["y", 2.5, None, True]],
             "nested": [{"keep": 1}]}
        )

    @pytest.mark.parametrize("mode", ["pipeline", "fast", "complete"])
    def test_matches_the_mapping_walk_on_every_table3_point(self, mode):
        for point in SCALED_DESIGN_POINTS:
            design, board = point.build()
            job = MappingJob(board=board, design=design, mode=mode)
            document = execute_payload(job.to_payload())
            assert document["result"] is not None, point.label
            assert document["fingerprint"] == reference_fingerprint(
                document["result"]
            ), point.label


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        document = {"status": "ok", "objective": 2.5}
        cache.put("k" * 64, document)
        assert cache.get("k" * 64) == document
        assert len(cache) == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bad").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("key", {"status": "ok"})
        payload = json.loads(cache.path_for("key").read_text())
        payload["cache_schema_version"] = 999
        cache.path_for("key").write_text(json.dumps(payload))
        assert cache.get("key") is None

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"status": "ok"})
        cache.put("b", {"status": "ok"})
        assert cache.clear() == 2
        assert len(cache) == 0
        assert list(cache.keys()) == []


class TestCorruptEntries:
    """Every broken on-disk shape must read as a miss, never an error."""

    def test_non_dict_json_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("listy").write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.get("listy") is None
        assert cache.stats()["misses"] == 1

    def test_dict_without_result_document_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("hollow").write_text(
            json.dumps({"cache_schema_version": 1, "result": "not a dict"}),
            encoding="utf-8",
        )
        assert cache.get("hollow") is None

    def test_non_utf8_bytes_are_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("binary").write_bytes(b"\xff\xfe\x00garbage")
        assert cache.get("binary") is None

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put("locked", {"status": "ok"})
        path = cache.path_for("locked")
        os.chmod(path, 0o000)
        try:
            if path.exists() and not os.access(path, os.R_OK):
                assert cache.get("locked") is None
        finally:
            os.chmod(path, 0o644)

    def test_corrupt_entry_is_overwritten_by_the_next_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("heal").write_text("{broken", encoding="utf-8")
        assert cache.get("heal") is None
        cache.put("heal", {"status": "ok", "objective": 1.0})
        assert cache.get("heal") == {"status": "ok", "objective": 1.0}


class TestEviction:
    def test_trim_keeps_the_newest_entries(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        for index in range(5):
            cache.put(f"key{index}", {"status": "ok", "n": index})
            # Deterministic ages regardless of filesystem timestamp
            # granularity.
            os.utime(cache.path_for(f"key{index}"), (index, index))
        assert cache.trim(2) == 3
        assert len(cache) == 2
        assert cache.get("key4") is not None
        assert cache.get("key3") is not None
        assert cache.get("key0") is None
        assert cache.stats()["evictions"] == 3

    def test_trim_is_a_noop_under_the_limit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("only", {"status": "ok"})
        assert cache.trim(5) == 0
        assert len(cache) == 1

    def test_bounded_cache_evicts_on_put(self, tmp_path):
        import os

        cache = ResultCache(tmp_path, max_entries=2)
        for index in range(4):
            cache.put(f"key{index}", {"status": "ok", "n": index})
            os.utime(cache.path_for(f"key{index}"), (index, index))
        assert len(cache) == 2
        assert cache.get("key0") is None
        assert cache.get("key3") is not None

    def test_rejects_nonpositive_max_entries(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)


class TestMultiProcessWriters:
    """``repro serve`` and ``repro batch`` share one cache directory: every
    combination of concurrent put/get/trim/clear on the same key space
    must stay exception-free and leave only well-formed entries behind.
    """

    WORKER = r"""
import json, sys
from repro.engine import ResultCache

directory, worker, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = ResultCache(directory, max_entries=8)
keys = [f"shared{i}" for i in range(4)]
for round_no in range(rounds):
    key = keys[(worker + round_no) % len(keys)]
    cache.put(key, {"status": "ok", "worker": worker, "round": round_no})
    cache.get(keys[round_no % len(keys)])
    if round_no % 7 == worker % 7:
        cache.trim(4)
    if worker == 0 and round_no == rounds // 2:
        cache.clear()
print(json.dumps({"worker": worker, "ok": True}))
"""

    def test_two_process_same_key_hammer_is_exception_free(self, tmp_path):
        # Regression: concurrent writers used to race clear()'s unlink
        # against put()'s mkstemp (FileNotFoundError) and trim's stat
        # of a vanishing sibling (OSError). Hammer the same key space
        # from separate interpreters and require clean exits.
        rounds = 150
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", self.WORKER,
                 str(tmp_path), str(index), str(rounds)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for index in range(2)
        ]
        for process in workers:
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
            assert json.loads(out)["ok"] is True

        # Survivors are all well-formed full documents under the bound.
        cache = ResultCache(tmp_path)
        survivors = list(cache.keys())
        assert len(survivors) <= 8
        for key in survivors:
            document = cache.get(key)
            assert document is not None
            assert document["status"] == "ok"

    def test_clear_during_concurrent_clear_is_tolerated(self, tmp_path):
        # Both interpreters clear the same directory at once; both must
        # exit cleanly and the post-condition (no entries) holds.
        seed = ResultCache(tmp_path)
        for index in range(20):
            seed.put(f"key{index}", {"status": "ok", "n": index})
        script = (
            "import sys\nfrom repro.engine import ResultCache\n"
            "ResultCache(sys.argv[1]).clear()\nprint('cleared')\n"
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for process in workers:
            out, err = process.communicate(timeout=60)
            assert process.returncode == 0, err
            assert out.strip() == "cleared"
        assert len(ResultCache(tmp_path)) == 0
