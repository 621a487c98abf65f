"""Unit tests for BENCH_<name>.json artifact writing."""

from __future__ import annotations

import json

from repro.bench import Table3Harness, batch_artifact, sweep_design_points, write_bench_artifact
from repro.engine import JobResult


def fake_results():
    return [
        JobResult(index=0, label="a", status="ok", objective=1.0, wall_time=0.4),
        JobResult(index=1, label="b", status="ok", objective=2.0, wall_time=0.6,
                  cache_hit=True),
        JobResult(index=2, label="c", status="failed", error="no fit", wall_time=0.2),
    ]


class TestBatchArtifact:
    def test_aggregates_counts_and_speedup(self):
        artifact = batch_artifact("demo", fake_results(), elapsed=0.3, jobs=2,
                                  solver="bnb-pure")
        assert artifact["num_points"] == 3
        assert artifact["num_ok"] == 2
        assert artifact["num_failed"] == 1
        assert artifact["cache_hits"] == 1
        # Cached jobs do not count toward the serial-equivalent time.
        assert artifact["serial_seconds"] == 0.4 + 0.2
        assert artifact["speedup_vs_serial"] == (0.4 + 0.2) / 0.3
        assert len(artifact["results"]) == 3

    def test_is_json_serialisable(self):
        json.dumps(batch_artifact("demo", fake_results(), 0.3, 2, "bnb-pure",
                                  cache_stats={"hits": 1, "misses": 2}))


class TestLatencyPercentiles:
    def test_empty_samples_report_none(self):
        from repro.bench import latency_percentiles

        stats = latency_percentiles([])
        assert stats == {"p50": None, "p90": None, "p99": None,
                         "mean": None, "max": None}

    def test_nearest_rank_on_known_samples(self):
        from repro.bench import latency_percentiles

        stats = latency_percentiles(list(range(1, 101)))  # 1..100
        assert stats["p50"] == 50
        assert stats["p90"] == 90
        assert stats["p99"] == 99
        assert stats["max"] == 100
        assert stats["mean"] == 50.5

    def test_single_sample_is_every_percentile(self):
        from repro.bench import latency_percentiles

        stats = latency_percentiles([42.0])
        assert stats["p50"] == stats["p90"] == stats["p99"] == 42.0

    def test_percentiles_are_observed_values(self):
        from repro.bench import latency_percentiles

        samples = [1.0, 100.0, 5.0]
        stats = latency_percentiles(samples)
        assert stats["p50"] in samples
        assert stats["p99"] in samples


class TestServeArtifact:
    def records(self):
        return [
            {"label": "a", "status": "ok", "latency_ms": 10.0, "solve_ms": 8.0,
             "cache_hit": False, "deduped": False, "fingerprint": "f1"},
            {"label": "b", "status": "ok", "latency_ms": 30.0, "solve_ms": 25.0,
             "cache_hit": False, "deduped": True, "fingerprint": "f1"},
            {"label": "c", "status": "ok", "latency_ms": 2.0, "solve_ms": 0.0,
             "cache_hit": True, "deduped": False, "fingerprint": "f2"},
        ]

    def test_summarises_throughput_and_percentiles(self):
        from repro.bench import serve_artifact

        artifact = serve_artifact(
            records=self.records(), elapsed=2.0, jobs=1, max_batch=4,
            counters={"submitted": 3}, batch_sizes=[2, 1],
        )
        assert artifact["kind"] == "bench_artifact"
        assert artifact["name"] == "serve"
        assert artifact["num_jobs"] == 3
        assert artifact["throughput_jobs_per_s"] == 1.5
        assert artifact["latency_ms"]["p50"] == 10.0
        assert artifact["latency_ms"]["max"] == 30.0
        assert artifact["solve_ms"]["p99"] == 25.0
        assert artifact["batches"] == {"count": 2, "mean_size": 1.5,
                                       "max_size": 2}
        assert artifact["counters"] == {"submitted": 3}

    def test_cumulative_counter_drives_throughput_not_the_window(self):
        # The records list is a bounded recency window; headline numbers
        # must come from the cumulative completed counter.
        from repro.bench import serve_artifact

        artifact = serve_artifact(
            records=self.records(), elapsed=10.0, jobs=1, max_batch=4,
            counters={"completed": 50}, batch_sizes=[],
        )
        assert artifact["num_jobs"] == 50
        assert artifact["throughput_jobs_per_s"] == 5.0
        # Percentiles still describe the window.
        assert artifact["latency_ms"]["p50"] == 10.0

    def test_zero_elapsed_has_no_throughput(self):
        from repro.bench import serve_artifact

        artifact = serve_artifact(
            records=[], elapsed=0.0, jobs=1, max_batch=1, counters={},
            batch_sizes=[],
        )
        assert artifact["throughput_jobs_per_s"] is None
        assert artifact["latency_ms"]["p50"] is None
        assert artifact["batches"]["mean_size"] is None


class TestWriteBenchArtifact:
    def test_writes_named_file(self, tmp_path):
        path = write_bench_artifact("demo", {"kind": "bench_artifact"}, tmp_path)
        assert path.name == "BENCH_demo.json"
        assert json.loads(path.read_text())["kind"] == "bench_artifact"

    def test_creates_directory(self, tmp_path):
        path = write_bench_artifact("demo", {}, tmp_path / "deep" / "dir")
        assert path.exists()


class TestHarnessArtifact:
    def test_table3_run_writes_artifact(self, tmp_path):
        harness = Table3Harness(
            points=sweep_design_points(2),
            solver="bnb-pure",
            time_limit=60,
            run_complete=False,
            artifact_dir=tmp_path,
        )
        rows = harness.run()
        artifact = json.loads((tmp_path / "BENCH_table3.json").read_text())
        assert artifact["name"] == "table3"
        assert artifact["num_points"] == len(rows) == 2
        assert artifact["wall_seconds"] > 0
        assert [r["label"] for r in artifact["results"]] == \
            [row.point.label() for row in rows]
