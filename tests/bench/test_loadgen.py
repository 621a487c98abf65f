"""Tests of the open-loop traffic schedule and of runs against one server."""

from __future__ import annotations

import asyncio
import threading
from dataclasses import replace

import pytest

from repro.arch import virtex_board
from repro.design import fir_filter_design, matrix_multiply_design
from repro.bench.loadgen import LoadgenConfig, build_schedule, run_loadgen
from repro.engine import MappingEngine, MappingJob
from repro.io.serve import JobSubmission
from repro.serve import MappingServer, MappingService, ServeClient


def templates():
    board = virtex_board("XCV1000")
    return [
        JobSubmission.from_objects(board, fir_filter_design(),
                                   solver="bnb-pure", label="fir"),
        JobSubmission.from_objects(board, matrix_multiply_design(),
                                   solver="bnb-pure", label="mm"),
    ]


def config(**overrides) -> LoadgenConfig:
    defaults = dict(
        url="http://127.0.0.1:0",
        templates=templates(),
        duration_s=20.0,
        rate=10.0,
        seed=7,
    )
    defaults.update(overrides)
    return LoadgenConfig(**defaults)


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        first = build_schedule(config())
        second = build_schedule(config())
        assert first == second

    def test_different_seed_different_arrival_times(self):
        first = build_schedule(config(seed=1))
        second = build_schedule(config(seed=2))
        assert [a.at for a in first] != [a.at for a in second]

    def test_arrivals_are_ordered_and_inside_the_window(self):
        schedule = build_schedule(config())
        times = [a.at for a in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < 20.0 for t in times)

    def test_uniform_arrivals_are_evenly_spaced(self):
        schedule = build_schedule(config(arrival="uniform", rate=4.0))
        gaps = {
            round(b.at - a.at, 9)
            for a, b in zip(schedule, schedule[1:])
        }
        assert gaps == {round(1.0 / 4.0, 9)}

    def test_open_loop_rate_is_roughly_respected(self):
        # Open-loop means the schedule length tracks rate * duration, not
        # anything the server does.
        schedule = build_schedule(config(rate=10.0, duration_s=20.0))
        assert 120 <= len(schedule) <= 280  # ~200 expected


class TestTrafficMix:
    def test_duplicates_resend_an_earlier_submission_verbatim(self):
        schedule = build_schedule(config(duplicate_ratio=0.5))
        by_index = {a.index: a for a in schedule}
        duplicates = [a for a in schedule if a.duplicate_of is not None]
        assert duplicates, "a 0.5 duplicate ratio must produce duplicates"
        for twin in duplicates:
            original = by_index[twin.duplicate_of]
            assert twin.duplicate_of < twin.index
            assert twin.submission == original.submission

    def test_zero_duplicate_ratio_produces_only_fresh_arrivals(self):
        schedule = build_schedule(config(duplicate_ratio=0.0))
        assert all(a.duplicate_of is None for a in schedule)
        labels = [a.submission.label for a in schedule]
        assert len(set(labels)) == len(labels)  # per-arrival labels

    def test_fast_mix_applies(self):
        schedule = build_schedule(config(duplicate_ratio=0.0, fast_ratio=0.4))
        fast = [a for a in schedule if a.submission.mode == "fast"]
        assert fast
        assert len(fast) < len(schedule)

    def test_mix_ratios_default_off(self):
        schedule = build_schedule(config(duplicate_ratio=0.0))
        assert all(a.submission.mode == "pipeline" for a in schedule)
        assert all(a.submission.priority == 0 for a in schedule)


class TestBurstyArrivals:
    def test_bursty_concentrates_arrivals_in_on_windows(self):
        schedule = build_schedule(config(
            arrival="bursty", rate=8.0, burst_factor=4.0, burst_period_s=2.0,
        ))
        on = [a for a in schedule if (a.at % 2.0) < 1.0]
        off = [a for a in schedule if (a.at % 2.0) >= 1.0]
        assert len(on) > 0
        # The off half of every period is silent by construction.
        assert len(off) == 0


class TestValidation:
    def test_empty_templates_are_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(config(templates=[]))

    def test_unknown_arrival_process_is_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(config(arrival="fractal"))


@pytest.fixture
def server_url():
    """One ``repro serve``-style server on an ephemeral port."""
    server = MappingServer(MappingService(jobs=1, max_batch=4), port=0)
    started = threading.Event()

    def run():
        async def main():
            await server.start()
            started.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    yield server.url
    ServeClient(server.url).shutdown()
    thread.join(10)
    assert not thread.is_alive(), "the server never stopped"


def short_run(url, **overrides) -> LoadgenConfig:
    return config(url=url, duration_s=1.0, rate=8.0, workers=4,
                  wait_timeout=60.0, **overrides)


class TestRunAgainstOneServer:
    def test_every_arrival_completes_with_the_engine_fingerprints(self, server_url):
        report = run_loadgen(short_run(server_url, duplicate_ratio=0.5))
        assert report["kind"] == "loadgen_report"
        assert report["scheduled"] > 0
        assert report["completed"] == report["ok"] == report["scheduled"]
        assert report["errors"] == 0
        assert report["fingerprint_conflicts"] == 0
        assert report["deduped"] + report["cache_hits"] > 0
        board = virtex_board("XCV1000")
        direct = {
            result.fingerprint
            for result in MappingEngine(jobs=1).run([
                MappingJob(board=board, design=design, solver="bnb-pure")
                for design in (fir_filter_design(), matrix_multiply_design())
            ])
        }
        assert 1 <= report["unique_cache_keys"] <= 2
        assert set(report["fingerprints"].values()) <= direct
        assert [job["index"] for job in report["jobs"]] == list(
            range(report["scheduled"])
        )

    def test_fast_arrivals_are_served_under_their_own_keys(self, server_url):
        report = run_loadgen(
            short_run(server_url, duplicate_ratio=0.0, fast_ratio=0.5)
        )
        assert report["errors"] == 0 and report["fingerprint_conflicts"] == 0
        modes = {job["mode"] for job in report["jobs"]}
        assert modes == {"fast", "pipeline"}
        keys = {(job["mode"], job["cache_key"]) for job in report["jobs"]}
        assert len({key for _, key in keys}) == len(keys)

    def test_refused_submissions_are_counted_as_errors(self, server_url):
        refused = [replace(entry, solver="definitely-not-registered")
                   for entry in templates()]
        report = run_loadgen(short_run(server_url, templates=refused))
        assert report["scheduled"] > 0
        assert report["errors"] == report["scheduled"]
        assert report["completed"] == 0
        assert all(job["outcome"] == "error" for job in report["jobs"])


def test_unreachable_server_counts_every_arrival_as_an_error():
    report = run_loadgen(
        replace(short_run("http://127.0.0.1:1"), connect_timeout=0.5)
    )
    assert report["scheduled"] > 0
    assert report["errors"] == report["scheduled"]
    assert report["fingerprints"] == {}
