"""Router tests: consistent hashing, admission control, replica death.

The cluster fixtures boot *real* replica servers (``MappingServer`` over
``MappingService``) on ephemeral ports inside one event loop, sharing
one on-disk cache directory — exactly the deployment shape of
``repro serve --replicas N`` minus the subprocess boundary, so replica
death can be staged deterministically by stopping a chosen server.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.arch import virtex_board
from repro.design import (
    fft_design,
    fir_filter_design,
    matrix_multiply_design,
)
from repro.io.serve import JobSubmission
from repro.serve import HttpError, MappingServer, MappingService
from repro.serve.router import HashRing, RouterService, routing_key


def submission(design=None, **overrides) -> JobSubmission:
    overrides.setdefault("solver", "bnb-pure")
    return JobSubmission.from_objects(
        virtex_board("XCV1000"), design or fir_filter_design(), **overrides
    )


class TestHashRing:
    def test_routing_is_deterministic(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(64)]
        first = [ring.route(key) for key in keys]
        assert first == [ring.route(key) for key in keys]
        assert set(first) == {"a", "b", "c"}

    def test_membership_change_moves_only_some_keys(self):
        # The consistent-hash property: removing one of three members
        # re-routes roughly a third of the key space, never all of it.
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(300)]
        before = {key: ring.route(key) for key in keys}
        ring.remove("b")
        moved = sum(
            1 for key in keys
            if before[key] != ring.route(key) and before[key] != "b"
        )
        assert moved == 0  # surviving members keep every key they owned
        orphans = [key for key in keys if before[key] == "b"]
        assert orphans  # b owned something
        assert all(ring.route(key) in ("a", "c") for key in orphans)

    def test_empty_ring_routes_nowhere(self):
        ring = HashRing()
        assert ring.route("anything") is None
        ring.add("solo")
        assert ring.route("anything") == "solo"
        ring.remove("solo")
        assert ring.route("anything") is None

    def test_spread_over_two_members(self):
        ring = HashRing(["a", "b"])
        targets = {ring.route(f"key-{i}") for i in range(100)}
        assert targets == {"a", "b"}


class TestRoutingKey:
    def test_serving_metadata_does_not_change_the_key(self):
        base = submission(label="x", priority=0)
        twin = submission(label="y", priority=5, deadline_ms=100.0)
        assert routing_key(base) == routing_key(twin)

    def test_job_identity_changes_the_key(self):
        base = submission()
        assert routing_key(base) != routing_key(
            submission(matrix_multiply_design())
        )
        assert routing_key(base) != routing_key(submission(mode="fast"))
        assert routing_key(base) != routing_key(submission(timeout=120.0))


def _hold_dispatch(service) -> asyncio.Event:
    """Keep every submission to ``service`` queued until the gate is set.

    The dispatcher waits on the gate before it collects a batch, so the
    queued tickets stay cancellable and a replica stopped while holding
    them shuts down at once.
    """
    gate = asyncio.Event()
    get_batch = service.queue.get_batch

    async def held(limit):
        await gate.wait()
        return await get_batch(limit)

    service.queue.get_batch = held
    return gate


class _Cluster:
    """N real replica servers + a router, all on one event loop."""

    def __init__(self, cache_dir, count=2, hold=False, **router_config):
        self.cache_dir = cache_dir
        self.count = count
        self.hold = hold
        self.router_config = router_config
        #: replica name -> gate of its held dispatcher (``hold=True``)
        self.gates = {}
        self.services = []
        self.servers = []
        self.router = None

    async def __aenter__(self):
        endpoints = []
        for index in range(1, self.count + 1):
            name = f"replica-{index}"
            service = MappingService(
                jobs=1,
                max_batch=4,
                cache_dir=str(self.cache_dir),
                instance_name=name,
            )
            if self.hold:
                self.gates[name] = _hold_dispatch(service)
            server = MappingServer(service, port=0)
            await server.start()
            self.services.append(service)
            self.servers.append(server)
            endpoints.append((name, server.url))
        self.router_config.setdefault("health_interval", 30.0)
        self.router = RouterService(endpoints, **self.router_config)
        await self.router.start()
        return self

    async def __aexit__(self, *exc):
        await self.router.stop()
        for server in self.servers:
            await server.stop()

    async def kill(self, name: str) -> None:
        """Stop a replica's server: connections now fail like a dead host."""
        index = int(name.rsplit("-", 1)[1]) - 1
        await self.servers[index].stop()

    async def wait_done(self, router_id: str, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while True:
            status = await self.router.status(router_id)
            assert status is not None, f"job {router_id} vanished"
            if status.terminal:
                return status
            assert time.monotonic() < deadline, f"{router_id} never finished"
            await asyncio.sleep(0.02)


class TestRouterEndToEnd:
    def test_batch_shards_dedupes_and_stamps_replicas(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                subs = [
                    submission(fir_filter_design()),
                    submission(fir_filter_design()),
                    submission(matrix_multiply_design()),
                    submission(fft_design()),
                ]
                statuses = await cluster.router.submit_many(subs)
                finals = [
                    await cluster.wait_done(s.job_id) for s in statuses
                ]
                return statuses, finals, cluster.router.counters

        statuses, finals, counters = asyncio.run(scenario())
        assert all(f.state == "done" for f in finals)
        assert all(f.result_status == "ok" for f in finals)
        assert all(f.replica for f in finals)
        # The two identical fir-filter submissions landed on one shard
        # and deduped into one solve there.
        assert finals[0].replica == finals[1].replica
        assert finals[0].fingerprint == finals[1].fingerprint
        assert statuses[1].deduped or finals[1].cache_hit
        assert counters["routed"] == 4

    def test_replica_death_reroutes_without_losing_the_ticket(self, tmp_path):
        async def scenario():
            # Held dispatchers keep the job queued on its shard, so the
            # shard dies while the job is live — the interesting case:
            # the ticket exists nowhere but the router's table.
            async with _Cluster(tmp_path / "cache", hold=True) as cluster:
                status = await cluster.router.submit(submission())
                victim = status.replica
                assert not status.terminal
                # Release every *other* replica so the re-routed job
                # actually solves.
                for name, gate in cluster.gates.items():
                    if name != victim:
                        gate.set()
                await cluster.kill(victim)
                final = await cluster.wait_done(status.job_id)
                return status, final, dict(cluster.router.counters)

        status, final, counters = asyncio.run(scenario())
        assert final.state == "done" and final.result_status == "ok"
        assert final.replica != status.replica  # it moved shards
        assert counters["rehashes"] >= 1
        assert counters["replica_failures"] >= 1
        assert counters["rerouted_jobs"] >= 1

    def test_every_replica_dead_fails_the_job_not_the_router(self, tmp_path):
        async def scenario():
            async with _Cluster(
                tmp_path / "cache", count=1, hold=True
            ) as cluster:
                status = await cluster.router.submit(submission())
                await cluster.kill("replica-1")
                final = await cluster.wait_done(status.job_id)
                with pytest.raises(HttpError) as caught:
                    await cluster.router.submit(submission(fft_design()))
                return final, caught.value

        final, error = asyncio.run(scenario())
        assert final.state == "done" and final.result_status == "error"
        assert "died" in final.error
        assert error.status == 503 and error.code == "NO_REPLICAS"

    def test_cross_shard_duplicates_dedupe_through_the_shared_store(
        self, tmp_path
    ):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                # Solve once through the router...
                status = await cluster.router.submit(submission())
                first = await cluster.wait_done(status.job_id)
                # ...then replay the identical submission directly on
                # every replica, as if it had arrived on the wrong shard:
                # each answers from the shared store without re-solving.
                replays = []
                for service in cluster.services:
                    replay = service.submit(submission())
                    assert replay.terminal and replay.cache_hit
                    replays.append(replay)
                solves = sum(
                    service.counters["result_ok"]
                    for service in cluster.services
                )
                disk_hits = sum(
                    service.counters["disk_hits"]
                    for service in cluster.services
                )
                return first, replays, solves, disk_hits

        first, replays, solves, disk_hits = asyncio.run(scenario())
        assert solves == 1  # one engine solve total, fleet-wide
        assert disk_hits >= 1  # at least one answer crossed shards via disk
        assert all(r.fingerprint == first.fingerprint for r in replays)

    def test_overload_sheds_low_priority_and_backpressures_the_rest(
        self, tmp_path
    ):
        async def scenario():
            # One replica, budget of one: the first job occupies the
            # whole shard (the held dispatcher keeps it in flight).
            async with _Cluster(
                tmp_path / "cache",
                count=1,
                hold=True,
                max_inflight=1,
                shed_priority=0,
                retry_after_ms=125.0,
            ) as cluster:
                first = await cluster.router.submit(submission())
                assert not first.terminal
                with pytest.raises(HttpError) as shed:
                    await cluster.router.submit(
                        submission(fft_design(), priority=-1)
                    )
                with pytest.raises(HttpError) as backpressure:
                    await cluster.router.submit(submission(fft_design()))
                return (
                    shed.value,
                    backpressure.value,
                    dict(cluster.router.counters),
                )

        shed, backpressure, counters = asyncio.run(scenario())
        # Shedding is a structured overload answer, not a timeout.
        assert shed.status == 503 and shed.code == "SHED"
        assert shed.extra.get("replica") == "replica-1"
        assert backpressure.status == 429
        assert backpressure.code == "RETRY_AFTER"
        assert backpressure.extra.get("retry_after_ms") == 125.0
        assert counters["shed"] == 1
        assert counters["backpressure"] == 1

    def test_batch_admission_is_all_or_nothing(self, tmp_path):
        async def scenario():
            async with _Cluster(
                tmp_path / "cache",
                count=1,
                hold=True,
                max_inflight=2,
            ) as cluster:
                # Three distinct jobs over a budget of two: nothing lands.
                with pytest.raises(HttpError) as caught:
                    await cluster.router.submit_many([
                        submission(fir_filter_design()),
                        submission(matrix_multiply_design()),
                        submission(fft_design()),
                    ])
                fleet_submitted = sum(
                    service.counters["submitted"]
                    for service in cluster.services
                )
                # Duplicates share a routing key, count once against the
                # budget, and the batch fits.
                statuses = await cluster.router.submit_many([
                    submission(fir_filter_design()),
                    submission(fir_filter_design()),
                    submission(fir_filter_design()),
                ])
                return caught.value, fleet_submitted, statuses

        error, fleet_submitted, statuses = asyncio.run(scenario())
        assert error.status == 429
        assert fleet_submitted == 0  # no orphan admissions from the refusal
        assert len(statuses) == 3

    def test_router_health_aggregates_the_fleet(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                status = await cluster.router.submit(submission())
                await cluster.wait_done(status.job_id)
                return await cluster.router.health_report()

        report = asyncio.run(scenario())
        assert report.role == "router"
        assert report.status == "ok"
        assert report.replicas is not None and len(report.replicas) == 2
        assert report.details["healthy_replicas"] == 2
        assert set(report.details["ring"]) == {"replica-1", "replica-2"}
        assert report.details["fleet"]["completed"] >= 1
        assert sum(report.details["shard_counts"].values()) == 1
        # The document round-trips through the v1 wire schema.
        from repro.io.serve import HealthReport

        assert HealthReport.from_wire(report.to_wire()) == report
