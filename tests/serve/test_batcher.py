"""Unit tests of backlog batching (``JobQueue.get_batch``)."""

from __future__ import annotations

import asyncio

from repro.serve import JobQueue, QueuedTicket


def ticket(job_id: str, priority: int = 0) -> QueuedTicket:
    return QueuedTicket(
        job_id=job_id, mapping_job=None, cache_key=job_id, priority=priority
    )


def collect(queue: JobQueue, limit: int):
    return asyncio.run(asyncio.wait_for(queue.get_batch(limit), timeout=5.0))


class TestCoalescing:
    def test_everything_already_queued_ships_as_one_batch(self):
        queue = JobQueue()
        for name in ["a", "b", "c"]:
            queue.put(ticket(name))
        batch = collect(queue, limit=8)
        assert [t.job_id for t in batch] == ["a", "b", "c"]

    def test_max_batch_caps_one_collection(self):
        queue = JobQueue()
        for index in range(5):
            queue.put(ticket(f"t{index}"))
        assert len(collect(queue, limit=2)) == 2
        assert len(collect(queue, limit=2)) == 2
        assert len(collect(queue, limit=2)) == 1

    def test_batch_preserves_priority_order(self):
        queue = JobQueue()
        queue.put(ticket("low", priority=0))
        queue.put(ticket("high", priority=9))
        batch = collect(queue, limit=4)
        assert [t.job_id for t in batch] == ["high", "low"]

    def test_waits_for_the_first_ticket(self):
        async def scenario():
            queue = JobQueue()

            async def feed():
                await asyncio.sleep(0.02)
                queue.put(ticket("first"))

            feeder = asyncio.ensure_future(feed())
            batch = await asyncio.wait_for(queue.get_batch(4), timeout=2.0)
            await feeder
            return batch

        batch = asyncio.run(scenario())
        assert [t.job_id for t in batch] == ["first"]
