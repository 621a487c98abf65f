"""Unit tests of the serving job queue: priorities, cancellation and batching."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import JobQueue, QueuedTicket


def ticket(job_id: str, priority: int = 0) -> QueuedTicket:
    return QueuedTicket(
        job_id=job_id,
        mapping_job=None,
        cache_key=f"key-{job_id}",
        priority=priority,
    )


def pop(queue: JobQueue) -> QueuedTicket:
    return asyncio.run(queue.get())


class TestPriorities:
    def test_higher_priority_pops_first(self):
        queue = JobQueue()
        queue.put(ticket("low", priority=0))
        queue.put(ticket("high", priority=5))
        queue.put(ticket("mid", priority=2))
        assert [pop(queue).job_id for _ in range(3)] == ["high", "mid", "low"]

    def test_equal_priorities_keep_submission_order(self):
        queue = JobQueue()
        for name in ["a", "b", "c"]:
            queue.put(ticket(name, priority=1))
        assert [pop(queue).job_id for _ in range(3)] == ["a", "b", "c"]

    def test_get_waits_for_a_put(self):
        async def scenario():
            queue = JobQueue()

            async def feed():
                await asyncio.sleep(0.02)
                queue.put(ticket("late"))

            feeder = asyncio.ensure_future(feed())
            got = await asyncio.wait_for(queue.get(), timeout=2.0)
            await feeder
            return got.job_id

        assert asyncio.run(scenario()) == "late"

    def test_get_nowait_returns_none_when_empty(self):
        assert JobQueue().get_nowait() is None

    def test_depth_counts_live_tickets_only(self):
        queue = JobQueue()
        queue.put(ticket("a"))
        queue.put(ticket("b"))
        assert queue.depth == 2
        queue.cancel("a")
        assert queue.depth == 1
        assert len(queue) == 2  # still physically present until popped


class TestCancellation:
    def test_cancel_marks_ticket_and_reports_success(self):
        queue = JobQueue()
        queue.put(ticket("a"))
        assert queue.cancel("a") is True
        assert queue.find("a").cancelled

    def test_cancel_unknown_or_repeated_returns_false(self):
        queue = JobQueue()
        assert queue.cancel("ghost") is False
        queue.put(ticket("a"))
        assert queue.cancel("a") is True
        assert queue.cancel("a") is False

    def test_cancelled_ticket_still_pops_for_discarding(self):
        queue = JobQueue()
        queue.put(ticket("a"))
        queue.cancel("a")
        popped = pop(queue)
        assert popped.job_id == "a" and popped.cancelled


class TestReprioritize:
    def test_promotion_moves_a_ticket_ahead(self):
        queue = JobQueue()
        queue.put(ticket("a", priority=0))
        queue.put(ticket("b", priority=3))
        assert queue.reprioritize("a", 5) is True
        assert queue.find("a").priority == 5
        assert [pop(queue).job_id for _ in range(2)] == ["a", "b"]

    def test_demotion_is_refused(self):
        queue = JobQueue()
        queue.put(ticket("a", priority=5))
        assert queue.reprioritize("a", 1) is False
        assert queue.find("a").priority == 5

    def test_unknown_or_cancelled_tickets_are_refused(self):
        queue = JobQueue()
        assert queue.reprioritize("ghost", 9) is False
        queue.put(ticket("a"))
        queue.cancel("a")
        assert queue.reprioritize("a", 9) is False

    def test_superseded_entry_is_not_popped_twice(self):
        queue = JobQueue()
        queue.put(ticket("a", priority=0))
        queue.put(ticket("b", priority=1))
        queue.reprioritize("a", 9)
        popped = [pop(queue).job_id for _ in range(2)]
        assert popped == ["a", "b"]
        assert queue.get_nowait() is None


class TestTicketBookkeeping:
    def test_job_ids_lists_primary_then_followers(self):
        t = ticket("primary")
        t.followers.extend(["f1", "f2"])
        assert t.job_ids() == ["primary", "f1", "f2"]

    def test_find_forgets_popped_tickets(self):
        queue = JobQueue()
        queue.put(ticket("a"))
        assert queue.find("a") is not None
        pop(queue)
        assert queue.find("a") is None


@pytest.mark.parametrize("max_batch", [0, -1])
def test_batcher_rejects_bad_max_batch(max_batch):
    from repro.serve import MappingService

    with pytest.raises(ValueError):
        MappingService(max_batch=max_batch)


def collect(queue: JobQueue, limit: int):
    return asyncio.run(asyncio.wait_for(queue.get_batch(limit), timeout=5.0))


class TestGetBatch:
    """Backlog batching: ``get_batch`` ships what is queued, capped and in order."""

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
