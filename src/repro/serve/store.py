"""Result store of the mapping serve tier.

Finished results are kept under their canonical cache key (the engine's
:func:`~repro.engine.jobs.payload_cache_key`) in two tiers:

* an **in-memory LRU** of serialised :class:`~repro.engine.jobs.JobResult`
  documents, answering repeat submissions without touching the engine at
  all, and
* the engine's **on-disk** :class:`~repro.engine.cache.ResultCache` — a
  restart-surviving tier whose key space is *shared*: with the ``repro
  batch`` CLI, and across every replica of a sharded deployment pointed
  at the same cache directory.  A job solved by any of them is a disk
  hit for all of them, which is what makes cross-shard dedupe work when
  the router re-hashes traffic onto a different replica.

The store only ever holds *terminal, deterministic* outcomes (``ok`` and
``failed``); timeouts and crashes are never memoized.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..engine.cache import ResultCache
from ..engine.jobs import STATUS_FAILED, STATUS_OK

__all__ = ["ResultStore"]

#: Tier names returned by :meth:`ResultStore.lookup`.
TIER_MEMORY = "memory"
TIER_DISK = "disk"


class ResultStore:
    """In-memory LRU of result documents over an optional disk tier."""

    def __init__(
        self,
        memory_entries: int = 256,
        disk: Optional[ResultCache] = None,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.memory_entries = memory_entries
        self.disk = disk
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._memory)

    def lookup(self, key: str) -> Tuple[Optional[Dict[str, Any]], str]:
        """Return ``(document, tier)`` for ``key``; ``(None, "")`` on a miss.

        Memory first; on a memory miss the disk tier is consulted too —
        that is the admission-time path that turns work finished by a
        *different* process (a batch CLI run, another replica on the same
        cache directory) into an immediate answer instead of a queued
        solve.  Disk hits are promoted into memory.
        """
        document = self._memory.get(key)
        if document is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return document, TIER_MEMORY
        if self.disk is not None:
            document = self.disk.get(key)
            if document is not None and document.get("status") in (
                STATUS_OK,
                STATUS_FAILED,
            ):
                self.disk_hits += 1
                self._remember(key, document)
                return document, TIER_DISK
        self.misses += 1
        return None, ""

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The memoized result document for ``key`` (any tier), or ``None``."""
        return self.lookup(key)[0]

    def put(self, key: str, document: Dict[str, Any]) -> bool:
        """Memoize a finished job's serialised result document.

        Returns ``True`` when stored; non-deterministic outcomes
        (timeout, crash) are refused so a transiently broken job is
        re-attempted on resubmission.  The disk tier needs no write here:
        the engine stores every result it solves under the same key.
        """
        if document.get("status") not in (STATUS_OK, STATUS_FAILED):
            return False
        self._remember(key, document)
        return True

    def _remember(self, key: str, document: Dict[str, Any]) -> None:
        self._memory[key] = document
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def stats(self) -> Dict[str, Any]:
        return {
            "memory_entries": len(self._memory),
            "memory_capacity": self.memory_entries,
            "memory_hits": self.hits,
            "memory_misses": self.misses,
            "store_disk_hits": self.disk_hits,
            "disk": self.disk.stats() if self.disk is not None else None,
        }
