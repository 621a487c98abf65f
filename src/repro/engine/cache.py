"""Canonical hashing and the on-disk result cache of the mapping engine.

Cache keys are content hashes of the *inputs* of a mapping job — the
serialised board and design (via :mod:`repro.io.serialize`), the objective
weights, the solver backend and its options — so any process that builds
the same job computes the same key.  Canonicalisation is plain JSON with
sorted keys and fixed separators; no pickle, no interning, no per-process
salt, which is what makes the keys stable across interpreter runs (the
test suite pins this by hashing in a subprocess).

The cache itself is a flat directory of ``<key>.json`` files holding
serialised :class:`repro.engine.jobs.JobResult` documents.  Writes go
through a temporary file plus :func:`os.replace` so concurrent engine
workers can never observe a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

__all__ = [
    "canonical_json",
    "canonical_hash",
    "result_fingerprint",
    "ResultCache",
]

#: Bump when the cached document layout changes incompatibly; old entries
#: then simply miss instead of being misread.
CACHE_SCHEMA_VERSION = 1

#: How many bounded-cache puts may rely on the incremental entry counter
#: before it is re-derived from the directory (multi-writer drift bound).
_RESYNC_PUTS = 256

#: Keys stripped (recursively) before fingerprinting a result document.
#: Everything timing- or machine-dependent lives under these names, so two
#: runs of the same job — serial or parallel, any worker count — produce
#: the same fingerprint exactly when they produce the same mapping.
_NONDETERMINISTIC_KEYS = frozenset(
    {"global_time", "detailed_time", "solve_time", "wall_time", "solver_stats",
     # solver work counters vary with warm starts and worker scheduling
     # while the mapping itself stays identical.
     "solve_stats"}
)


def canonical_json(document: Any) -> str:
    """Serialise ``document`` to a canonical JSON string (sorted, compact)."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def canonical_hash(document: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``document``."""
    return hashlib.sha256(canonical_json(document).encode("ascii")).hexdigest()


#: Leaf types returned as they are, without walking.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _strip_nondeterministic(value: Any) -> Any:
    # Exact-type dispatch first: result documents are plain JSON trees,
    # and an ``isinstance`` check against the ``Mapping`` ABC on every
    # leaf costs more than the rest of the walk.
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list or kind is tuple:
        return [_strip_nondeterministic(v) for v in value]
    if kind is dict or isinstance(value, Mapping):
        return {
            k: _strip_nondeterministic(v)
            for k, v in value.items()
            if k not in _NONDETERMINISTIC_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_strip_nondeterministic(v) for v in value]
    return value


def result_fingerprint(document: Optional[Mapping[str, Any]]) -> Optional[str]:
    """Deterministic hash of a result document, ignoring timing fields.

    Two mapping runs get the same fingerprint iff they produced the same
    assignment, placement and cost — regardless of how long any solver
    took or which worker executed them.  The batch CLI and the engine
    tests use this to assert that parallel execution is bit-for-bit
    equivalent to serial execution.
    """
    if document is None:
        return None
    return canonical_hash(_strip_nondeterministic(document))


class ResultCache:
    """Directory-backed store of finished job results, keyed by input hash.

    With ``max_entries`` set the cache is bounded: every write trims the
    directory back to the newest ``max_entries`` files (by modification
    time), so a long-lived service can cache forever without growing an
    unbounded result directory.  Unbounded (the default) preserves the
    historical sweep-cache behaviour.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Approximate entry count, maintained incrementally so the
        #: bounded-cache hot path does not scan the directory on every
        #: put; ``trim`` re-derives the exact number when it runs.  The
        #: counter only sees *this* process's writes, so with several
        #: writers sharing the directory (``repro serve`` beside ``repro
        #: batch`` runs) it drifts low; every :data:`_RESYNC_PUTS` puts it
        #: is re-derived from the directory so a bounded cache still trims
        #: under multi-process load.
        self._approx_entries: Optional[int] = None
        self._puts_since_resync = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached document for ``key`` or ``None`` on a miss.

        A corrupt entry — truncated write, non-JSON bytes, JSON of the
        wrong shape, or an unreadable file — is treated as a plain miss,
        never an error: the caller simply re-executes the job and the next
        ``put`` overwrites the bad file.
        """
        path = self.path_for(key)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            return None
        if (
            not isinstance(document, dict)
            or document.get("cache_schema_version") != CACHE_SCHEMA_VERSION
            or not isinstance(document.get("result"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return document["result"]

    def put(self, key: str, document: Mapping[str, Any]) -> Path:
        """Store ``document`` under ``key`` atomically."""
        payload = {
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "result": dict(document),
        }
        path = self.path_for(key)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=".cache-", suffix=".tmp"
            )
        except FileNotFoundError:
            # Another process (a concurrent ``clear`` + rmdir, a test
            # fixture teardown) removed the directory between our mkdir
            # and this write; recreate and retry once.
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=".cache-", suffix=".tmp"
            )
        is_new = not path.exists()
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if is_new and self._approx_entries is not None:
            self._approx_entries += 1
        if self.max_entries is not None:
            self._puts_since_resync += 1
            if self._puts_since_resync >= _RESYNC_PUTS:
                self._puts_since_resync = 0
                self._approx_entries = None  # re-derive on the next check
        if self.max_entries is not None and self._entry_count() > self.max_entries:
            # Directory scans are O(entries): only trim when the running
            # count says the bound was actually crossed.
            self.trim(self.max_entries)
        return path

    def _entry_count(self) -> int:
        """Entry count from the incremental counter (one scan to seed it)."""
        if self._approx_entries is None:
            self._approx_entries = len(self)
        return self._approx_entries

    def trim(self, max_entries: int) -> int:
        """Evict the oldest entries until at most ``max_entries`` remain.

        Age is modification time (a ``put`` refreshes it), oldest first
        with the file name as a deterministic tie-break.  Returns the
        number of entries removed; files deleted concurrently by another
        process are simply skipped.
        """
        entries = []
        for path in self.directory.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue
        removed = 0
        if len(entries) <= max_entries:
            self._approx_entries = len(entries)
            return removed
        entries.sort()
        for _, _, path in entries[: len(entries) - max_entries]:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self.evictions += removed
        self._approx_entries = len(entries) - removed
        return removed

    def keys(self) -> Iterable[str]:
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed.

        Entries unlinked concurrently by another process sharing the
        directory (another process's ``trim``, a parallel ``clear``)
        are skipped, not errors: the post-condition — no entries left —
        holds either way.
        """
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self._approx_entries = 0
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        # The entry count comes from the incremental counter, not a
        # directory glob: a long-lived server reports this on every
        # health poll and must not pay O(entries) for it.
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self._entry_count(),
            "evictions": self.evictions,
        }
