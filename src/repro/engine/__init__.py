"""Parallel batch-mapping engine: jobs, results, caching, execution.

The engine is the service layer over the paper's mapping flow: it accepts
batches of (board, design, weights) jobs, fans them out over worker
processes with deterministic result ordering, records structured
:class:`JobResult` outcomes, and memoizes finished work in an on-disk
cache keyed by a canonical content hash of each job's inputs.
"""

from .cache import ResultCache, canonical_hash, canonical_json, result_fingerprint
from .engine import MappingEngine, execute_payload
from .jobs import (
    MODE_COMPLETE,
    MODE_FAST,
    MODE_PIPELINE,
    STATUS_ERROR,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    JobResult,
    MappingJob,
    payload_cache_key,
)

__all__ = [
    "MappingEngine",
    "MappingJob",
    "JobResult",
    "payload_cache_key",
    "execute_payload",
    "ResultCache",
    "canonical_hash",
    "canonical_json",
    "result_fingerprint",
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "MODE_PIPELINE",
    "MODE_COMPLETE",
    "MODE_FAST",
]
