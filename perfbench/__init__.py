"""The repository's benchmark: ``table3``, ``sweep`` and ``serve`` workloads (see README.md)."""
