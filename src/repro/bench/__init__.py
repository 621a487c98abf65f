"""Benchmark harness: Table 3 design points, experiment runner, reporting."""

from .artifacts import (
    batch_artifact,
    explore_artifact,
    latency_percentiles,
    serve_artifact,
    write_bench_artifact,
)
from .designpoints import (
    PAPER_DESIGN_POINTS,
    SCALED_DESIGN_POINTS,
    DesignPoint,
    default_design_points,
    sweep_design_points,
)
from .harness import ExperimentRow, Table3Harness, default_solver_backend
from .reporting import ascii_series, ascii_table, format_seconds

__all__ = [
    "DesignPoint",
    "PAPER_DESIGN_POINTS",
    "SCALED_DESIGN_POINTS",
    "default_design_points",
    "sweep_design_points",
    "ExperimentRow",
    "Table3Harness",
    "default_solver_backend",
    "batch_artifact",
    "explore_artifact",
    "serve_artifact",
    "latency_percentiles",
    "write_bench_artifact",
    "ascii_table",
    "ascii_series",
    "format_seconds",
]
