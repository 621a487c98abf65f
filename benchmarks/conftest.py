"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing, each module renders its table/series as plain text
and stores it under ``benchmarks/results/`` so the regenerated artefacts can
be inspected (and diffed against EXPERIMENTS.md) after a run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.ilp import scipy_backend

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def scipy_loaded() -> None:
    """Benchmarks time solver calls: import SciPy before the first timer
    starts, not inside the first HiGHS solve."""
    scipy_backend.load()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to stdout."""
    path = results_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")
