"""Shared fixtures: small boards and designs used across the test suite."""

from __future__ import annotations

import pytest

from repro.arch import BankType, Board, hierarchical_board, virtex_board
from repro.design import ConflictSet, DataStructure, Design, fir_filter_design


@pytest.fixture
def paper_example_bank() -> BankType:
    """The bank type of the Figure 2 / Section 4.1.1 worked example.

    Three ports, four depth/width configurations (128x1, 64x2, 32x4, 16x8),
    128-bit capacity per instance.
    """
    return BankType(
        name="example-3port",
        num_instances=20,
        num_ports=3,
        configurations=[(128, 1), (64, 2), (32, 4), (16, 8)],
        read_latency=1,
        write_latency=1,
        pins_traversed=0,
    )


@pytest.fixture
def blockram_like() -> BankType:
    """A dual-ported on-chip type with the Virtex BlockRAM configurations."""
    return BankType(
        name="blockram",
        num_instances=16,
        num_ports=2,
        configurations=[(4096, 1), (2048, 2), (1024, 4), (512, 8), (256, 16)],
        read_latency=1,
        write_latency=1,
        pins_traversed=0,
    )


@pytest.fixture
def sram_like() -> BankType:
    """A single-ported off-chip SRAM type with one fixed configuration."""
    return BankType(
        name="sram",
        num_instances=4,
        num_ports=1,
        configurations=[(16384, 32)],
        read_latency=2,
        write_latency=2,
        pins_traversed=2,
    )


@pytest.fixture
def two_type_board(blockram_like, sram_like) -> Board:
    """A minimal hierarchical board: fast small on-chip + slow large off-chip."""
    return Board(name="two-type", bank_types=(blockram_like, sram_like))


@pytest.fixture
def small_design() -> Design:
    """A small hand-written design that fits comfortably on two_type_board."""
    structures = (
        DataStructure("coeffs", 64, 8),
        DataStructure("samples", 512, 16),
        DataStructure("window", 1024, 8),
        DataStructure("table", 256, 4),
        DataStructure("frame", 8192, 16),
    )
    return Design(
        name="small",
        data_structures=structures,
        conflicts=ConflictSet.all_pairs(structures),
    )


@pytest.fixture
def default_board() -> Board:
    """The hierarchical example board used by the example scripts."""
    return hierarchical_board()


@pytest.fixture
def virtex_only_board() -> Board:
    return virtex_board(device="XCV300", num_srams=2)


@pytest.fixture
def dying_worker(monkeypatch, tmp_path):
    """Make engine workers run ``worker_faults.dying_payload``; returns a job builder.

    ``jobs(die=True, always=False)`` gives two distinct jobs: with ``die``
    the first kills its worker once (every time with ``always``), while
    the second naps long enough to be in flight when it does.  Pools must
    fork, so that the workers inherit the patch.
    """
    import repro.engine.engine as engine_module
    from repro.engine import MappingJob
    from worker_faults import dying_payload

    monkeypatch.setattr(engine_module, "execute_payload", dying_payload)

    def jobs(die=True, always=False):
        return [
            MappingJob(
                board=virtex_board("XCV1000"), design=fir_filter_design(),
                solver="bnb-pure", label=f"job-{index}",
                # ``n`` keeps the payloads distinct, so the jobs are not
                # coalesced and genuinely run on the pool.
                solver_options={
                    "die_once": str(tmp_path / "died") if die and index == 0 else "",
                    "die_always": die and always and index == 0,
                    "nap": 0.0 if index == 0 else 0.5,
                    "n": index,
                },
            )
            for index in range(2)
        ]

    return jobs
