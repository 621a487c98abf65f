"""Time-indexed DAG-scheduling workload generator.

The paper's workloads are straight-line pipelines whose conflict graphs
are near-complete.  Time-indexed DAG scheduling — the shape studied by
dRMT-style packet-program schedulers, where a DAG of operations is packed
into discrete time slots under per-slot resource capacities — produces a
structurally different mapping instance: a *layered* task DAG is list-
scheduled onto ``slots`` functional units per control step, lifetimes fall
out of the schedule, and the resulting conflict graph is *banded* (buffers
of distant layers never coexist, so they may share storage).  The ILP core
then sees sparse conflict structure, non-trivial clique covers and genuine
sharing opportunities instead of the paper's all-pairs conflicts.

Knobs follow the burst/branch variants of that literature:

* ``depth`` × ``width``: layers of the DAG and base tasks per layer;
* ``burstiness``: 0 keeps every layer at ``width`` tasks; towards 1,
  alternating layers swell and shrink (bursty superscalar phases), which
  stresses the per-slot capacity and widens the lifetime bands;
* ``branch_factor``: share of possible producer→consumer edges between
  adjacent layers that are realised (fan-in/fan-out richness);
* ``slots``: per-step resource capacity of the list scheduler — fewer
  slots stretch the schedule, lengthening lifetimes and re-densifying the
  conflict graph.

Everything is drawn from one seeded generator, so identical parameters
and seed always produce the identical design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..arch.board import Board
from .datastruct import DataStructure, DesignError
from .design import Design
from .taskgraph import Task, TaskGraph

__all__ = ["DagScheduleGenerator"]

#: Word widths typical of intermediate buffers in streaming dataflow code.
_BUFFER_WIDTHS: Tuple[int, ...] = (8, 8, 12, 16, 16, 24, 32)


@dataclass
class DagScheduleGenerator:
    """Reproducible generator of layered DAG-scheduling designs."""

    seed: int = 0
    depth: int = 4
    width: int = 3
    burstiness: float = 0.0
    branch_factor: float = 0.5
    slots: int = 2
    min_words: int = 16
    max_words: int = 2048

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise DesignError("dag-schedule: depth must be at least 1")
        if self.width < 1:
            raise DesignError("dag-schedule: width must be at least 1")
        if not 0.0 <= self.burstiness <= 1.0:
            raise DesignError("dag-schedule: burstiness must lie in [0, 1]")
        if not 0.0 <= self.branch_factor <= 1.0:
            raise DesignError("dag-schedule: branch_factor must lie in [0, 1]")
        if self.slots < 1:
            raise DesignError("dag-schedule: slots must be at least 1")
        if self.min_words <= 0 or self.max_words < self.min_words:
            raise DesignError("dag-schedule: invalid words range")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ api
    def generate(
        self,
        name: Optional[str] = None,
        board: Optional[Board] = None,
        target_occupancy: float = 0.45,
    ) -> Design:
        """Build the layered DAG, schedule it, and derive the design.

        When ``board`` is given the buffer depths are rescaled so the
        design's footprint is roughly ``target_occupancy`` of the board
        capacity, exactly like the synthetic generator does.
        """
        rng = self._rng
        layer_widths = self._layer_widths()

        structures: List[DataStructure] = []
        log_lo = math.log2(self.min_words)
        log_hi = math.log2(self.max_words)

        def new_buffer(layer: int, slot: int) -> DataStructure:
            depth_words = int(2 ** rng.uniform(log_lo, log_hi))
            width_bits = int(rng.choice(_BUFFER_WIDTHS))
            buf = DataStructure(f"l{layer}b{slot}", depth_words, width_bits)
            structures.append(buf)
            return buf

        graph = TaskGraph(name or "dag-schedule")
        previous: List[Tuple[str, str]] = []  # (task name, buffer name)
        for layer, count in enumerate(layer_widths):
            current: List[Tuple[str, str]] = []
            for slot in range(count):
                buf = new_buffer(layer, slot)
                task_name = f"t{layer}_{slot}"
                if previous:
                    # Every task keeps at least one producer so the DAG is
                    # connected; branch_factor adds the rest of the edges.
                    picks = [int(rng.integers(0, len(previous)))]
                    for i in range(len(previous)):
                        if i not in picks and rng.random() < self.branch_factor:
                            picks.append(i)
                    picks.sort()
                    reads = tuple(previous[i][1] for i in picks)
                    deps = [previous[i][0] for i in picks]
                else:
                    reads = ()
                    deps = []
                latency = int(rng.integers(1, 4))
                graph.add_task(
                    Task(task_name, reads=reads, writes=(buf.name,),
                         latency=latency),
                    depends_on=deps,
                )
                current.append((task_name, buf.name))
            previous = current

        if board is not None:
            structures = self._fit_to_board(structures, board, target_occupancy)

        # Resource-constrained list scheduling: the per-slot capacity is
        # what makes the instance "time-indexed" — lifetimes (and hence
        # the conflict bands) come out of the slot-limited schedule.
        return graph.to_design(
            name or f"dag-{self.depth}x{self.width}-seed{self.seed}",
            structures,
            resource_limit=self.slots,
        )

    # ------------------------------------------------------------ internals
    def _layer_widths(self) -> List[int]:
        """Tasks per layer; burstiness swells odd layers and shrinks even ones."""
        widths: List[int] = []
        for layer in range(self.depth):
            if self.burstiness <= 0.0:
                widths.append(self.width)
                continue
            swing = self.burstiness * self.width
            if layer % 2:
                widths.append(max(1, int(round(self.width + swing))))
            else:
                widths.append(max(1, int(round(self.width - swing / 2))))
        return widths

    def _fit_to_board(
        self,
        structures: List[DataStructure],
        board: Board,
        target_occupancy: float,
    ) -> List[DataStructure]:
        if not 0.0 < target_occupancy <= 1.0:
            raise DesignError("target_occupancy must lie in (0, 1]")
        capacity = board.total_capacity_bits
        max_bank_width = max(
            max(config.width for config in bank.configurations) for bank in board
        )
        total = sum(ds.size_bits for ds in structures)
        scale = (target_occupancy * capacity) / max(1, total)
        fitted: List[DataStructure] = []
        for ds in structures:
            width = min(ds.width, max_bank_width * 4)
            depth = max(self.min_words, int(ds.depth * min(scale, 1.0)))
            fitted.append(DataStructure(ds.name, depth, width))
        return fitted

