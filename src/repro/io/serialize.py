"""JSON (de)serialisation of boards, designs and mapping results.

A memory mapper is only usable as a tool if its inputs and outputs can be
exchanged with the rest of a synthesis flow.  This module defines a small,
versioned JSON schema for the three artefact kinds the library consumes and
produces:

* **boards** — bank types with instances/ports/configurations/latencies/pins,
* **designs** — data structures with optional access counts, lifetimes and
  conflict pairs,
* **mapping results** — the global assignment, the cost breakdown and every
  placed fragment of the detailed mapping.

Boards and designs are read and written (``*_to_dict`` / ``*_from_dict``,
``load_board`` / ``load_design``); mapping results and scenario grids are
only written.  ``save_json`` / ``load_json`` are the file helpers.
Round-tripping a board or design through the schema reproduces an equal
object; the test suite pins this down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from ..arch.bank import BankType, MemoryConfig
from ..arch.board import Board
from ..core.mapping import DetailedMapping, GlobalMapping, MappingResult
from ..design.conflicts import ConflictSet
from ..design.datastruct import DataStructure
from ..design.design import Design

__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "board_to_dict",
    "board_from_dict",
    "design_to_dict",
    "design_from_dict",
    "global_mapping_to_dict",
    "detailed_mapping_to_dict",
    "mapping_result_to_dict",
    "scenario_grid_to_dict",
    "save_json",
    "load_json",
    "load_board",
    "load_design",
]

#: Version tag embedded in every serialised document.
SCHEMA_VERSION = 1


class SerializationError(ValueError):
    """Raised when a document cannot be interpreted."""


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    try:
        return mapping[key]
    except KeyError:
        raise SerializationError(f"{context}: missing required field {key!r}")


def _check_kind(data: Mapping[str, Any], expected: str) -> None:
    kind = data.get("kind")
    if kind != expected:
        raise SerializationError(
            f"expected a {expected!r} document, got kind={kind!r}"
        )
    version = data.get("schema_version", SCHEMA_VERSION)
    if int(version) > SCHEMA_VERSION:
        raise SerializationError(
            f"document uses schema version {version}, this library supports "
            f"up to {SCHEMA_VERSION}"
        )


# ---------------------------------------------------------------------------
# Boards
# ---------------------------------------------------------------------------

def board_to_dict(board: Board) -> Dict[str, Any]:
    """Serialise a :class:`Board` into a JSON-compatible dictionary."""
    return {
        "kind": "board",
        "schema_version": SCHEMA_VERSION,
        "name": board.name,
        "clock_ns": board.clock_ns,
        "bank_types": [
            {
                "name": bank.name,
                "family": bank.family,
                "num_instances": bank.num_instances,
                "num_ports": bank.num_ports,
                "configurations": [
                    {"depth": c.depth, "width": c.width} for c in bank.configurations
                ],
                "read_latency": bank.read_latency,
                "write_latency": bank.write_latency,
                "pins_traversed": bank.pins_traversed,
            }
            for bank in board.bank_types
        ],
    }


def board_from_dict(data: Mapping[str, Any]) -> Board:
    """Rebuild a :class:`Board` from :func:`board_to_dict` output."""
    _check_kind(data, "board")
    bank_types = []
    for entry in _require(data, "bank_types", "board"):
        configs = tuple(
            MemoryConfig(int(c["depth"]), int(c["width"]))
            for c in _require(entry, "configurations", "bank type")
        )
        bank_types.append(
            BankType(
                name=_require(entry, "name", "bank type"),
                family=entry.get("family", ""),
                num_instances=int(_require(entry, "num_instances", "bank type")),
                num_ports=int(_require(entry, "num_ports", "bank type")),
                configurations=configs,
                read_latency=int(entry.get("read_latency", 1)),
                write_latency=int(entry.get("write_latency", 1)),
                pins_traversed=int(entry.get("pins_traversed", 0)),
            )
        )
    return Board(
        name=_require(data, "name", "board"),
        bank_types=tuple(bank_types),
        clock_ns=float(data.get("clock_ns", 20.0)),
    )


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

def design_to_dict(design: Design) -> Dict[str, Any]:
    """Serialise a :class:`Design` into a JSON-compatible dictionary."""
    return {
        "kind": "design",
        "schema_version": SCHEMA_VERSION,
        "name": design.name,
        "data_structures": [
            {
                "name": ds.name,
                "depth": ds.depth,
                "width": ds.width,
                "reads": ds.reads,
                "writes": ds.writes,
                "lifetime": list(ds.lifetime) if ds.lifetime is not None else None,
            }
            for ds in design.data_structures
        ],
        "conflicts": [list(pair) for pair in design.conflicts],
    }


def design_from_dict(data: Mapping[str, Any]) -> Design:
    """Rebuild a :class:`Design` from :func:`design_to_dict` output."""
    _check_kind(data, "design")
    structures = []
    for entry in _require(data, "data_structures", "design"):
        lifetime = entry.get("lifetime")
        structures.append(
            DataStructure(
                name=_require(entry, "name", "data structure"),
                depth=int(_require(entry, "depth", "data structure")),
                width=int(_require(entry, "width", "data structure")),
                reads=entry.get("reads"),
                writes=entry.get("writes"),
                lifetime=tuple(lifetime) if lifetime is not None else None,
            )
        )
    conflicts = ConflictSet.from_pairs(data.get("conflicts", []))
    return Design(
        name=_require(data, "name", "design"),
        data_structures=tuple(structures),
        conflicts=conflicts,
    )


# ---------------------------------------------------------------------------
# Mapping results
# ---------------------------------------------------------------------------

def global_mapping_to_dict(mapping: GlobalMapping) -> Dict[str, Any]:
    return {
        "kind": "global_mapping",
        "schema_version": SCHEMA_VERSION,
        "design": mapping.design_name,
        "board": mapping.board_name,
        "assignment": dict(mapping.assignment),
        "objective": mapping.objective,
        "solver_status": mapping.solver_status,
        "solve_time": mapping.solve_time,
        "cost": mapping.cost.as_dict() if mapping.cost is not None else None,
    }


def detailed_mapping_to_dict(detailed: DetailedMapping) -> Dict[str, Any]:
    return {
        "kind": "detailed_mapping",
        "schema_version": SCHEMA_VERSION,
        "design": detailed.design_name,
        "board": detailed.board_name,
        "placements": [
            {
                "structure": placement.structure,
                "region": placement.fragment.region,
                "grid": [placement.fragment.row, placement.fragment.col],
                "config": {
                    "depth": placement.fragment.config.depth,
                    "width": placement.fragment.config.width,
                },
                "words": placement.fragment.words,
                "allocated_words": placement.fragment.allocated_words,
                "width_bits": placement.fragment.width_bits,
                "word_offset": placement.fragment.word_offset,
                "bit_offset": placement.fragment.bit_offset,
                "bank_type": placement.bank_type,
                "instance": placement.instance,
                "ports": list(placement.ports),
                "base_word": placement.base_word,
            }
            for placement in detailed.placements
        ],
    }


def mapping_result_to_dict(result: MappingResult) -> Dict[str, Any]:
    """Serialise a full :class:`MappingResult` (both stages plus costs)."""
    return {
        "kind": "mapping_result",
        "schema_version": SCHEMA_VERSION,
        "design": design_to_dict(result.design),
        "board": board_to_dict(result.board),
        "global_mapping": global_mapping_to_dict(result.global_mapping),
        "detailed_mapping": detailed_mapping_to_dict(result.detailed_mapping),
        "cost": result.cost.as_dict(),
        "global_time": result.global_time,
        "detailed_time": result.detailed_time,
        "retries": result.retries,
        "solve_stats": dict(result.solve_stats),
    }


# ---------------------------------------------------------------------------
# Scenario grids (the explore subsystem)
# ---------------------------------------------------------------------------

def scenario_grid_to_dict(grid: "ScenarioGrid") -> Dict[str, Any]:
    """Serialise a :class:`repro.explore.ScenarioGrid` (sweeps and axes)."""
    return {
        "kind": "scenario_grid",
        "schema_version": SCHEMA_VERSION,
        **grid.to_dict(),
    }


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

PathLike = Union[str, Path]


def save_json(document: Mapping[str, Any], path: PathLike) -> Path:
    """Write a serialised document to ``path`` (pretty-printed JSON)."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return path


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a JSON document from ``path``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from exc


def load_board(path: PathLike) -> Board:
    """Load a board description from a JSON file."""
    return board_from_dict(load_json(path))


def load_design(path: PathLike) -> Design:
    """Load a design description from a JSON file."""
    return design_from_dict(load_json(path))
