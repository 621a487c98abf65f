"""Scenario catalog and Pareto design-space exploration.

The subsystem that turns the repository from "reproduce the paper's
tables" into "explore the design space the paper could not": a fixed
catalog of parameterized scenario families (:mod:`repro.explore.scenarios`),
sweep grids over them (:mod:`repro.explore.grid`), a warm-chained
multi-objective explorer (:mod:`repro.explore.explorer`) with Pareto
reduction (:mod:`repro.explore.pareto`) and plain-text reporting
(:mod:`repro.explore.report`).
"""

from .grid import GridSpecError, ScenarioGrid, ScenarioSweep
from .pareto import ParetoAccumulator, dominates, pareto_front, pareto_indices
from .scenarios import (
    ExploreError,
    ParamSpec,
    ScenarioFamily,
    ScenarioParamError,
    ScenarioPoint,
    UnknownScenarioError,
    list_scenario_families,
    scenario_family,
)
from .explorer import (
    CheckpointError,
    DesignSpaceExplorer,
    ExplorePointResult,
    ExploreResult,
    PointSummary,
)
from .report import render_explore_report

__all__ = [
    "ExploreError",
    "UnknownScenarioError",
    "ScenarioParamError",
    "GridSpecError",
    "ParamSpec",
    "ScenarioFamily",
    "ScenarioPoint",
    "scenario_family",
    "list_scenario_families",
    "ScenarioSweep",
    "ScenarioGrid",
    "dominates",
    "pareto_front",
    "pareto_indices",
    "ParetoAccumulator",
    "CheckpointError",
    "DesignSpaceExplorer",
    "ExplorePointResult",
    "PointSummary",
    "ExploreResult",
    "render_explore_report",
]
