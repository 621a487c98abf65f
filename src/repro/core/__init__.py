"""Core library: the paper's global/detailed memory-mapping contribution.

Public surface:

* :class:`MemoryMapper` — the two-stage pipeline (global ILP, then detailed
  placement) most applications should use.
* :class:`GlobalMapper` / :class:`DetailedMapper` — the two stages
  individually, for users who want to inspect or customise one of them.
* :class:`CompleteMapper` — the single-step flat ILP baseline of the
  paper's earlier work, used for the Table 3 / Figure 4 comparison.
* :class:`GreedyMapper` / :class:`SimulatedAnnealingMapper` — heuristic
  baselines and warm-start providers.
* :class:`Preprocessor` and the Figure 2 / Figure 3 / Table 2 arithmetic
  (:func:`consumed_ports`, :func:`compute_pair_metrics`,
  :func:`space_allocation_options`, ...).
* :class:`CostModel` / :class:`CostWeights` — the Section 4.1.3 objective.
* Result containers (:class:`GlobalMapping`, :class:`DetailedMapping`,
  :class:`MappingResult`) and validators.
"""

from .allocation import (
    accepted_allocation_options,
    estimated_ports_for_split,
    is_split_accepted,
    powers_of_two_up_to,
    space_allocation_options,
    table2_rows,
)
from .complete_mapper import CompleteMapper, CompleteMappingOutcome, CompleteModelArtifacts
from .detailed_mapper import DetailedMapper, DetailedMappingFailure, decompose_structure
from .global_mapper import GlobalMapper, GlobalModelArtifacts
from .heuristic_mapper import GreedyMapper, SimulatedAnnealingMapper
from .mapping import (
    DetailedMapping,
    Fragment,
    GlobalMapping,
    MappingError,
    MappingResult,
    PlacedFragment,
)
from .report import render_assignment, render_full_report, render_memory_map
from .objective import CostBreakdown, CostModel, CostWeights
from .pipeline import MemoryMapper
from .preprocess import (
    PairMetrics,
    Preprocessor,
    compute_pair_metrics,
    consumed_ports,
    next_power_of_two,
    refined_consumed_ports,
    select_alpha,
    select_beta,
)
from .validate import ensure_valid, validate_detailed_mapping, validate_global_mapping

__all__ = [
    # pipeline + mappers
    "MemoryMapper",
    "GlobalMapper",
    "GlobalModelArtifacts",
    "DetailedMapper",
    "DetailedMappingFailure",
    "CompleteMapper",
    "CompleteMappingOutcome",
    "CompleteModelArtifacts",
    "GreedyMapper",
    "SimulatedAnnealingMapper",
    # pre-processing / allocation
    "Preprocessor",
    "PairMetrics",
    "compute_pair_metrics",
    "consumed_ports",
    "refined_consumed_ports",
    "next_power_of_two",
    "select_alpha",
    "select_beta",
    "decompose_structure",
    "space_allocation_options",
    "accepted_allocation_options",
    "estimated_ports_for_split",
    "is_split_accepted",
    "powers_of_two_up_to",
    "table2_rows",
    # objective
    "CostModel",
    "CostWeights",
    "CostBreakdown",
    # results + validation
    "GlobalMapping",
    "DetailedMapping",
    "MappingResult",
    "Fragment",
    "PlacedFragment",
    "MappingError",
    "validate_global_mapping",
    "validate_detailed_mapping",
    "ensure_valid",
    # reports
    "render_assignment",
    "render_memory_map",
    "render_full_report",
]
