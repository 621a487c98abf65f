"""Design substrate: data structures, conflicts, task graphs and generators.

This package implements the design-side inputs of the mapping problem
(Sections 3.2 and 3.3 of the paper): the logical data segments with their
depth/width, the conflict pairs from lifetime analysis, a small task-graph
scheduler that produces those lifetimes, and generators for both synthetic
benchmark designs and realistic example workloads.
"""

from .conflicts import ConflictSet
from .dagsched import DagScheduleGenerator
from .datastruct import DataStructure, DesignError
from .design import Design
from .generator import DesignGenerator, random_design
from .taskgraph import Schedule, Task, TaskGraph
from .workloads import (
    all_example_designs,
    fft_design,
    fir_filter_design,
    image_pipeline_design,
    matrix_multiply_design,
    motion_estimation_design,
)

__all__ = [
    "DataStructure",
    "DesignError",
    "Design",
    "ConflictSet",
    "Task",
    "TaskGraph",
    "Schedule",
    "DesignGenerator",
    "random_design",
    "DagScheduleGenerator",
    "image_pipeline_design",
    "fir_filter_design",
    "fft_design",
    "matrix_multiply_design",
    "motion_estimation_design",
    "all_example_designs",
]
