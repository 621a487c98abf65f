"""repro — reproduction of "Global Memory Mapping for FPGA-Based Reconfigurable Systems".

The library implements the two-stage (global, then detailed) memory-mapping
flow of Ouaiss & Vemuri (IPDPS 2001) together with every substrate it needs:
an ILP modelling/solving layer (the CPLEX stand-in), an architecture model
of reconfigurable boards and their on-/off-chip memory bank types, the
design-side data-structure and conflict model, the complete (flat) baseline
formulation, heuristic mappers, an access-cost simulator, and the benchmark
harness that regenerates the paper's tables and figures.

Quick start::

    from repro import MemoryMapper, hierarchical_board, image_pipeline_design

    board = hierarchical_board()
    design = image_pipeline_design()
    result = MemoryMapper(board).map(design)
    print(result.describe())
"""

from .arch import (
    BankType,
    Board,
    MemoryConfig,
    apex_board,
    board_with_complexity,
    flex10k_board,
    hierarchical_board,
    virtex_board,
)
from .core import (
    CompleteMapper,
    CostModel,
    CostWeights,
    DetailedMapper,
    GlobalMapper,
    GreedyMapper,
    MappingError,
    MappingResult,
    MemoryMapper,
    Preprocessor,
    SimulatedAnnealingMapper,
)
from .design import (
    ConflictSet,
    DataStructure,
    Design,
    DesignGenerator,
    Task,
    TaskGraph,
    all_example_designs,
    fft_design,
    fir_filter_design,
    image_pipeline_design,
    matrix_multiply_design,
    motion_estimation_design,
    random_design,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # architecture
    "BankType",
    "MemoryConfig",
    "Board",
    "virtex_board",
    "apex_board",
    "flex10k_board",
    "hierarchical_board",
    "board_with_complexity",
    # design
    "DataStructure",
    "Design",
    "ConflictSet",
    "Task",
    "TaskGraph",
    "DesignGenerator",
    "random_design",
    "image_pipeline_design",
    "fir_filter_design",
    "fft_design",
    "matrix_multiply_design",
    "motion_estimation_design",
    "all_example_designs",
    # core
    "MemoryMapper",
    "GlobalMapper",
    "DetailedMapper",
    "CompleteMapper",
    "GreedyMapper",
    "SimulatedAnnealingMapper",
    "Preprocessor",
    "CostModel",
    "CostWeights",
    "MappingResult",
    "MappingError",
]
