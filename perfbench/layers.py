"""Where the traced runs wrap the program, one list per group of layers.

Span names are ``<module>.<what>``; a name starting with ``op.`` opens an
operation, the unit the per-layer metrics are averaged over.
"""

from __future__ import annotations

from typing import List

from .tracing import Target


def _global_solve_name(mapper, *args, **kwargs) -> str:
    return "core.fast_lane" if mapper.mode == "fast" else "core.global_solve"


def core_and_ilp() -> List[Target]:
    """Model building and mapping stages in ``core``; presolve, tree and LPs in ``ilp``."""
    from repro.core import (
        complete_mapper, detailed_mapper, global_mapper, heuristic_mapper,
        objective, pipeline, preprocess,
    )
    from repro.ilp import backends, branch_bound, context, revised_simplex, scipy_backend

    return [
        (preprocess.Preprocessor, "__init__", "core.preprocess"),
        (objective.CostModel, "__init__", "core.preprocess"),
        (heuristic_mapper.GreedyMapper, "solve", "core.greedy"),
        (global_mapper.GlobalMapper, "build_model", "core.build_model"),
        (global_mapper.GlobalMapper, "solve", _global_solve_name),
        (detailed_mapper.DetailedMapper, "map", "core.detailed"),
        (pipeline, "validate_global_mapping", "core.validate"),
        (pipeline, "validate_detailed_mapping", "core.validate"),
        (complete_mapper.CompleteMapper, "build_model", "core.complete_model"),
        (branch_bound, "run_presolve", "ilp.presolve"),
        (context, "to_standard_form", "ilp.standard_form"),
        (scipy_backend, "to_standard_form", "ilp.standard_form"),
        (branch_bound.BranchAndBoundSolver, "solve", "ilp.solve"),
        (scipy_backend.ScipyMilpSolver, "solve", "ilp.solve"),
        (backends.PortfolioBackend, "solve", "ilp.solve"),
        (branch_bound, "solve_lp_highs", "ilp.lp"),
        (branch_bound, "solve_lp_simplex", "ilp.lp"),
        (revised_simplex.RevisedSimplex, "solve", "ilp.lp"),
    ]


def engine_and_explore() -> List[Target]:
    """Per-job glue in ``engine`` and ``io``; chain hand-off and Pareto fold in ``explore``."""
    from repro.core.pipeline import MemoryMapper
    from repro.engine import engine, jobs
    from repro.explore import explorer, pareto
    from repro.ilp.context import SolveContext
    from repro.io import serialize

    return [
        (engine, "execute_payload", "op.point"),
        (jobs.MappingJob, "to_payload", "engine.payload"),
        (engine, "payload_cache_key", "engine.payload"),
        (serialize, "board_from_dict", "io.deserialize"),
        (serialize, "design_from_dict", "io.deserialize"),
        (serialize, "mapping_result_to_dict", "io.serialize"),
        (serialize, "global_mapping_to_dict", "io.serialize"),
        (engine, "result_fingerprint", "engine.fingerprint"),
        (MemoryMapper, "map", "core.map"),
        (SolveContext, "chain_dict", "explore.chain"),
        (SolveContext, "from_chain_dict", "explore.chain"),
        (pareto.ParetoAccumulator, "add", "explore.pareto"),
        (explorer, "pareto_indices", "explore.pareto"),
    ]


def per_op_ms(tracer, names, ops: int) -> dict:
    """``<span>_ms``: mean self time per operation of each span name."""
    self_times = tracer.self_times()
    return {f"{name}_ms": 1000.0 * self_times.get(name, 0.0) / max(ops, 1) for name in names}


#: Self-time layer metrics shared by ``table3`` and ``sweep``.
CORE_ILP_SPANS = (
    "core.preprocess", "core.greedy", "core.build_model", "core.global_solve",
    "core.fast_lane", "core.detailed", "core.validate", "core.complete_model",
    "ilp.presolve", "ilp.standard_form", "ilp.solve", "ilp.lp",
)

SOLVER_COUNTERS = (("ilp.nodes", "nodes_explored"), ("ilp.lp_solves", "lp_solves"),
                   ("ilp.simplex_iterations", "simplex_iterations"))


def solver_counts(stats_list) -> dict:
    """Mean per operation of the solver counters in ``solve_stats`` documents."""
    n = max(len(stats_list), 1)
    return {
        metric: sum(int((stats or {}).get(key) or 0) for stats in stats_list) / n
        for metric, key in SOLVER_COUNTERS
    }
