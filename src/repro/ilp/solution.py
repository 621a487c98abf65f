"""Solution and statistics containers returned by the ILP solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, Mapping, Optional

import numpy as np

from .expr import Variable

__all__ = ["SolveStats", "Solution", "LpResult", "add_counters", "sum_counters",
           "certified_gap", "OPTIMAL", "FEASIBLE", "INFEASIBLE", "UNBOUNDED",
           "TIMEOUT", "NODE_LIMIT", "ERROR"]

# Status constants shared by all solver backends.
OPTIMAL = "optimal"
FEASIBLE = "feasible"          # a valid incumbent exists but optimality unproven
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIMEOUT = "timeout"            # stopped on the wall-clock limit
NODE_LIMIT = "node_limit"      # stopped on the branch-and-bound node limit
ERROR = "error"

_SUCCESS_STATUSES = frozenset({OPTIMAL, FEASIBLE})

#: A counter broken down by a label (refactorization trigger, presolve
#: reduction); folded key by key.
Counts = Dict[str, int]


@dataclass
class SolveStats:
    """Aggregate work counters for a single solve.

    This is the one schema of solver counters: every ``int`` field and
    every :data:`Counts` field is a counter.  Aggregators never list
    counters by name; they fold whole stats documents with
    :func:`add_counters`, so adding a counter means adding a field here
    and the code that produces it.
    """

    wall_time: float = 0.0
    nodes_explored: int = 0
    nodes_pruned: int = 0
    lp_solves: int = 0
    simplex_iterations: int = 0
    #: LP solves completed in the revised kernel's dual warm mode.
    warm_lp_solves: int = 0
    #: node re-solves that accepted an inherited/parent basis.
    basis_reuses: int = 0
    #: basis refactorizations performed by the revised kernel.
    refactorizations: int = 0
    #: product-form update etas applied across all FTRAN/BTRAN solves
    #: (revised kernel, LU mode; each application is one eta transform).
    etas_applied: int = 0
    #: non-zeros produced by FTRAN solves (sparsity-of-work measure).
    ftran_nnz: int = 0
    #: non-zeros produced by BTRAN solves.
    btran_nnz: int = 0
    #: refactorization counts keyed by what triggered them
    #: ("start", "interval", "fill", "residual").
    refactor_triggers: Counts = field(default_factory=dict)
    incumbent_updates: int = 0
    best_bound: float = float("nan")
    gap: float = float("nan")
    backend: str = ""
    #: reductions reported by the presolve pass (empty when presolve is off
    #: or the backend has no presolve of its own).
    presolve: Counts = field(default_factory=dict)
    #: free-form backend metadata (e.g. the portfolio's winning entrant).
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        document = self.__dict__.copy()
        for name, value in document.items():
            if type(value) is dict:
                document[name] = value.copy()
        return document

    def add_lp(self, result: "LpResult") -> None:
        """Add the counters one LP solve shares, by name, with this schema."""
        ours, theirs = self.__dict__, result.__dict__
        for name in _LP_COUNTERS:
            ours[name] += theirs[name]
        for name in _LP_COUNTER_MAPS:
            _merge_counts(ours[name], theirs[name])


@dataclass
class LpResult:
    """Result of a single linear-programming relaxation solve."""

    status: str
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    iterations: int = 0
    #: optimal basis snapshot (revised kernel only) for warm re-solves.
    basis: Optional[Any] = None
    #: the solve completed in the dual-simplex warm mode.
    warm: bool = False
    #: a supplied warm basis was accepted (even if the solve later fell
    #: back to the cold primal path).
    basis_reused: bool = False
    #: basis refactorizations this solve performed.
    refactorizations: int = 0
    #: update etas applied across this solve's FTRAN/BTRAN calls.
    etas_applied: int = 0
    #: non-zeros produced by this solve's FTRAN calls.
    ftran_nnz: int = 0
    #: non-zeros produced by this solve's BTRAN calls.
    btran_nnz: int = 0
    #: this solve's refactorizations keyed by trigger.
    refactor_triggers: Counts = field(default_factory=dict)
    #: structural reduced costs at the optimal basis (revised kernel and
    #: HiGHS; not the dense tableau).  Branch-and-bound turns these into valid child-bound lifts
    #: (reduced-cost penalties) that prune children before any LP.
    reduced_costs: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


#: Counter fields of the schema, by kind (annotations are strings here).
_COUNTERS = frozenset(f.name for f in fields(SolveStats) if f.type == "int")
_COUNTER_MAPS = frozenset(f.name for f in fields(SolveStats) if f.type == "Counts")
#: Counters an :class:`LpResult` reports under the schema's own names.
_LP_COUNTERS = tuple(f.name for f in fields(LpResult) if f.name in _COUNTERS)
_LP_COUNTER_MAPS = tuple(f.name for f in fields(LpResult) if f.name in _COUNTER_MAPS)


def _merge_counts(total: Dict[str, int], counts: Mapping[str, int]) -> None:
    for name, count in counts.items():
        total[name] = total.get(name, 0) + count


def add_counters(total: Dict[str, Any], counts: Mapping[str, Any]) -> Dict[str, Any]:
    """Add every counter found in the stats document ``counts`` to ``total``.

    A counter is an ``int`` value (a ``bool`` is a flag, not a count) or,
    under the name of a :data:`Counts` field of :class:`SolveStats`, a map
    merged key by key.  Everything else (times, gaps, names, ``extra``)
    is skipped, so documents that add keys of their own (the pipeline's
    ``retries``, say) fold the same way.  Returns ``total``.
    """
    for key, value in counts.items():
        if type(value) is int:
            total[key] = total.get(key, 0) + value
        elif key in _COUNTER_MAPS:
            _merge_counts(total.setdefault(key, {}), value or {})
    return total


#: Every counter of the schema at zero, in field order.
_ZERO = add_counters({}, SolveStats().as_dict())


def sum_counters(documents: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Counter totals over stats documents; every schema counter is present."""
    total = add_counters({}, _ZERO)
    for document in documents:
        add_counters(total, document)
    return total


def certified_gap(objective: float, bound: float) -> float:
    """Relative optimality gap of ``objective`` against a valid ``bound``.

    Defined so that ``objective <= bound * (1 + gap)`` for positive
    bounds — the contract fast mode promises its callers.  Infinite when
    no finite bound is available.
    """
    if not (math.isfinite(objective) and math.isfinite(bound)):
        return math.inf
    return max(0.0, objective - bound) / max(abs(bound), 1e-9)


@dataclass
class Solution:
    """Result of a mixed 0/1 ILP solve.

    ``values`` is indexed by variable *index*; :meth:`value` and
    :meth:`value_by_name` provide the per-variable accessors formulations
    normally use.  ``objective`` is reported in the user's optimisation
    sense (the internal min/max conversion is undone before construction).
    """

    status: str
    objective: float = float("nan")
    values: Optional[np.ndarray] = None
    stats: SolveStats = field(default_factory=SolveStats)
    variable_names: Dict[int, str] = field(default_factory=dict)
    message: str = ""

    @property
    def is_success(self) -> bool:
        """True when a feasible assignment is available."""
        return self.status in _SUCCESS_STATUSES and self.values is not None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def value(self, var: Variable) -> float:
        """Value of ``var`` in the incumbent assignment."""
        if self.values is None:
            raise ValueError(f"solution has no assignment (status={self.status})")
        return float(self.values[var.index])

    def value_by_index(self, index: int) -> float:
        if self.values is None:
            raise ValueError(f"solution has no assignment (status={self.status})")
        return float(self.values[index])

    def rounded(self, var: Variable) -> int:
        """Integer-rounded value of ``var`` (for 0/1 decision reading)."""
        return int(round(self.value(var)))

    def selected(self, variables) -> list:
        """Return the subset of ``variables`` whose value rounds to one."""
        return [v for v in variables if self.rounded(v) == 1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Solution(status={self.status!r}, objective={self.objective:.6g}, "
            f"nodes={self.stats.nodes_explored}, time={self.stats.wall_time:.3f}s)"
        )
