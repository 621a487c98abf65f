"""The dict-of-dicts presolve worker, kept as a parity oracle.

This is the row-by-row implementation :func:`repro.ilp.presolve.presolve`
replaced: every row a ``{column: coefficient}`` dict, every column a set of
the rows that still hold it, and the rows scanned one at a time.
``tests/ilp/test_presolve_parity.py`` checks that the array fixpoint
returns the same result as this module, byte for byte, on the Table 3
models and on hand-built edge cases.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.ilp.presolve import (
    REDUCED,
    SOLVED,
    Postsolve,
    PresolveResult,
    PresolveStats,
)
from repro.ilp.solution import INFEASIBLE, UNBOUNDED
from repro.ilp.sparse import CsrMatrix
from repro.ilp.standard_form import StandardForm

_FEAS_TOL = 1e-7


def rows_as_dicts(matrix: CsrMatrix) -> List[Dict[int, float]]:
    """Per-row ``{column: coefficient}`` mappings (the worker's row set)."""
    out: List[Dict[int, float]] = []
    for i in range(matrix.num_rows):
        cols, vals = matrix.row_entries(i)
        out.append({int(c): float(v) for c, v in zip(cols, vals)})
    return out


class _Infeasible(Exception):
    """Internal control flow: the reductions proved infeasibility."""


class _Unbounded(Exception):
    """Internal control flow: the reductions proved unboundedness."""


class _Worker:
    """Mutable working state of one presolve run."""

    def __init__(self, form: StandardForm, integrality_tol: float) -> None:
        self.form = form
        self.tol = integrality_tol
        n = form.num_variables
        self.lb = form.lb.copy()
        self.ub = form.ub.copy()
        self.c = form.c
        self.integrality = form.integrality
        self.offset_delta = 0.0
        self.fixed = np.full(n, np.nan)
        self.is_fixed = np.zeros(n, dtype=bool)
        self.stats = PresolveStats(nnz_before=form.num_nonzeros)

        # Row working set: ({col: coeff}, rhs, active) per row, per kind.
        self.rows: Dict[str, List[Dict[int, float]]] = {
            "ub": rows_as_dicts(form.A_ub_sparse),
            "eq": rows_as_dicts(form.A_eq_sparse),
        }
        self.rhs: Dict[str, np.ndarray] = {
            "ub": form.b_ub.copy(),
            "eq": form.b_eq.copy(),
        }
        self.active: Dict[str, np.ndarray] = {
            "ub": np.ones(form.num_ub_rows, dtype=bool),
            "eq": np.ones(form.num_eq_rows, dtype=bool),
        }
        #: column -> set of (kind, row index) still containing it
        self.col_rows: Dict[int, Set[Tuple[str, int]]] = {}
        for kind in ("ub", "eq"):
            for i, row in enumerate(self.rows[kind]):
                for j in row:
                    self.col_rows.setdefault(j, set()).add((kind, i))
        #: fixed variables whose substitution is still pending
        self.subst_queue: List[int] = []

    # ------------------------------------------------------------- variables
    def round_integer_bounds(self) -> None:
        mask = self.integrality & ~self.is_fixed
        idx = np.where(mask)[0]
        for j in idx:
            new_lb = self.lb[j]
            new_ub = self.ub[j]
            if math.isfinite(new_lb) and abs(new_lb - round(new_lb)) > self.tol:
                new_lb = math.ceil(new_lb - self.tol)
                self.stats.bounds_tightened += 1
            if math.isfinite(new_ub) and abs(new_ub - round(new_ub)) > self.tol:
                new_ub = math.floor(new_ub + self.tol)
                self.stats.bounds_tightened += 1
            self.lb[j] = new_lb
            self.ub[j] = new_ub
            if new_lb > new_ub + self.tol:
                raise _Infeasible(f"integer bounds of column {j} crossed")

    def fix(self, j: int, value: float) -> None:
        """Fix variable ``j`` to ``value`` (validated against its domain)."""
        if self.is_fixed[j]:
            if abs(self.fixed[j] - value) > 1e-6:
                raise _Infeasible(f"column {j} forced to two values")
            return
        if value < self.lb[j] - 1e-6 or value > self.ub[j] + 1e-6:
            raise _Infeasible(f"column {j} forced outside its bounds")
        if self.integrality[j]:
            if abs(value - round(value)) > 1e-6:
                raise _Infeasible(f"integer column {j} forced to {value}")
            value = float(round(value))
        self.fixed[j] = value
        self.is_fixed[j] = True
        self.lb[j] = value
        self.ub[j] = value
        self.offset_delta += float(self.c[j]) * value
        self.stats.cols_fixed += 1
        self.subst_queue.append(j)

    def tighten(self, j: int, *, lower: Optional[float] = None,
                upper: Optional[float] = None) -> bool:
        """Tighten the bounds of free variable ``j``; fixes it when they meet."""
        changed = False
        if lower is not None and lower > self.lb[j] + 1e-9:
            self.lb[j] = (math.ceil(lower - self.tol)
                          if self.integrality[j] and math.isfinite(lower) else lower)
            self.stats.bounds_tightened += 1
            changed = True
        if upper is not None and upper < self.ub[j] - 1e-9:
            self.ub[j] = (math.floor(upper + self.tol)
                          if self.integrality[j] and math.isfinite(upper) else upper)
            self.stats.bounds_tightened += 1
            changed = True
        if self.lb[j] > self.ub[j] + self.tol:
            raise _Infeasible(f"bounds of column {j} crossed")
        if changed and not self.is_fixed[j] and self.ub[j] - self.lb[j] <= self.tol:
            self.fix(j, (self.lb[j] + self.ub[j]) / 2.0)
        return changed

    def substitute_fixed(self) -> bool:
        """Move every pending fixed variable into the right-hand sides."""
        changed = False
        while self.subst_queue:
            j = self.subst_queue.pop()
            for kind, i in self.col_rows.pop(j, set()):
                row = self.rows[kind][i]
                coeff = row.pop(j, None)
                if coeff is not None:
                    self.rhs[kind][i] -= coeff * self.fixed[j]
                    changed = True
        return changed

    # ------------------------------------------------------------------ rows
    def drop_row(self, kind: str, i: int) -> None:
        self.active[kind][i] = False
        for j in list(self.rows[kind][i]):
            owners = self.col_rows.get(j)
            if owners is not None:
                owners.discard((kind, i))
        self.rows[kind][i] = {}
        if kind == "ub":
            self.stats.rows_dropped_ub += 1
        else:
            self.stats.rows_dropped_eq += 1

    def _activity(self, row: Dict[int, float]) -> Tuple[float, float]:
        lo = hi = 0.0
        for j, a in row.items():
            if a >= 0:
                lo += a * self.lb[j]
                hi += a * self.ub[j]
            else:
                lo += a * self.ub[j]
                hi += a * self.lb[j]
        return lo, hi

    def _fix_row_at(self, row: Dict[int, float], at_min: bool) -> None:
        """Force every variable of a row to its extreme-activity bound."""
        for j, a in list(row.items()):
            take_lower = (a >= 0) == at_min
            value = self.lb[j] if take_lower else self.ub[j]
            if not math.isfinite(value):
                raise _Infeasible("forcing row hit an unbounded variable")
            self.fix(j, value)

    def scan_rows(self) -> bool:
        changed = False
        for kind in ("ub", "eq"):
            is_eq = kind == "eq"
            for i, row in enumerate(self.rows[kind]):
                if not self.active[kind][i]:
                    continue
                rhs = float(self.rhs[kind][i])
                if not row:
                    if is_eq and abs(rhs) > _FEAS_TOL:
                        raise _Infeasible("empty == row with non-zero rhs")
                    if not is_eq and rhs < -_FEAS_TOL:
                        raise _Infeasible("empty <= row with negative rhs")
                    self.drop_row(kind, i)
                    changed = True
                    continue
                if len(row) == 1:
                    (j, a), = row.items()
                    if abs(a) < 1e-12:
                        # Numerically empty: re-check as empty next pass.
                        row.clear()
                        changed = True
                        continue
                    if is_eq:
                        self.fix(j, rhs / a)
                    elif a > 0:
                        self.tighten(j, upper=rhs / a)
                    else:
                        self.tighten(j, lower=rhs / a)
                    self.drop_row(kind, i)
                    changed = True
                    continue
                lo, hi = self._activity(row)
                if lo > rhs + _FEAS_TOL:
                    raise _Infeasible("row minimum activity exceeds its rhs")
                if is_eq and hi < rhs - _FEAS_TOL:
                    raise _Infeasible("row maximum activity below its == rhs")
                if not is_eq and hi <= rhs + _FEAS_TOL:
                    self.drop_row(kind, i)  # redundant: can never be violated
                    changed = True
                    continue
                if lo >= rhs - _FEAS_TOL:
                    # Only satisfiable at the minimum-activity point.
                    self._fix_row_at(row, at_min=True)
                    self.drop_row(kind, i)
                    changed = True
                    continue
                if is_eq and hi <= rhs + _FEAS_TOL:
                    self._fix_row_at(row, at_min=False)
                    self.drop_row(kind, i)
                    changed = True
        return changed

    # --------------------------------------------------------------- columns
    def fix_empty_columns(self) -> bool:
        changed = False
        for j in range(self.lb.shape[0]):
            if self.is_fixed[j] or self.col_rows.get(j):
                continue
            cost = float(self.c[j])
            if cost > 0 or (cost == 0 and math.isfinite(self.lb[j])):
                target = self.lb[j]
            elif cost < 0 or math.isfinite(self.ub[j]):
                target = self.ub[j]
            else:
                target = 0.0
            if not math.isfinite(target):
                if cost == 0.0:
                    target = 0.0
                else:
                    raise _Unbounded(f"free column {j} has unbounded descent")
            self.fix(j, target)
            changed = True
        return changed


def presolve(
    form: StandardForm,
    integrality_tol: float = 1e-6,
    max_passes: int = 10,
) -> PresolveResult:
    """Run the reduction fixpoint over ``form`` and package the result."""
    n = form.num_variables
    worker = _Worker(form, integrality_tol)
    identity_post = Postsolve(
        kept=np.arange(n), fixed_values=np.zeros(n), column_map=np.arange(n)
    )
    try:
        if np.any(worker.lb > worker.ub + integrality_tol):
            raise _Infeasible("crossed input bounds")
        worker.round_integer_bounds()
        for j in np.where(worker.ub - worker.lb <= integrality_tol)[0]:
            worker.fix(int(j), (worker.lb[j] + worker.ub[j]) / 2.0)
        for _ in range(max_passes):
            worker.stats.passes += 1
            changed = worker.substitute_fixed()
            changed |= worker.scan_rows()
            changed |= worker.substitute_fixed()
            changed |= worker.fix_empty_columns()
            if not changed:
                break
        worker.substitute_fixed()
    except _Infeasible:
        return PresolveResult(INFEASIBLE, None, identity_post, worker.stats)
    except _Unbounded:
        return PresolveResult(UNBOUNDED, None, identity_post, worker.stats)

    kept = np.where(~worker.is_fixed)[0]
    column_map = np.full(n, -1, dtype=np.int64)
    column_map[kept] = np.arange(kept.shape[0])
    fixed_values = np.where(worker.is_fixed, worker.fixed, 0.0)
    post = Postsolve(kept=kept, fixed_values=fixed_values, column_map=column_map)

    reduced = _build_reduced(form, worker, kept, column_map)
    worker.stats.nnz_after = reduced.num_nonzeros if reduced is not None else 0
    if kept.shape[0] == 0:
        return PresolveResult(SOLVED, reduced, post, worker.stats)
    return PresolveResult(REDUCED, reduced, post, worker.stats)


def _build_reduced(
    form: StandardForm,
    worker: _Worker,
    kept: np.ndarray,
    column_map: np.ndarray,
) -> StandardForm:
    """Assemble the reduced StandardForm from the worker's surviving state."""
    def surviving(kind: str, names: Tuple[str, ...]):
        rows: List[Dict[int, float]] = []
        rhs: List[float] = []
        kept_names: List[str] = []
        for i, row in enumerate(worker.rows[kind]):
            if not worker.active[kind][i]:
                continue
            rows.append({int(column_map[j]): a for j, a in row.items()})
            rhs.append(float(worker.rhs[kind][i]))
            if i < len(names):
                kept_names.append(names[i])
        return rows, np.asarray(rhs, dtype=np.float64), tuple(kept_names)

    m = kept.shape[0]
    ub_rows, b_ub, ub_names = surviving("ub", form.row_names_ub)
    eq_rows, b_eq, eq_names = surviving("eq", form.row_names_eq)
    names = tuple(form.variable_names[j] for j in kept) if form.variable_names else ()
    return StandardForm(
        c=form.c[kept],
        A_ub=CsrMatrix.from_coeff_rows(ub_rows, m),
        b_ub=b_ub,
        A_eq=CsrMatrix.from_coeff_rows(eq_rows, m),
        b_eq=b_eq,
        lb=worker.lb[kept],
        ub=worker.ub[kept],
        integrality=form.integrality[kept],
        objective_offset=form.objective_offset + worker.offset_delta,
        objective_scale=form.objective_scale,
        variable_names=names,
        row_names_ub=ub_names,
        row_names_eq=eq_names,
    )
