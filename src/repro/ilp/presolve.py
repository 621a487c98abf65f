"""Presolve: shrink a :class:`StandardForm` before branch-and-bound.

Commercial MIP engines spend a large share of their advantage in presolve,
and the paper's retry loop (Section 4.1) re-solves near-identical models
where presolve pays off every time: a forbidden ``(structure, type)`` pair
arrives as a variable fixed to zero, the structure's uniqueness row then
forces the surviving candidate, and whole constraint blocks collapse.

The pass implemented here iterates the classic reductions to a fixpoint:

* **fixed-variable substitution** — variables with ``lb == ub`` are moved
  into the right-hand sides and the objective offset;
* **integer bound rounding** — fractional bounds of integer variables are
  tightened to the enclosed integers;
* **singleton rows** — one-variable ``<=`` rows become bound updates,
  one-variable ``==`` rows become fixings;
* **empty / redundant rows** — rows whose maximum activity over the
  bounds cannot violate them are dropped; rows whose minimum activity
  already violates them prove infeasibility;
* **forcing rows** — rows only satisfiable at one extreme point fix every
  participating variable (this is how a uniqueness row with one remaining
  candidate resolves);
* **empty columns** — variables left in no constraint are fixed at their
  objective-optimal bound.

Everything runs on NumPy arrays over the form's ``A_ub`` and ``A_eq`` CSR
arrays, stacked into one layout (``<=`` rows first).  A row drop or a
column substitution clears bits of a mask over the entries; nothing is
rebuilt until the end.  Each pass of the fixpoint computes:

1. **substitution** — the entries of the columns fixed since the last
   pass leave their rows, and ``np.subtract.at`` takes their products off
   the right-hand sides, last-fixed first;
2. **row scan** — one ``bincount`` pair gives every active row's entry
   count and its minimum and maximum activity (the arithmetic
   :func:`propagate_bounds` uses).  Every row is then classified at once:
   empty, singleton (or numerically empty, ``|a| < 1e-12``), infeasible,
   redundant, forcing at its minimum, or forcing at its maximum.  Drops
   apply in bulk.  A singleton or forcing row changes bounds that the
   rows after it read, so the scan resolves the first such row and
   re-classifies the rows after it against the new bounds.  This gives
   the results a row-by-row scan gives, counters included;
3. **substitution** again, for what the scan fixed;
4. **empty columns** — a column with no live entry gets its target bound
   from the sign of its cost, all such columns at once.

Fixings go through one validation over the batch: they apply in order up
to the first invalid one, which then ends the run.  Integer bounds are
rounded the same way before the first pass.  The reduced form is cut out
of the stacked arrays by the row and entry masks.

The :class:`Postsolve` record maps a reduced-space solution back to the
full variable space; :func:`presolve` never loses the optimum: every
reduction is optimality-preserving for the mixed 0/1 models produced by
:mod:`repro.core` (and the property tests cross-check exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .solution import INFEASIBLE, UNBOUNDED
from .sparse import CsrMatrix
from .standard_form import StandardForm

__all__ = ["Postsolve", "PresolveStats", "PresolveResult", "presolve",
           "propagate_bounds", "REDUCED", "SOLVED"]

#: Presolve outcome statuses (INFEASIBLE / UNBOUNDED reuse solver constants).
REDUCED = "reduced"
SOLVED = "solved"

_FEAS_TOL = 1e-7


@dataclass
class PresolveStats:
    """What the pass removed (surfaced in solver stats and BENCH artifacts)."""

    rows_dropped_ub: int = 0
    rows_dropped_eq: int = 0
    cols_fixed: int = 0
    bounds_tightened: int = 0
    passes: int = 0
    nnz_before: int = 0
    nnz_after: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "rows_dropped_ub": self.rows_dropped_ub,
            "rows_dropped_eq": self.rows_dropped_eq,
            "cols_fixed": self.cols_fixed,
            "bounds_tightened": self.bounds_tightened,
            "passes": self.passes,
            "nnz_before": self.nnz_before,
            "nnz_after": self.nnz_after,
        }


@dataclass
class Postsolve:
    """Recovers a full-space solution from a reduced-space one."""

    #: original indices of the variables that survived into the reduced form
    kept: np.ndarray
    #: full-length vector holding the fixed values (zeros at kept positions)
    fixed_values: np.ndarray
    #: original index -> reduced index, or -1 for eliminated columns
    column_map: np.ndarray

    @property
    def num_original(self) -> int:
        return int(self.fixed_values.shape[0])

    @property
    def num_reduced(self) -> int:
        return int(self.kept.shape[0])

    def restore(self, x_reduced: Optional[np.ndarray]) -> np.ndarray:
        """Lift ``x_reduced`` back into the original variable space."""
        x = self.fixed_values.copy()
        if self.num_reduced:
            if x_reduced is None:
                raise ValueError("reduced solution required to restore")
            x[self.kept] = np.asarray(x_reduced, dtype=np.float64)
        return x


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve`."""

    status: str
    form: Optional[StandardForm]
    postsolve: Postsolve
    stats: PresolveStats = field(default_factory=PresolveStats)

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


class _Infeasible(Exception):
    """Internal control flow: the reductions proved infeasibility."""


class _Unbounded(Exception):
    """Internal control flow: the reductions proved unboundedness."""


#: Row classes of one scan, in the order :meth:`_Reductions.classify`
#: assigns them.  Classes from ``_SINGLETON`` on change the column bounds
#: or end the run, so the scan resolves them one row at a time.
_KEEP, _DROP, _CLEAR, _SINGLETON, _FORCE_MIN, _FORCE_MAX, _INFEASIBLE = range(7)


def _row_activity(rows, data, cols, lb, ub, num_rows):
    """Minimum and maximum activity of every row over the box ``[lb, ub]``.

    Returns each entry's smallest and largest contribution ``(low, high)``
    and their row sums ``(lo, hi)``.  ``bincount`` adds a row's entries in
    storage order, so a row sum is the left-to-right sum of its entries.
    """
    with np.errstate(invalid="ignore"):
        col_lb = lb[cols]
        col_ub = ub[cols]
        positive = data >= 0
        low = np.where(positive, data * col_lb, data * col_ub)
        high = np.where(positive, data * col_ub, data * col_lb)
        lo = np.bincount(rows, weights=low, minlength=num_rows)
        hi = np.bincount(rows, weights=high, minlength=num_rows)
    return low, high, lo, hi


def _pick(names: Tuple[str, ...], positions: np.ndarray) -> Tuple[str, ...]:
    """``names`` at ``positions`` (ascending), without a copy when all are kept."""
    if positions.shape[0] == len(names):
        return names
    return tuple([names[i] for i in positions.tolist()])


class _Reductions:
    """Working state of one presolve run over the stacked rows of a form.

    The ``<=`` rows come first and the ``==`` rows after them, in one CSR
    layout; ``live`` marks the entries still in an active row, so dropping
    a row or substituting a column only clears mask bits.
    """

    def __init__(self, form: StandardForm, integrality_tol: float) -> None:
        self.form = form
        self.tol = integrality_tol
        ub_rows, eq_rows = form.A_ub_sparse, form.A_eq_sparse
        self.num_ub = form.num_ub_rows
        self.num_rows = self.num_ub + form.num_eq_rows
        self.nnz_ub = ub_rows.nnz
        self.data = np.concatenate((ub_rows.data, eq_rows.data))
        self.cols = np.concatenate((ub_rows.indices, eq_rows.indices))
        self.rows = np.concatenate(
            (ub_rows.rows_of_nonzeros(), eq_rows.rows_of_nonzeros() + self.num_ub)
        )
        self.is_eq = np.arange(self.num_rows) >= self.num_ub
        self.rhs = np.concatenate((form.b_ub, form.b_eq))
        self.active = np.ones(self.num_rows, dtype=bool)
        self.live = np.ones(self.data.shape[0], dtype=bool)

        n = form.num_variables
        self.lb = form.lb.copy()
        self.ub = form.ub.copy()
        self.c = form.c
        self.integrality = form.integrality
        self.fixed = np.full(n, np.nan)
        self.is_fixed = np.zeros(n, dtype=bool)
        #: columns a numerically empty row still claims: never fixed as empty
        self.claimed = np.zeros(n, dtype=bool)
        #: columns fixed since the last substitution, in fixing order
        self.pending: List[np.ndarray] = []
        self.offset_delta = 0.0
        self.stats = PresolveStats(nnz_before=form.num_nonzeros)

    # ------------------------------------------------------------- columns
    def round_integer_bounds(self) -> None:
        """Round fractional bounds of integer columns inward.

        The first column whose rounded bounds cross ends the run; the
        columns before it (and it) are counted, as a column-by-column pass
        would count them.
        """
        cols = (self.integrality & ~self.is_fixed).nonzero()[0]
        lb, ub, tol = self.lb[cols], self.ub[cols], self.tol
        with np.errstate(invalid="ignore"):
            raise_lb = np.isfinite(lb) & (np.abs(lb - np.rint(lb)) > tol)
            lower_ub = np.isfinite(ub) & (np.abs(ub - np.rint(ub)) > tol)
        if not (raise_lb.any() or lower_ub.any()):
            return
        # ``+ 0.0`` turns a ceil/floor of -0.0 into the integer 0.
        new_lb = np.where(raise_lb, np.ceil(lb - tol) + 0.0, lb)
        new_ub = np.where(lower_ub, np.floor(ub + tol) + 0.0, ub)
        crossed = (new_lb > new_ub + tol).nonzero()[0]
        stop = int(crossed[0]) + 1 if crossed.size else cols.shape[0]
        self.stats.bounds_tightened += int(
            np.count_nonzero(raise_lb[:stop]) + np.count_nonzero(lower_ub[:stop])
        )
        self.lb[cols] = new_lb
        self.ub[cols] = new_ub
        if crossed.size:
            raise _Infeasible(f"integer bounds of column {cols[crossed[0]]} crossed")

    def fix(self, cols: np.ndarray, values: np.ndarray,
            reject: Optional[np.ndarray] = None, error=_Infeasible) -> None:
        """Fix ``cols`` to ``values`` in order, up to the first invalid one.

        A column fixed already must be asked for the same value again; a new
        fixing must lie in the column's bounds and be integral on an integer
        column, whose value is then rounded.  The fixings before the first
        invalid one take effect, then it raises :class:`_Infeasible`, or
        ``error`` where ``reject`` marks it.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if not cols.size:
            return
        values = np.asarray(values, dtype=np.float64)
        again = self.is_fixed[cols]
        integer = self.integrality[cols]
        rounded = np.rint(values) + 0.0
        with np.errstate(invalid="ignore"):
            bad = np.where(
                again,
                np.abs(self.fixed[cols] - values) > 1e-6,
                (values < self.lb[cols] - 1e-6) | (values > self.ub[cols] + 1e-6)
                | (integer & (np.abs(values - rounded) > 1e-6)),
            )
        if reject is not None:
            bad |= reject
        invalid = bad.nonzero()[0]
        stop = int(invalid[0]) if invalid.size else cols.shape[0]
        new = (~again[:stop]).nonzero()[0]
        taken, values = cols[new], np.where(integer, rounded, values)[new]
        self.fixed[taken] = values
        self.is_fixed[taken] = True
        self.lb[taken] = values
        self.ub[taken] = values
        if taken.size:
            # The offset adds the fixed costs one at a time, in fixing order.
            terms = np.concatenate(([self.offset_delta], self.c[taken] * values))
            self.offset_delta = float(np.add.accumulate(terms)[-1])
            self.stats.cols_fixed += int(taken.size)
            self.pending.append(taken)
        if invalid.size:
            if reject is not None and reject[stop]:
                raise error(f"column {cols[stop]} has no admissible value")
            raise _Infeasible(f"column {cols[stop]} cannot be fixed there")

    def tighten(self, j: int, bound: float, upper: bool) -> None:
        """Apply one bound from a singleton ``<=`` row to column ``j``."""
        integer = bool(self.integrality[j])
        if upper:
            changed = bound < self.ub[j] - 1e-9
            if changed:
                self.ub[j] = (math.floor(bound + self.tol)
                              if integer and math.isfinite(bound) else bound)
        else:
            changed = bound > self.lb[j] + 1e-9
            if changed:
                self.lb[j] = (math.ceil(bound - self.tol)
                              if integer and math.isfinite(bound) else bound)
        if changed:
            self.stats.bounds_tightened += 1
        if self.lb[j] > self.ub[j] + self.tol:
            raise _Infeasible(f"bounds of column {j} crossed")
        if changed and not self.is_fixed[j] and self.ub[j] - self.lb[j] <= self.tol:
            self.fix([j], [(self.lb[j] + self.ub[j]) / 2.0])

    def substitute_fixed(self) -> bool:
        """Move the pending fixed columns into the right-hand sides.

        Each row takes its fixed entries off its right-hand side last-fixed
        first (``subtract.at`` applies them in the order given), and the
        entries leave their rows.
        """
        if not self.pending:
            return False
        order = np.concatenate(self.pending)
        self.pending = []
        rank = np.full(self.lb.shape[0], -1, dtype=np.int64)
        rank[order] = np.arange(order.shape[0])
        hits = (self.live & (rank[self.cols] >= 0)).nonzero()[0]
        if not hits.size:
            return False
        hits = hits[np.argsort(-rank[self.cols[hits]], kind="stable")]
        np.subtract.at(self.rhs, self.rows[hits],
                       self.data[hits] * self.fixed[self.cols[hits]])
        self.live[hits] = False
        return True

    def fix_empty_columns(self) -> bool:
        """Fix every column left in no row at its objective-optimal bound."""
        listed = self.claimed.copy()
        listed[self.cols[self.live]] = True
        empty = (~self.is_fixed & ~listed).nonzero()[0]
        if not empty.size:
            return False
        cost, lb, ub = self.c[empty], self.lb[empty], self.ub[empty]
        at_lower = (cost > 0) | ((cost == 0) & np.isfinite(lb))
        at_upper = ~at_lower & ((cost < 0) | np.isfinite(ub))
        target = np.where(at_lower, lb, np.where(at_upper, ub, 0.0))
        infinite = ~np.isfinite(target)
        target = np.where(infinite & (cost == 0.0), 0.0, target)
        self.fix(empty, target, reject=infinite & (cost != 0.0), error=_Unbounded)
        return True

    # ---------------------------------------------------------------- rows
    def drop(self, rows: np.ndarray) -> None:
        self.active[rows] = False
        self.live &= self.active[self.rows]
        dropped_ub = int(np.count_nonzero(rows < self.num_ub))
        self.stats.rows_dropped_ub += dropped_ub
        self.stats.rows_dropped_eq += int(rows.shape[0]) - dropped_ub

    def classify(self, start: int) -> Tuple[np.ndarray, np.ndarray]:
        """Class of every active row from ``start`` on, and each singleton's entry."""
        live = self.live.nonzero()[0]
        rows = self.rows[live]
        m = self.num_rows
        count = np.bincount(rows, minlength=m)
        _, _, lo, hi = _row_activity(rows, self.data[live], self.cols[live],
                                     self.lb, self.ub, m)
        rhs, eq = self.rhs, self.is_eq
        # Later assignments take precedence: infeasible over redundant over
        # forcing at the minimum over forcing at the maximum.
        klass = np.full(m, _KEEP)
        with np.errstate(invalid="ignore"):
            within = hi <= rhs + _FEAS_TOL
            klass[eq & within] = _FORCE_MAX
            klass[lo >= rhs - _FEAS_TOL] = _FORCE_MIN
            klass[within & ~eq] = _DROP
            klass[(lo > rhs + _FEAS_TOL) | (eq & (hi < rhs - _FEAS_TOL))] = _INFEASIBLE
        empty = (count == 0).nonzero()[0]
        if empty.size:
            bad = np.where(eq[empty], np.abs(rhs[empty]) > _FEAS_TOL,
                           rhs[empty] < -_FEAS_TOL)
            klass[empty] = np.where(bad, _INFEASIBLE, _DROP)
        sole = np.full(m, -1, dtype=np.int64)
        single = (count[rows] == 1).nonzero()[0]
        if single.size:
            sole[rows[single]] = live[single]
            tiny = np.abs(self.data[live[single]]) < 1e-12
            klass[rows[single]] = np.where(tiny, _CLEAR, _SINGLETON)
        klass[:start] = _KEEP
        klass[~self.active] = _KEEP
        return klass, sole

    def scan_rows(self) -> bool:
        """One scan over the rows in order; True when any row changed.

        Every active row is classified at once.  Drops and clears of the
        rows before the first bound-changing row stand as classified; that
        row is then resolved and the rest re-classified against the bounds
        it left, which is what a row-by-row scan would see.
        """
        changed = False
        start = 0
        while True:
            klass, sole = self.classify(start)
            events = (klass >= _SINGLETON).nonzero()[0]
            first = int(events[0]) if events.size else self.num_rows
            head = klass[:first]
            dropped = (head == _DROP).nonzero()[0]
            cleared = sole[(head == _CLEAR).nonzero()[0]]
            if dropped.size:
                self.drop(dropped)
            if cleared.size:
                # A numerically empty row stays for one more pass (then it
                # is dropped as empty) and keeps claiming its column.
                self.live[cleared] = False
                self.claimed[self.cols[cleared]] = True
            changed |= bool(dropped.size or cleared.size)
            if first == self.num_rows:
                return changed
            self.resolve(first, int(klass[first]), int(sole[first]))
            self.drop(np.array([first]))
            changed = True
            start = first + 1

    def resolve(self, row: int, klass: int, entry: int) -> None:
        """Apply a singleton or forcing row, or raise on an infeasible one."""
        if klass == _INFEASIBLE:
            raise _Infeasible(f"row {row} cannot be satisfied")
        if klass == _SINGLETON:
            j = int(self.cols[entry])
            bound = float(self.rhs[row]) / float(self.data[entry])
            if self.is_eq[row]:
                self.fix([j], [bound])
            else:
                self.tighten(j, bound, upper=self.data[entry] > 0)
            return
        # Forcing row: only satisfiable with every entry at the bound that
        # gives the row its minimum (or, for ``==``, maximum) activity.
        span = (self.live & (self.rows == row)).nonzero()[0]
        cols = self.cols[span]
        take_lower = (self.data[span] >= 0) == (klass == _FORCE_MIN)
        values = np.where(take_lower, self.lb[cols], self.ub[cols])
        self.fix(cols, values, reject=~np.isfinite(values))

    # ------------------------------------------------------------- result
    def reduced_form(self, kept: np.ndarray, column_map: np.ndarray) -> StandardForm:
        """The surviving rows and columns, cut out of the CSR arrays by mask."""
        form = self.form
        keep = self.live & (self.data != 0.0)

        def block(entries: slice, first_row: int, num_rows: int,
                  names: Tuple[str, ...]):
            rows = self.active[first_row:first_row + num_rows].nonzero()[0]
            taken = keep[entries].nonzero()[0] + entries.start
            counts = np.bincount(self.rows[taken] - first_row, minlength=num_rows)
            indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts[rows], out=indptr[1:])
            matrix = CsrMatrix((rows.shape[0], kept.shape[0]), self.data[taken],
                               column_map[self.cols[taken]], indptr)
            kept_names = _pick(names, rows[rows < len(names)])
            return matrix, self.rhs[first_row + rows], kept_names

        nnz = self.data.shape[0]
        A_ub, b_ub, ub_names = block(slice(0, self.nnz_ub), 0, self.num_ub,
                                     form.row_names_ub)
        A_eq, b_eq, eq_names = block(slice(self.nnz_ub, nnz), self.num_ub,
                                     self.num_rows - self.num_ub, form.row_names_eq)
        names = _pick(form.variable_names, kept) if form.variable_names else ()
        return StandardForm(
            c=form.c[kept],
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            lb=self.lb[kept],
            ub=self.ub[kept],
            integrality=form.integrality[kept],
            objective_offset=form.objective_offset + self.offset_delta,
            objective_scale=form.objective_scale,
            variable_names=names,
            row_names_ub=ub_names,
            row_names_eq=eq_names,
        )


def presolve(
    form: StandardForm,
    integrality_tol: float = 1e-6,
    max_passes: int = 10,
) -> PresolveResult:
    """Run the reduction fixpoint over ``form`` and package the result."""
    n = form.num_variables
    state = _Reductions(form, integrality_tol)
    identity_post = Postsolve(
        kept=np.arange(n), fixed_values=np.zeros(n), column_map=np.arange(n)
    )
    try:
        if np.any(state.lb > state.ub + integrality_tol):
            raise _Infeasible("crossed input bounds")
        state.round_integer_bounds()
        with np.errstate(invalid="ignore"):
            narrow = (state.ub - state.lb <= integrality_tol).nonzero()[0]
        state.fix(narrow, (state.lb[narrow] + state.ub[narrow]) / 2.0)
        for _ in range(max_passes):
            state.stats.passes += 1
            changed = state.substitute_fixed()
            changed |= state.scan_rows()
            changed |= state.substitute_fixed()
            changed |= state.fix_empty_columns()
            if not changed:
                break
        state.substitute_fixed()
    except _Infeasible:
        return PresolveResult(INFEASIBLE, None, identity_post, state.stats)
    except _Unbounded:
        return PresolveResult(UNBOUNDED, None, identity_post, state.stats)

    kept = (~state.is_fixed).nonzero()[0]
    column_map = np.full(n, -1, dtype=np.int64)
    column_map[kept] = np.arange(kept.shape[0])
    fixed_values = np.where(state.is_fixed, state.fixed, 0.0)
    post = Postsolve(kept=kept, fixed_values=fixed_values, column_map=column_map)

    reduced = state.reduced_form(kept, column_map)
    state.stats.nnz_after = reduced.num_nonzeros
    status = SOLVED if kept.shape[0] == 0 else REDUCED
    return PresolveResult(status, reduced, post, state.stats)


def propagate_bounds(
    form: StandardForm,
    lb: np.ndarray,
    ub: np.ndarray,
    integrality_tol: float = 1e-6,
    max_rounds: int = 4,
) -> Tuple[bool, np.ndarray, np.ndarray]:
    """Node-level domain propagation over the rows of ``form``.

    Tightens the box ``[lb, ub]`` using each row's activity bounds (the
    classic knapsack propagation): a value a variable cannot take in *any*
    completion of the row is cut off, so the reduction never excludes a
    feasible point.  Returns ``(feasible, lb, ub)`` with tightened copies;
    ``feasible=False`` proves the node empty **without an LP solve**,
    which is where branch-and-bound saves most of its relaxation work
    after an SOS branching decision fixes a whole assignment row.
    """
    lb = np.asarray(lb, dtype=np.float64).copy()
    ub = np.asarray(ub, dtype=np.float64).copy()
    integrality = form.integrality

    blocks = (
        (form.A_ub_sparse, form.b_ub, False),
        (form.A_eq_sparse, form.b_eq, True),
    )
    for _ in range(max_rounds):
        prev_lb = lb.copy()
        prev_ub = ub.copy()
        for matrix, rhs_vec, is_eq in blocks:
            if matrix.nnz == 0:
                continue
            rows = matrix.rows_of_nonzeros()
            data = matrix.data
            cols = matrix.indices
            low, high, lo, hi = _row_activity(rows, data, cols, lb, ub, matrix.num_rows)
            if np.any(lo > rhs_vec + _FEAS_TOL):
                return False, lb, ub
            if is_eq and np.any(hi < rhs_vec - _FEAS_TOL):
                return False, lb, ub
            # Rows touching unbounded variables cannot propagate.
            usable = (np.isfinite(lo) & np.isfinite(hi))[rows]
            if not np.any(usable):
                continue
            with np.errstate(invalid="ignore", divide="ignore"):
                # Everyone else at their minimum contribution: the entry
                # must stay under the remaining row budget.
                ratio_min = (rhs_vec[rows] - (lo[rows] - low)) / data
            pos_sel = usable & (data > 0)
            neg_sel = usable & (data < 0)
            np.minimum.at(ub, cols[pos_sel], ratio_min[pos_sel])
            np.maximum.at(lb, cols[neg_sel], ratio_min[neg_sel])
            if is_eq:
                with np.errstate(invalid="ignore", divide="ignore"):
                    # Everyone else at their maximum: the entry must make
                    # up the rest of the == right-hand side.
                    ratio_max = (rhs_vec[rows] - (hi[rows] - high)) / data
                np.maximum.at(lb, cols[pos_sel], ratio_max[pos_sel])
                np.minimum.at(ub, cols[neg_sel], ratio_max[neg_sel])
        # Integer rounding (floor/ceil commute with the min/max above).
        tight = integrality & np.isfinite(ub)
        ub[tight] = np.floor(ub[tight] + integrality_tol)
        tight = integrality & np.isfinite(lb)
        lb[tight] = np.ceil(lb[tight] - integrality_tol)
        if np.any(lb > ub + integrality_tol):
            return False, lb, ub
        if np.array_equal(lb, prev_lb) and np.array_equal(ub, prev_ub):
            break
    return True, lb, ub
