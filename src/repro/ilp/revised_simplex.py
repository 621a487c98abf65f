"""Bounded-variable revised simplex with a dual mode for warm re-solves.

This is the second-generation LP kernel behind the built-in
branch-and-bound solver.  Compared with the dense two-phase tableau of
:mod:`repro.ilp.simplex` it changes three things that matter for the
mapping workloads:

* **Bounds are native.**  Variables live in ``[lb, ub]`` inside the
  algorithm (nonbasic variables sit at one of their bounds), so finite
  upper bounds no longer inflate the row count — a 0/1 model with ``n``
  variables loses ``n`` constraint rows compared with the tableau, and
  every pivot works on the smaller system.
* **The basis is a factorization, not a matrix.**  All basis solves go
  through FTRAN/BTRAN against a factorization object plus a product-form
  *eta file* of post-factorization pivots (:mod:`repro.ilp.lu`).  Small
  bases keep the dense explicit-inverse representation (one NumPy
  mat-vec beats any Python bookkeeping at ``m`` in the tens); larger
  bases switch to a Markowitz-pivot sparse LU whose solves touch only
  the structural non-zeros.  Refactorization is adaptive — triggered by
  eta-file length, eta fill-in, or a sampled residual breach — and the
  (basis, nonbasic-status) pair is exported as a :class:`BasisState`
  that callers can hand to a later solve.
* **A dual simplex mode restores feasibility after bound changes.**
  Branch-and-bound children differ from their parent by a few tightened
  bounds: the parent's optimal basis stays *dual* feasible, so the child
  re-solve starts from it and performs a handful of dual pivots instead
  of a full phase-1 + phase-2 run.  The same applies to the pipeline's
  Section 4.1 retries (one more variable fixed to zero) and to
  warm-chained explore sweeps.

Computational form
------------------
The :class:`~repro.ilp.standard_form.StandardForm` rows are lifted into
equalities by one slack column per row::

    A_ub x + s_ub = b_ub     0 <= s_ub < inf
    A_eq x + s_eq = b_eq     s_eq = 0

so ``W = [A | I]`` and a basis is any nonsingular m-column subset of
``W``.  ``W`` itself is never materialised: the engine keeps the
structural block as a CSC view of the standard form's CSR matrices
(slack columns are implicit unit vectors), and pricing, ratio tests and
basis solves all work off that view.  Cold solves start from the
all-slack basis and run a primal phase 1 (minimising the total bound
violation of the basic variables with short-step blocking) followed by
a primal phase 2.

Primal pricing is a full Dantzig scan (most negative reduced cost) and
the dual loop leaves on the largest bound violation; both switch to
Bland's rule after a stall.  After optimality the kernel always walks
the optimal face to a canonical vertex, so the returned solution is
identical across solve paths and basis representations.

Warm solves (:meth:`RevisedSimplex.solve` with a ``basis``) refactorize
the supplied basis, repair dual feasibility by bound flips where
possible, and run the bounded-variable dual simplex; any numerical
trouble (singular basis, unrepairable dual infeasibility, stalling)
falls back to the cold primal path rather than failing the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from .lu import DenseFactors, factorize_markowitz
from .solution import ERROR, INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from .standard_form import StandardForm

__all__ = ["BasisState", "RevisedOptions", "RevisedSimplex", "solve_lp_revised"]

# Nonbasic / basic variable statuses.
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3  # nonbasic at value zero (no finite bound to rest on)

#: pivot eligibility and improvement tolerance
_TOL = 1e-9
#: primal feasibility tolerance (solution values, not pivot eligibility)
_PTOL = 1e-7
#: dual feasibility tolerance used when accepting a warm basis
_DTOL = 1e-7

_FACTORIZATIONS = ("auto", "dense", "lu")


@dataclass
class RevisedOptions:
    """Tuning knobs for the revised simplex kernel."""

    max_iterations: int = 20000
    #: switch from Dantzig pricing to Bland's anti-cycling rule after
    #: this many iterations without objective (or infeasibility)
    #: improvement.
    stall_iterations: int = 200
    #: hard cap on pivots (dense mode) / update etas (LU mode) between
    #: refactorizations — the numerical-drift backstop the
    #: refactorization-drift tests pin.  Adaptive triggers (fill-in,
    #: residual breach) may refactorize sooner; this never lets the eta
    #: file grow past the cap.
    refactor_interval: int = 64
    #: basis representation: ``"dense"`` keeps an explicit ``B⁻¹``
    #: (fastest for tiny bases), ``"lu"`` a Markowitz sparse LU with a
    #: product-form eta file (scales with non-zeros, not ``m²``), and
    #: ``"auto"`` picks by row count against ``lu_threshold``.
    factorization: str = "auto"
    #: ``auto`` switches from dense to LU at this many rows — the
    #: measured wall-clock crossover for sparse standard forms (below
    #: it, one vectorised dense mat-vec still beats sparse
    #: substitution; above it the O(m²) updates dominate).
    lu_threshold: int = 500
    #: adaptive trigger — refactorize when the eta file's non-zeros
    #: exceed this multiple of the base factorization's fill (LU mode).
    refactor_fill_factor: float = 8.0
    #: adaptive trigger — probe ``‖B·x − v‖`` on a sampled right-hand
    #: side every this many etas and refactorize on a breach (LU mode;
    #: ``0`` disables the probe).
    residual_interval: int = 16
    #: residual magnitude that counts as a breach.
    residual_tol: float = 1e-6


@dataclass
class BasisState:
    """A reusable snapshot of one solve's optimal basis.

    ``basis`` holds the basic column index per row of the computational
    form ``[structural | slacks]``; ``status`` holds the
    :data:`AT_LOWER` / :data:`AT_UPPER` / :data:`FREE` resting place of
    every nonbasic column (:data:`BASIC` for basic ones).  The state is
    only meaningful for a form with the same row/column counts — the
    kernel re-validates and silently cold-starts on a mismatch.
    """

    basis: np.ndarray
    status: np.ndarray

    def matches(self, num_rows: int, num_cols: int) -> bool:
        return (
            self.basis.shape == (num_rows,)
            and self.status.shape == (num_cols,)
        )

    def copy(self) -> "BasisState":
        return BasisState(self.basis.copy(), self.status.copy())

    # ------------------------------------------------------------ round trip
    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (crosses process boundaries with contexts)."""
        return {
            "kind": "basis_state",
            "basis": self.basis.tolist(),
            "status": self.status.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BasisState":
        return cls(
            basis=np.asarray(data.get("basis") or [], dtype=np.int64),
            status=np.asarray(data.get("status") or [], dtype=np.int8),
        )


class RevisedSimplex:
    """Revised simplex engine bound to one constraint matrix.

    The engine is constructed from a :class:`StandardForm` and assembles
    a column-compressed view of the structural matrix once; every
    :meth:`solve` call then supplies (possibly different) variable
    bounds, which is exactly the branch-and-bound node pattern — the
    matrices never change between nodes, only the bound vectors do.
    :meth:`matches` lets callers reuse one engine across all node forms
    created by :meth:`StandardForm.with_bounds`.
    """

    def __init__(self, form: StandardForm, options: Optional[RevisedOptions] = None) -> None:
        self.options = options or RevisedOptions()
        if self.options.factorization not in _FACTORIZATIONS:
            raise ValueError(
                f"unknown factorization {self.options.factorization!r} "
                f"(expected one of {_FACTORIZATIONS})"
            )
        self._A_ub_sparse = form.A_ub_sparse
        self._A_eq_sparse = form.A_eq_sparse
        self._c_structural = form.c
        self.n = form.num_variables
        self.m_ub = form.num_ub_rows
        self.m_eq = form.num_eq_rows
        self.m = self.m_ub + self.m_eq
        self.total = self.n + self.m
        # CSC view of the structural block [A_ub; A_eq] — eq rows offset
        # below the ub rows.  Slack columns are implicit unit vectors, so
        # W = [A | I] is never materialised.
        self._build_csc(form)
        self.b = np.concatenate([form.b_ub, form.b_eq]) if self.m else np.zeros(0)
        c = np.zeros(self.total)
        c[: self.n] = form.c
        self.c = c
        # Fixed generic secondary objective for vertex canonicalization:
        # strictly positive, strictly decreasing, no two subset sums
        # likely to tie on a face edge.
        self._secondary = 1.0 / (np.arange(self.total, dtype=np.float64) + 2.0)
        # Dense B⁻¹ below the LU threshold, sparse LU above it.
        if self.options.factorization == "auto":
            self.mode = "lu" if self.m >= self.options.lu_threshold else "dense"
        else:
            self.mode = self.options.factorization
        # Deterministic ±1 sampled right-hand side for the residual probe.
        self._probe = np.where(np.arange(self.m) % 2 == 0, 1.0, -1.0)
        # ---- cumulative counters exposed for stats plumbing and tests
        self.refactorizations = 0
        self.refactor_triggers: Dict[str, int] = {}
        self.bland_switches = 0
        self.warm_attempts = 0
        self.warm_accepted = 0
        self.warm_fallbacks = 0
        self.etas_created = 0
        self.etas_applied = 0
        self.ftran_nnz = 0
        self.btran_nnz = 0
        # ---- per-solve state (set up by _cold_start / _warm_start)
        self.basis = np.zeros(0, dtype=np.int64)
        self.status = np.zeros(0, dtype=np.int8)
        self.x_basic = np.zeros(0)
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self._factor = None
        self._etas: list = []
        self._eta_nnz = 0
        self._pivots_since_refactor = 0
        self._refactors_this_solve = 0
        self._solve_triggers: Dict[str, int] = {}
        self._solve_etas_applied = 0
        self._solve_ftran_nnz = 0
        self._solve_btran_nnz = 0

    def _build_csc(self, form: StandardForm) -> None:
        ub, eq = form.A_ub_sparse, form.A_eq_sparse
        parts = []
        if ub.nnz:
            parts.append((ub.rows_of_nonzeros(), ub.indices, ub.data))
        if eq.nnz:
            parts.append((eq.rows_of_nonzeros() + self.m_ub, eq.indices, eq.data))
        if parts:
            rows = np.concatenate([p[0] for p in parts])
            cols = np.concatenate([p[1] for p in parts])
            vals = np.concatenate([p[2] for p in parts])
            order = np.lexsort((rows, cols))
            self._csc_rows = rows[order]
            self._csc_cols = cols[order]
            self._csc_vals = vals[order]
            counts = np.bincount(cols, minlength=self.n)
        else:
            self._csc_rows = np.zeros(0, dtype=np.int64)
            self._csc_cols = np.zeros(0, dtype=np.int64)
            self._csc_vals = np.zeros(0)
            counts = np.zeros(self.n, dtype=np.int64)
        self._csc_ptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        # Slack columns as ready-made (rows, vals) pairs.
        one = np.ones(1)
        self._slack_columns = [
            (np.array([i], dtype=np.int64), one) for i in range(self.m)
        ]

    # ------------------------------------------------------------------ reuse
    def matches(self, form: StandardForm) -> bool:
        """True when ``form`` shares this engine's matrices (bounds may differ)."""
        return (
            form.A_ub_sparse is self._A_ub_sparse
            and form.A_eq_sparse is self._A_eq_sparse
            and form.c is self._c_structural
        )

    # --------------------------------------------------------------- columns
    def _column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, values)`` of computational column ``j`` — O(nnz(column))."""
        if j >= self.n:
            return self._slack_columns[j - self.n]
        lo, hi = int(self._csc_ptr[j]), int(self._csc_ptr[j + 1])
        return self._csc_rows[lo:hi], self._csc_vals[lo:hi]

    def _w_matvec(self, values: np.ndarray) -> np.ndarray:
        """``W @ values`` off the CSC view, without materialising ``W``."""
        out = np.zeros(self.m)
        if self._csc_vals.size:
            out += np.bincount(
                self._csc_rows,
                weights=self._csc_vals * values[self._csc_cols],
                minlength=self.m,
            )
        if self.m:
            out += values[self.n :]
        return out

    def _pi_row(self, rho: np.ndarray) -> np.ndarray:
        """``rhoᵀ W`` over every column (a full row of ``B⁻¹W``)."""
        out = np.empty(self.total)
        if self._csc_vals.size:
            out[: self.n] = np.bincount(
                self._csc_cols,
                weights=self._csc_vals * rho[self._csc_rows],
                minlength=self.n,
            )
        else:
            out[: self.n] = 0.0
        out[self.n :] = rho
        return out

    def _reduced_costs(self, costs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``costs − yᵀW`` for every column, vectorised off the CSC view."""
        d = costs.copy()
        if self._csc_vals.size:
            d[: self.n] -= np.bincount(
                self._csc_cols,
                weights=self._csc_vals * y[self._csc_rows],
                minlength=self.n,
            )
        if self.m:
            d[self.n :] -= y
        return d

    # ---------------------------------------------------------- FTRAN / BTRAN
    def _ftran(self, rhs: np.ndarray, count: bool = True) -> np.ndarray:
        """Solve ``B x = rhs`` through the factorization plus the eta file."""
        x = self._factor.ftran(rhs)
        etas = self._etas
        if etas:
            for r, piv, rows, vals in etas:
                xr = x[r]
                if xr != 0.0:
                    xr /= piv
                    x[r] = xr
                    if rows.size:
                        x[rows] -= vals * xr
            if count:
                applied = len(etas)
                self.etas_applied += applied
                self._solve_etas_applied += applied
        if count:
            nnz = int(np.count_nonzero(x))
            self.ftran_nnz += nnz
            self._solve_ftran_nnz += nnz
        return x

    def _btran(self, cb: np.ndarray, count: bool = True) -> np.ndarray:
        """Solve ``Bᵀ y = cb`` through the eta file plus the factorization."""
        etas = self._etas
        if etas:
            v = np.array(cb, dtype=np.float64, copy=True)
            for r, piv, rows, vals in reversed(etas):
                vr = v[r]
                if rows.size:
                    vr -= float(vals @ v[rows])
                v[r] = vr / piv
            if count:
                applied = len(etas)
                self.etas_applied += applied
                self._solve_etas_applied += applied
        else:
            v = cb
        y = self._factor.btran(v)
        if count:
            nnz = int(np.count_nonzero(y))
            self.btran_nnz += nnz
            self._solve_btran_nnz += nnz
        return y

    def _btran_unit(self, row: int) -> np.ndarray:
        """Row ``row`` of ``B⁻¹`` (a BTRAN of the unit vector)."""
        if not self._etas and self._factor.kind == "dense":
            rho = self._factor.binv[row, :].copy()
            nnz = int(np.count_nonzero(rho))
            self.btran_nnz += nnz
            self._solve_btran_nnz += nnz
            return rho
        e = np.zeros(self.m)
        e[row] = 1.0
        return self._btran(e)

    def _ftran_column(self, j: int) -> np.ndarray:
        """``B⁻¹ W[:, j]`` — the entering column in basis coordinates."""
        rows, vals = self._column(j)
        rhs = np.zeros(self.m)
        rhs[rows] = vals
        return self._ftran(rhs)

    def _basis_matvec(self, x_pos: np.ndarray) -> np.ndarray:
        """``B @ x_pos`` accumulated column-by-column — O(nnz(B))."""
        out = np.zeros(self.m)
        for k in range(self.m):
            xv = x_pos[k]
            if xv == 0.0:
                continue
            rows, vals = self._column(int(self.basis[k]))
            out[rows] += vals * xv
        return out

    # ------------------------------------------------------------- diagnostics
    def factor_residual(self) -> float:
        """``‖B·x − v‖_max`` for a sampled FTRAN solve (drift probe).

        The probe right-hand side is a fixed ±1 pattern, the solve goes
        through the current factorization *and* eta file, and the
        product ``B·x`` is accumulated column-sparsely — O(nnz) total,
        never a dense rebuild.
        """
        if self.m == 0 or self.basis.shape[0] != self.m or self._factor is None:
            return 0.0
        x = self._ftran(self._probe, count=False)
        residual = self._basis_matvec(x)
        residual -= self._probe
        return float(np.max(np.abs(residual)))

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Optional[BasisState] = None,
    ) -> LpResult:
        """Solve ``min c·x`` over the engine's rows and the bounds ``[lb, ub]``.

        ``basis`` (optional) warm-starts the dual simplex from a previous
        solve's :class:`BasisState`; incompatible or numerically unusable
        bases silently fall back to a cold primal solve.  The returned
        :class:`LpResult` carries the optimal basis (``result.basis``)
        for the caller to reuse, plus ``result.warm`` (the dual warm path
        completed) and ``result.basis_reused`` (a supplied basis was
        accepted) for the statistics plumbing.
        """
        self._refactors_this_solve = 0
        self._solve_triggers = {}
        self._solve_etas_applied = 0
        self._solve_ftran_nnz = 0
        self._solve_btran_nnz = 0
        self.lower = np.concatenate([np.asarray(lb, dtype=np.float64), self._slack_lower()])
        self.upper = np.concatenate([np.asarray(ub, dtype=np.float64), self._slack_upper()])
        if np.any(self.lower > self.upper + _PTOL):
            return LpResult(INFEASIBLE)

        if self.m == 0:
            return self._solve_unconstrained(lb, ub)

        iterations = 0
        reused = False
        if basis is not None:
            self.warm_attempts += 1
            if self._warm_start(basis):
                self.warm_accepted += 1
                reused = True
                status, iterations = self._dual_loop()
                if status == "optimal":
                    iterations += self._canonicalize()
                    return self._result(OPTIMAL, iterations, warm=True, reused=True)
                if status == "infeasible":
                    # Dual unboundedness proves primal infeasibility — the
                    # installed basis was dual feasible, so this is sound.
                    return self._result(INFEASIBLE, iterations, warm=True,
                                        reused=True)
                # Stall / iteration limit: solve cold instead of failing.
                self.warm_fallbacks += 1

        self._cold_start()
        status, more = self._primal_phase1()
        iterations += more
        if status == "infeasible":
            return self._result(INFEASIBLE, iterations, reused=reused)
        if status != "feasible":
            return self._result(ERROR, iterations, reused=reused)
        status, more = self._primal_loop(self.c)
        iterations += more
        if status == "unbounded":
            return self._result(UNBOUNDED, iterations, reused=reused)
        if status != "optimal":
            return self._result(ERROR, iterations, reused=reused)
        iterations += self._canonicalize()
        return self._result(OPTIMAL, iterations, reused=reused)

    # --------------------------------------------------------------- plumbing
    def _slack_lower(self) -> np.ndarray:
        return np.zeros(self.m)

    def _slack_upper(self) -> np.ndarray:
        upper = np.full(self.m, np.inf)
        upper[self.m_ub :] = 0.0  # == rows: slack fixed at zero
        return upper

    def _solve_unconstrained(self, lb, ub) -> LpResult:
        c = self._c_structural
        # Zero-cost variables take any feasible value: zero clipped into
        # the box (which is the lower bound when that is finite).
        indifferent = np.clip(np.zeros_like(c), lb, ub)
        x = np.where(c > 0, lb, np.where(c < 0, ub, indifferent))
        if np.any(~np.isfinite(x)):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, x=np.asarray(x, dtype=np.float64),
                        objective=float(c @ x), iterations=0)

    def _nonbasic_values(self) -> np.ndarray:
        """Full-length value vector with basic entries zeroed."""
        values = np.zeros(self.total)
        at_lower = self.status == AT_LOWER
        at_upper = self.status == AT_UPPER
        values[at_lower] = self.lower[at_lower]
        values[at_upper] = self.upper[at_upper]
        values[self.basis] = 0.0
        return values

    def _recompute_basics(self) -> None:
        rhs = self.b - self._w_matvec(self._nonbasic_values())
        self.x_basic = self._ftran(rhs)

    def _refactorize(self, trigger: str = "start") -> bool:
        """Factorize the current basis from scratch; count by ``trigger``.

        On failure (singular basis) the previous factorization and eta
        file — still a valid representation — are left installed.
        """
        columns = [self._column(int(j)) for j in self.basis]
        if self.mode == "dense":
            matrix = np.zeros((self.m, self.m))
            for k, (rows, vals) in enumerate(columns):
                matrix[rows, k] = vals
            factor = DenseFactors.from_matrix(matrix)
        else:
            factor = factorize_markowitz(columns, self.m)
        if factor is None:
            return False
        self._factor = factor
        self._etas = []
        self._eta_nnz = 0
        self.refactorizations += 1
        self._refactors_this_solve += 1
        self.refactor_triggers[trigger] = self.refactor_triggers.get(trigger, 0) + 1
        self._solve_triggers[trigger] = self._solve_triggers.get(trigger, 0) + 1
        self._pivots_since_refactor = 0
        return True

    def _cold_start(self) -> None:
        """All-slack basis; structural variables rest on their nearest bound."""
        self.basis = np.arange(self.n, self.n + self.m, dtype=np.int64)
        status = np.full(self.total, AT_LOWER, dtype=np.int8)
        no_lower = ~np.isfinite(self.lower)
        has_upper = np.isfinite(self.upper)
        status[no_lower & has_upper] = AT_UPPER
        status[no_lower & ~has_upper] = FREE
        status[self.basis] = BASIC
        self.status = status
        # The all-slack basis is the identity — no need to eliminate.
        if self.mode == "dense":
            self._factor = DenseFactors.identity(self.m)
        else:
            self._factor = factorize_markowitz(
                [self._slack_columns[i] for i in range(self.m)], self.m
            )
        self._etas = []
        self._eta_nnz = 0
        self.refactorizations += 1
        self._refactors_this_solve += 1
        self.refactor_triggers["start"] = self.refactor_triggers.get("start", 0) + 1
        self._solve_triggers["start"] = self._solve_triggers.get("start", 0) + 1
        self._pivots_since_refactor = 0
        self._recompute_basics()

    def _warm_start(self, state: BasisState) -> bool:
        """Install ``state`` and verify it is usable for a dual solve."""
        if not state.matches(self.m, self.total):
            return False
        # Copy: the node's BasisState is shared by every sibling, and the
        # solve mutates the installed arrays in place.
        basis = np.array(state.basis, dtype=np.int64, copy=True)
        if np.any(basis < 0) or np.any(basis >= self.total):
            return False
        if np.unique(basis).shape[0] != self.m:
            return False
        status = np.asarray(state.status, dtype=np.int8).copy()
        is_basic = np.zeros(self.total, dtype=bool)
        is_basic[basis] = True
        # Columns recorded basic that are not in the basis (a state from
        # a foreign model) rest on a bound like any other nonbasic.
        status[(status == BASIC) & ~is_basic] = AT_LOWER
        status[basis] = BASIC
        # Re-anchor nonbasic columns whose recorded bound does not exist
        # under the current bound vectors (chained contexts may cross
        # models; branching only ever tightens, but stay defensive).
        nonbasic = status != BASIC
        at_lower = nonbasic & (status == AT_LOWER) & ~np.isfinite(self.lower)
        status[at_lower & np.isfinite(self.upper)] = AT_UPPER
        status[at_lower & ~np.isfinite(self.upper)] = FREE
        at_upper = nonbasic & (status == AT_UPPER) & ~np.isfinite(self.upper)
        status[at_upper & np.isfinite(self.lower)] = AT_LOWER
        status[at_upper & ~np.isfinite(self.lower)] = FREE
        free = nonbasic & (status == FREE) & np.isfinite(self.lower)
        status[free] = AT_LOWER
        self.basis = basis
        self.status = status
        self._factor = None
        if not self._refactorize():
            return False
        # Dual feasibility: repair by bound flips where a finite opposite
        # bound exists; give up (cold start) when it does not.
        y = self._btran(self.c[self.basis])
        d = self._reduced_costs(self.c, y)
        movable = (self.upper - self.lower > _TOL) & (self.status != BASIC)
        bad_lower = movable & (self.status == AT_LOWER) & (d < -_DTOL)
        if np.any(bad_lower & ~np.isfinite(self.upper)):
            return False
        bad_upper = movable & (self.status == AT_UPPER) & (d > _DTOL)
        if np.any(bad_upper & ~np.isfinite(self.lower)):
            return False
        if np.any(movable & (self.status == FREE) & (np.abs(d) > _DTOL)):
            return False
        self.status[bad_lower] = AT_UPPER
        self.status[bad_upper] = AT_LOWER
        self._recompute_basics()
        return True

    # ----------------------------------------------------------------- pivots
    def _pivot_update(self, row: int, alpha: np.ndarray) -> bool:
        """Absorb the basis change of ``row`` into the factorization.

        Dense mode applies the classic rank-1 inverse update; LU mode
        appends a product-form eta recording the (genuinely sparse)
        entering column.  Either mode may then refactorize — on the
        pivot/eta-count cap, on eta fill-in, or on a sampled residual
        breach — in which case ``x_basic`` is recomputed exactly and
        True is returned.
        """
        opts = self.options
        self._pivots_since_refactor += 1
        if self.mode == "dense":
            self._factor.update(row, alpha)
            if self._pivots_since_refactor >= opts.refactor_interval:
                if self._refactorize("interval"):
                    self._recompute_basics()
                    return True
            return False
        # LU mode: product-form update eta.  FTRAN through sparse LU
        # leaves unreached entries exactly 0.0, so nonzero extraction
        # recovers the true sparsity of the entering column.
        rows = np.flatnonzero(alpha)
        rows = rows[rows != row]
        self._etas.append((int(row), float(alpha[row]), rows, alpha[rows]))
        self._eta_nnz += rows.size + 1
        self.etas_created += 1
        trigger = None
        if len(self._etas) >= opts.refactor_interval:
            trigger = "interval"
        elif self._eta_nnz > opts.refactor_fill_factor * max(self.m, self._factor.nnz):
            trigger = "fill"
        elif (
            opts.residual_interval
            and len(self._etas) % opts.residual_interval == 0
            and self.factor_residual() > opts.residual_tol
        ):
            trigger = "residual"
        if trigger is not None and self._refactorize(trigger):
            self._recompute_basics()
            return True
        return False

    # ----------------------------------------------------------------- primal
    def _primal_phase1(self) -> Tuple[str, int]:
        """Drive the basic variables inside their bounds (short-step).

        Minimises the total bound violation of the basic variables with a
        piecewise-linear cost that is refreshed every iteration; blocking
        is short-step (an infeasible basic stops the ratio test when it
        *reaches* its violated bound), so the violation sum never
        increases and every pivot keeps the remaining pieces linear.
        """
        opts = self.options
        iterations = 0
        stall = 0
        bland = False
        best = math.inf
        while iterations < opts.max_iterations:
            lowerB = self.lower[self.basis]
            upperB = self.upper[self.basis]
            below = self.x_basic < lowerB - _PTOL
            above = self.x_basic > upperB + _PTOL
            infeasibility = float(
                np.sum(lowerB[below] - self.x_basic[below])
                + np.sum(self.x_basic[above] - upperB[above])
            )
            if infeasibility <= _PTOL:
                return "feasible", iterations
            if infeasibility < best - _TOL:
                best = infeasibility
                stall = 0
            elif stall > opts.stall_iterations and not bland:
                bland = True
                self.bland_switches += 1
            else:
                stall += 1
            # Phase-1 cost: -1 per below-bound basic, +1 per above-bound.
            w = np.zeros(self.total)
            w[self.basis[below]] = -1.0
            w[self.basis[above]] = 1.0
            entering, direction = self._price(w, bland)
            if entering < 0:
                return "infeasible", iterations
            alpha = self._ftran_column(entering)
            step, blocker, land_upper = self._ratio_test(
                entering, direction, alpha, bland, phase_one=(below, above)
            )
            if step is None:
                # Numerically unbounded phase-1 descent: give up cleanly.
                return "error", iterations
            self._apply_step(entering, direction, alpha, step, blocker, land_upper)
            iterations += 1
        return "error", iterations

    def _canonicalize(self) -> int:
        """Pivot to the deterministic vertex of the optimal face.

        Only columns with zero reduced cost (w.r.t. the real objective)
        may enter, which keeps ``c·x`` exactly invariant: pivoting on a
        zero-reduced-cost column leaves every reduced cost unchanged.
        Minimising the fixed generic secondary objective over that face
        lands on one well-defined vertex no matter how the solve got to
        optimality — warm dual path and cold primal path included — so a
        dual warm re-solve and a cold solve of the same node give
        byte-identical solutions, the property the warm-vs-cold
        fingerprint tests pin.
        """
        status, iterations = self._primal_loop(self._secondary, face_costs=self.c)
        # "unbounded" (an unbounded optimal face) and "error" both simply
        # keep the current — already optimal — vertex.
        return iterations

    def _primal_loop(
        self,
        costs: np.ndarray,
        face_costs: Optional[np.ndarray] = None,
    ) -> Tuple[str, int]:
        """Phase-2 primal iterations under the static cost vector ``costs``.

        With ``face_costs`` the loop is restricted to the optimal face of
        that vector (entering columns must price to zero under it).
        """
        opts = self.options
        iterations = 0
        stall = 0
        bland = False
        best = math.inf
        limit = opts.max_iterations if face_costs is None else 2 * self.total + 16
        while iterations < limit:
            entering, direction = self._price(costs, bland, face_costs=face_costs)
            if entering < 0:
                return "optimal", iterations
            alpha = self._ftran_column(entering)
            step, blocker, land_upper = self._ratio_test(entering, direction, alpha, bland)
            if step is None:
                return "unbounded", iterations
            self._apply_step(entering, direction, alpha, step, blocker, land_upper)
            iterations += 1
            objective = float(costs @ self._current_values())
            if objective < best - _TOL:
                best = objective
                stall = 0
            elif stall > opts.stall_iterations and not bland:
                bland = True
                self.bland_switches += 1
            else:
                stall += 1
        return "error", iterations

    def _price(
        self,
        costs: np.ndarray,
        bland: bool,
        face_costs: Optional[np.ndarray] = None,
    ) -> Tuple[int, int]:
        """Pick the entering column: Dantzig's most improving reduced cost,
        or the lowest eligible index in Bland mode.

        With ``face_costs`` only columns that price to zero under that
        vector are eligible (the canonicalization face walk).
        """
        y = self._btran(costs[self.basis])
        d = self._reduced_costs(costs, y)
        movable = self.upper - self.lower > _TOL
        nonbasic = (self.status != BASIC) & movable
        if face_costs is not None:
            y_face = self._btran(face_costs[self.basis])
            d_face = self._reduced_costs(face_costs, y_face)
            nonbasic &= np.abs(d_face) <= _DTOL
        increase = nonbasic & (
            ((self.status == AT_LOWER) | (self.status == FREE)) & (d < -_TOL)
        )
        decrease = nonbasic & (
            ((self.status == AT_UPPER) | (self.status == FREE)) & (d > _TOL)
        )
        eligible = np.where(increase | decrease)[0]
        if eligible.size == 0:
            return -1, 0
        if bland:
            entering = int(eligible[0])
        else:
            entering = int(eligible[np.argmax(np.abs(d[eligible]))])
        return entering, (1 if increase[entering] else -1)

    def _ratio_test(
        self,
        entering: int,
        direction: int,
        alpha: np.ndarray,
        bland: bool,
        phase_one: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        """Largest step the entering variable can take.

        Returns ``(step, blocker, land_upper)`` where ``blocker`` is
        ``-1`` for a bound flip of the entering variable, otherwise the
        blocking basis row, and ``land_upper`` says which bound the
        leaving variable rests on.  ``(None, None, None)`` signals an
        unbounded step.  In phase 1 (``phase_one`` carries the
        below/above masks) infeasible basics only block when they reach
        the bound they violate; feasible basics block as usual.
        """
        delta = -direction * alpha  # d(x_B) per unit step of the entering var
        lowerB = self.lower[self.basis]
        upperB = self.upper[self.basis]
        ratios = np.full(self.m, np.inf)
        land_upper_mask = np.zeros(self.m, dtype=bool)
        if phase_one is not None:
            below, above = phase_one
            feasible = ~(below | above)
        else:
            below = above = None
            feasible = np.ones(self.m, dtype=bool)

        shrink = feasible & (delta < -_TOL) & np.isfinite(lowerB)
        ratios[shrink] = (self.x_basic[shrink] - lowerB[shrink]) / (-delta[shrink])
        grow = feasible & (delta > _TOL) & np.isfinite(upperB)
        ratios[grow] = (upperB[grow] - self.x_basic[grow]) / delta[grow]
        land_upper_mask[grow] = True
        if below is not None:
            rising = below & (delta > _TOL)
            ratios[rising] = (lowerB[rising] - self.x_basic[rising]) / delta[rising]
            land_upper_mask[rising] = False
            falling = above & (delta < -_TOL)
            ratios[falling] = (self.x_basic[falling] - upperB[falling]) / (-delta[falling])
            land_upper_mask[falling] = True
        np.maximum(ratios, 0.0, out=ratios)

        span = self.upper[entering] - self.lower[entering]
        bound_step = span if math.isfinite(span) else np.inf

        best = float(np.min(ratios))
        if bound_step < best - _TOL:
            return bound_step, -1, False
        if not math.isfinite(best):
            if math.isfinite(bound_step):
                return bound_step, -1, False
            return None, None, None
        candidates = np.where(ratios <= best + _TOL)[0]
        if bland:
            blocker = int(candidates[np.argmin(self.basis[candidates])])
        else:
            blocker = int(candidates[np.argmax(np.abs(delta[candidates]))])
        return float(ratios[blocker]), blocker, bool(land_upper_mask[blocker])

    def _apply_step(self, entering, direction, alpha, step, blocker, land_upper) -> None:
        """Move the entering variable by ``step`` and pivot/flip accordingly."""
        if step:
            self.x_basic -= direction * step * alpha
        if blocker == -1:
            # Bound flip: the entering variable crosses to its other bound.
            self.status[entering] = AT_UPPER if direction > 0 else AT_LOWER
            return
        if self.status[entering] == AT_LOWER:
            value = self.lower[entering] + direction * step
        elif self.status[entering] == AT_UPPER:
            value = self.upper[entering] + direction * step
        else:  # FREE enters from zero
            value = direction * step
        leaving = int(self.basis[blocker])
        self.status[leaving] = AT_UPPER if land_upper else AT_LOWER
        self.basis[blocker] = entering
        self.status[entering] = BASIC
        if not self._pivot_update(blocker, alpha):
            self.x_basic[blocker] = value

    def _current_values(self) -> np.ndarray:
        values = self._nonbasic_values()
        values[self.basis] = self.x_basic
        return values

    # ------------------------------------------------------------------- dual
    def _dual_loop(self) -> Tuple[str, int]:
        """Bounded-variable dual simplex from the installed (dual-feasible) basis."""
        opts = self.options
        iterations = 0
        stall = 0
        bland = False
        # The monotone quantity of the dual simplex is the objective
        # (nondecreasing every pivot); total primal violation may
        # oscillate on the way to feasibility, so stall detection keys
        # on the objective, not the violation.
        best_obj = -math.inf
        while iterations < opts.max_iterations:
            lowerB = self.lower[self.basis]
            upperB = self.upper[self.basis]
            with np.errstate(invalid="ignore"):
                viol_low = lowerB - self.x_basic
                viol_up = self.x_basic - upperB
                violation = np.maximum(np.maximum(viol_low, viol_up), 0.0)
            violation[~np.isfinite(violation)] = 0.0
            total_viol = float(np.sum(violation))
            if total_viol <= _PTOL * max(1, self.m):
                return "optimal", iterations
            objective = float(self.c @ self._current_values())
            if objective > best_obj + _TOL:
                best_obj = objective
                stall = 0
            else:
                stall += 1
                if not bland and stall > opts.stall_iterations:
                    bland = True
                    self.bland_switches += 1
                    stall = 0
                elif bland and stall > 4 * max(1, opts.stall_iterations):
                    # Bland's rule should terminate on its own; this is
                    # the belt-and-braces exit to the cold fallback.
                    return "stalled", iterations
            if bland:
                row = int(np.where(violation > _PTOL)[0][0])
            else:
                row = int(np.argmax(violation))
            leaving_below = bool(viol_low[row] >= viol_up[row])

            rho = self._btran_unit(row)
            alpha_row = self._pi_row(rho)
            # sigma orients the row so eligible entering columns raise a
            # below-bound basic / lower an above-bound one.
            sigma = -1.0 if leaving_below else 1.0
            alpha_eff = sigma * alpha_row
            movable = (self.upper - self.lower > _TOL) & (self.status != BASIC)
            eligible = movable & (
                ((self.status == AT_LOWER) & (alpha_eff > _TOL))
                | ((self.status == AT_UPPER) & (alpha_eff < -_TOL))
                | ((self.status == FREE) & (np.abs(alpha_eff) > _TOL))
            )
            idx = np.where(eligible)[0]
            if idx.size == 0:
                return "infeasible", iterations
            y = self._btran(self.c[self.basis])
            d = self._reduced_costs(self.c, y)
            # Dual ratio: d_j / alpha_eff_j is >= 0 for every eligible
            # column (AT_LOWER has d >= 0, alpha_eff > 0; AT_UPPER has
            # d <= 0, alpha_eff < 0; FREE has d ~ 0).
            ratios = d[idx] / alpha_eff[idx]
            np.maximum(ratios, 0.0, out=ratios)
            best_ratio = float(np.min(ratios))
            ties = idx[ratios <= best_ratio + _TOL]
            if bland:
                entering = int(ties[0])
            else:
                entering = int(ties[np.argmax(np.abs(alpha_row[ties]))])

            target = lowerB[row] if leaving_below else upperB[row]
            step = (self.x_basic[row] - target) / alpha_row[entering]
            alpha = self._ftran_column(entering)
            if self.status[entering] == AT_LOWER:
                value = self.lower[entering] + step
            elif self.status[entering] == AT_UPPER:
                value = self.upper[entering] + step
            else:
                value = step
            self.x_basic -= step * alpha
            leaving = int(self.basis[row])
            self.status[leaving] = AT_LOWER if leaving_below else AT_UPPER
            self.basis[row] = entering
            self.status[entering] = BASIC
            if not self._pivot_update(row, alpha):
                self.x_basic[row] = value
            iterations += 1
        return "stalled", iterations

    # ----------------------------------------------------------------- result
    def _result(self, status: str, iterations: int, warm: bool = False,
                reused: bool = False) -> LpResult:
        refactors = self._refactors_this_solve
        counters = dict(
            refactorizations=refactors,
            etas_applied=self._solve_etas_applied,
            ftran_nnz=self._solve_ftran_nnz,
            btran_nnz=self._solve_btran_nnz,
            refactor_triggers=dict(self._solve_triggers),
        )
        if status != OPTIMAL:
            return LpResult(status, iterations=iterations, warm=warm,
                            basis_reused=reused, **counters)
        values = self._current_values()
        x = values[: self.n]
        lb = self.lower[: self.n]
        ub = self.upper[: self.n]
        # Clip pivot fuzz back into the box (np.clip handles infinite
        # bounds on either side).
        x = np.clip(x, lb, ub)
        # Structural reduced costs at the optimal basis: one extra BTRAN
        # (after the counters snapshot, so per-solve accounting is not
        # disturbed) buys branch-and-bound its reduced-cost penalties.
        y = self._btran(self.c[self.basis])
        reduced = self._reduced_costs(self.c, y)[: self.n].copy()
        return LpResult(
            OPTIMAL,
            x=x,
            objective=float(self._c_structural @ x),
            iterations=iterations,
            basis=BasisState(self.basis.copy(), self.status.copy()),
            warm=warm,
            basis_reused=reused,
            reduced_costs=reduced,
            **counters,
        )


def solve_lp_revised(
    form: StandardForm,
    options: Optional[RevisedOptions] = None,
    basis: Optional[BasisState] = None,
) -> LpResult:
    """One-shot convenience wrapper: build an engine and solve ``form``."""
    engine = RevisedSimplex(form, options)
    return engine.solve(form.lb, form.ub, basis=basis)
