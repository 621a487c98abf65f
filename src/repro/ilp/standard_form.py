"""Conversion of a :class:`repro.ilp.model.Model` into matrix standard form.

Solvers (the built-in simplex, the branch-and-bound relaxation loop and the
SciPy backends) all consume the same structured representation built here::

    minimise      c @ x  (+ offset)
    subject to    A_ub @ x <= b_ub
                  A_eq @ x == b_eq
                  lb <= x <= ub

Maximisation models are converted by negating the objective; the recorded
``objective_scale`` restores the sign when reporting results.  ``>=`` rows
are flipped into ``<=`` rows.

The constraint matrices are stored sparsely (:class:`repro.ilp.sparse.
CsrMatrix`): the mapping formulations touch only a handful of columns per
row, so model assembly and matrix-vector products scale with the non-zero
count rather than ``rows x columns``.  Consumers that genuinely need a
dense array — the simplex tableau — read the ``A_ub`` / ``A_eq``
properties, which materialise (and cache) the dense view on first
access; everything else, the SciPy/HiGHS backends included, works off
``A_ub_sparse`` / ``A_eq_sparse``.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from .errors import ModelError
from .expr import EQ, GE, LE
from .model import MAXIMIZE, Model
from .sparse import CsrMatrix

__all__ = ["StandardForm", "to_standard_form"]

MatrixLike = Union[np.ndarray, CsrMatrix]


def _as_sparse(matrix: MatrixLike, num_cols: int) -> CsrMatrix:
    if isinstance(matrix, CsrMatrix):
        return matrix
    array = np.asarray(matrix, dtype=np.float64)
    if array.size == 0:
        return CsrMatrix.empty(num_cols)
    return CsrMatrix.from_dense(array)


class StandardForm:
    """Matrix view of a model, plus the metadata needed to interpret it.

    ``A_ub`` / ``A_eq`` accept either dense arrays or :class:`CsrMatrix`
    instances; internally everything is kept sparse and the dense view is
    cached on the sparse object, so bound-sharing copies created by
    :meth:`with_bounds` also share any materialised dense array.
    """

    __slots__ = (
        "c", "A_ub_sparse", "b_ub", "A_eq_sparse", "b_eq", "lb", "ub",
        "integrality", "objective_offset", "objective_scale",
        "variable_names", "row_names_ub", "row_names_eq",
    )

    def __init__(
        self,
        c: np.ndarray,
        A_ub: MatrixLike,
        b_ub: np.ndarray,
        A_eq: MatrixLike,
        b_eq: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        integrality: np.ndarray,
        objective_offset: float = 0.0,
        objective_scale: float = 1.0,
        variable_names: Tuple[str, ...] = (),
        row_names_ub: Tuple[str, ...] = (),
        row_names_eq: Tuple[str, ...] = (),
    ) -> None:
        self.c = np.asarray(c, dtype=np.float64)
        n = int(self.c.shape[0])
        self.A_ub_sparse = _as_sparse(A_ub, n)
        self.b_ub = np.asarray(b_ub, dtype=np.float64)
        self.A_eq_sparse = _as_sparse(A_eq, n)
        self.b_eq = np.asarray(b_eq, dtype=np.float64)
        self.lb = np.asarray(lb, dtype=np.float64)
        self.ub = np.asarray(ub, dtype=np.float64)
        self.integrality = np.asarray(integrality, dtype=bool)
        #: +1 for minimisation models, -1 for maximisation (objective negated).
        self.objective_offset = float(objective_offset)
        self.objective_scale = float(objective_scale)
        self.variable_names = tuple(variable_names)
        self.row_names_ub = tuple(row_names_ub)
        self.row_names_eq = tuple(row_names_eq)

    # ------------------------------------------------------------ dense view
    @property
    def A_ub(self) -> np.ndarray:
        """Dense ``<=`` matrix (materialised lazily, cached, read-only)."""
        return self.A_ub_sparse.toarray()

    @property
    def A_eq(self) -> np.ndarray:
        """Dense ``==`` matrix (materialised lazily, cached, read-only)."""
        return self.A_eq_sparse.toarray()

    # ------------------------------------------------------------ dimensions
    @property
    def num_variables(self) -> int:
        return int(self.c.shape[0])

    @property
    def num_ub_rows(self) -> int:
        return int(self.b_ub.shape[0])

    @property
    def num_eq_rows(self) -> int:
        return int(self.b_eq.shape[0])

    @property
    def num_nonzeros(self) -> int:
        """Total constraint non-zeros (the size presolve actually fights)."""
        return self.A_ub_sparse.nnz + self.A_eq_sparse.nnz

    def user_objective(self, x: np.ndarray) -> float:
        """Objective value in the *user's* sense (undo min/max conversion)."""
        internal = float(self.c @ x) + self.objective_offset
        return self.objective_scale * internal

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Check ``x`` against the bounds, integrality and rows, each within ``tol``.

        The rows are the model's, one for one (``>=`` rows negated), so
        this agrees with :meth:`Model.is_feasible` on a form of the model's
        own bounds.
        """
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < self.lb - tol) or np.any(x > self.ub + tol):
            return False
        integers = x[self.integrality]
        if np.any(np.abs(integers - np.round(integers)) > tol):
            return False
        if np.any(self.A_ub_sparse.matvec(x) > self.b_ub + tol):
            return False
        return not np.any(np.abs(self.A_eq_sparse.matvec(x) - self.b_eq) > tol)

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "StandardForm":
        """Return a copy of the form with replaced variable bounds.

        Used by branch-and-bound to create child subproblems cheaply: the
        matrices are shared (they never change between nodes), only the
        bound vectors differ.
        """
        return StandardForm(
            c=self.c,
            A_ub=self.A_ub_sparse,
            b_ub=self.b_ub,
            A_eq=self.A_eq_sparse,
            b_eq=self.b_eq,
            lb=lb,
            ub=ub,
            integrality=self.integrality,
            objective_offset=self.objective_offset,
            objective_scale=self.objective_scale,
            variable_names=self.variable_names,
            row_names_ub=self.row_names_ub,
            row_names_eq=self.row_names_eq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StandardForm({self.num_variables} vars, {self.num_ub_rows} ub "
            f"rows, {self.num_eq_rows} eq rows, {self.num_nonzeros} nz)"
        )


def to_standard_form(model: Model) -> StandardForm:
    """Build the :class:`StandardForm` for ``model`` (sparse assembly)."""
    n = model.num_variables
    if n == 0:
        raise ModelError("cannot convert an empty model to standard form")

    c = np.zeros(n, dtype=np.float64)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff
    offset = model.objective.constant

    scale = 1.0
    if model.sense == MAXIMIZE:
        # Internally everything minimises; negate and remember.
        c = -c
        offset = -offset
        scale = -1.0

    ub_rows: List[dict] = []
    ub_rhs: List[float] = []
    ub_names: List[str] = []
    eq_rows: List[dict] = []
    eq_rhs: List[float] = []
    eq_names: List[str] = []

    for constraint in model.constraints:
        for idx in constraint.expr.coeffs:
            if idx >= n:
                raise ModelError(
                    f"constraint {constraint.name!r} references variable index "
                    f"{idx} outside the model"
                )
        if constraint.sense == LE:
            ub_rows.append(dict(constraint.expr.coeffs))
            ub_rhs.append(constraint.rhs)
            ub_names.append(constraint.name)
        elif constraint.sense == GE:
            ub_rows.append({i: -v for i, v in constraint.expr.coeffs.items()})
            ub_rhs.append(-constraint.rhs)
            ub_names.append(constraint.name)
        elif constraint.sense == EQ:
            eq_rows.append(dict(constraint.expr.coeffs))
            eq_rhs.append(constraint.rhs)
            eq_names.append(constraint.name)
        else:  # pragma: no cover - Constraint already validates the sense
            raise ModelError(f"unknown sense {constraint.sense!r}")

    lb = np.array([v.lb for v in model.variables], dtype=np.float64)
    ub = np.array([v.ub for v in model.variables], dtype=np.float64)
    integrality = np.array([v.is_integer for v in model.variables], dtype=bool)

    return StandardForm(
        c=c,
        A_ub=CsrMatrix.from_coeff_rows(ub_rows, n),
        b_ub=np.asarray(ub_rhs, dtype=np.float64),
        A_eq=CsrMatrix.from_coeff_rows(eq_rows, n),
        b_eq=np.asarray(eq_rhs, dtype=np.float64),
        lb=lb,
        ub=ub,
        integrality=integrality,
        objective_offset=offset,
        objective_scale=scale,
        variable_names=tuple(v.name for v in model.variables),
        row_names_ub=tuple(ub_names),
        row_names_eq=tuple(eq_names),
    )
