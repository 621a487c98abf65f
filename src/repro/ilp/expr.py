"""Linear-expression building blocks for the ILP modelling layer.

This module provides the two objects user code manipulates when writing a
model: :class:`Variable` and :class:`LinExpr`.  Both support the usual
arithmetic operators so that constraints and objectives read like the
mathematical formulation in the paper, e.g.::

    model.add_constraint(sum(z[d, t] for t in types) == 1, name=f"uniq[{d}]")

Expressions are immutable from the caller's point of view: every operator
returns a fresh :class:`LinExpr`.  Internally an expression is a mapping
from variable *index* to coefficient plus a constant term, which keeps the
conversion to matrix form in :mod:`repro.ilp.standard_form` trivial and
fast.

Comparison operators (``<=``, ``>=``, ``==``) build :class:`Constraint`
objects instead of booleans, mirroring the style of mainstream modelling
APIs (PuLP, gurobipy, CPLEX docplex).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import ModelError, NonLinearError

__all__ = [
    "Variable",
    "LinExpr",
    "Constraint",
    "LE",
    "GE",
    "EQ",
    "quicksum",
]

#: Constraint sense markers.  Kept as plain strings so that solutions and
#: standard forms serialise naturally.
LE = "<="
GE = ">="
EQ = "=="

_SENSES = (LE, GE, EQ)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Variable:
    """A single decision variable owned by a :class:`repro.ilp.model.Model`.

    Variables are created through the model's ``add_binary`` /
    ``add_integer`` / ``add_continuous`` methods, never directly; the model
    assigns the ``index`` used to address the variable in matrix form.

    Parameters
    ----------
    name:
        Human-readable identifier; must be unique within the owning model.
    index:
        Column index of the variable in the model's matrix representation.
    lb, ub:
        Lower and upper bounds.  ``ub`` may be ``math.inf``.
    is_integer:
        Whether the variable is restricted to integer values.  Binary
        variables are integer variables with bounds ``[0, 1]``.
    """

    __slots__ = ("name", "index", "lb", "ub", "is_integer", "_model_id")

    def __init__(
        self,
        name: str,
        index: int,
        lb: float = 0.0,
        ub: float = math.inf,
        is_integer: bool = False,
        model_id: Optional[int] = None,
    ) -> None:
        if lb > ub:
            raise ModelError(
                f"variable {name!r}: lower bound {lb} exceeds upper bound {ub}"
            )
        self.name = name
        self.index = index
        self.lb = float(lb)
        self.ub = float(ub)
        self.is_integer = bool(is_integer)
        self._model_id = model_id

    # -- introspection -----------------------------------------------------
    @property
    def is_binary(self) -> bool:
        """True when the variable is integer-valued with bounds [0, 1]."""
        return self.is_integer and self.lb == 0.0 and self.ub == 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bin" if self.is_binary else ("int" if self.is_integer else "cont")
        return f"Variable({self.name!r}, index={self.index}, {kind})"

    def __hash__(self) -> int:
        return hash((self._model_id, self.index))

    def __eq__(self, other: object):  # type: ignore[override]
        # ``==`` builds a constraint when compared against numbers or
        # expressions (modelling idiom); identity comparison otherwise.
        if _is_number(other) or isinstance(other, (Variable, LinExpr)):
            return self.to_expr() == other
        return NotImplemented

    # -- conversion ---------------------------------------------------------
    def to_expr(self) -> "LinExpr":
        """Return a fresh single-term linear expression ``1.0 * self``."""
        return LinExpr({self.index: 1.0})

    # -- arithmetic (delegates to LinExpr) ----------------------------------
    def __add__(self, other):
        return self.to_expr() + other

    def __radd__(self, other):
        return self.to_expr() + other

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-self.to_expr()) + other

    def __mul__(self, other):
        return self.to_expr() * other

    def __rmul__(self, other):
        return self.to_expr() * other

    def __neg__(self):
        return self.to_expr() * -1.0

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other


class LinExpr:
    """An affine expression ``sum_i coeff_i * x_i + constant``.

    The expression stores coefficients keyed by variable *index*; it prints
    variable ``i`` as ``x{i}``.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(
        self,
        coeffs: Optional[Mapping[int, float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.coeffs: Dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    # -- constructors --------------------------------------------------------
    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.constant)

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value.to_expr()
        if _is_number(value):
            return LinExpr({}, float(value))
        raise NonLinearError(
            f"cannot build a linear expression from {type(value).__name__}"
        )

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        other = self._coerce(other)
        coeffs = dict(self.coeffs)
        for idx, coeff in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + coeff
        return LinExpr(coeffs, self.constant + other.constant)

    def __radd__(self, other) -> "LinExpr":
        # Supports ``sum(...)`` which starts from the integer 0.
        return self.__add__(other)

    def __sub__(self, other) -> "LinExpr":
        other = self._coerce(other)
        coeffs = dict(self.coeffs)
        for idx, coeff in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) - coeff
        return LinExpr(coeffs, self.constant - other.constant)

    def __rsub__(self, other) -> "LinExpr":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "LinExpr":
        if isinstance(other, (Variable, LinExpr)):
            other_expr = self._coerce(other)
            if other_expr.coeffs and self.coeffs:
                raise NonLinearError("product of two expressions with variables")
            if other_expr.coeffs:
                return other_expr * self.constant
            other = other_expr.constant
        if not _is_number(other):
            raise NonLinearError(f"cannot multiply expression by {type(other).__name__}")
        factor = float(other)
        coeffs = {idx: coeff * factor for idx, coeff in self.coeffs.items()}
        return LinExpr(coeffs, self.constant * factor)

    def __rmul__(self, other) -> "LinExpr":
        return self.__mul__(other)

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __truediv__(self, other) -> "LinExpr":
        if not _is_number(other):
            raise NonLinearError("can only divide an expression by a number")
        return self * (1.0 / float(other))

    # -- comparisons build constraints -------------------------------------------
    def __le__(self, other) -> "Constraint":
        return Constraint.from_comparison(self, LE, other)

    def __ge__(self, other) -> "Constraint":
        return Constraint.from_comparison(self, GE, other)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint.from_comparison(self, EQ, other)

    def __hash__(self):  # pragma: no cover - expressions are not hashable
        raise TypeError("LinExpr objects are unhashable")

    # -- evaluation / introspection -------------------------------------------------
    def value(self, assignment) -> float:
        """Evaluate the expression given ``assignment[index] -> value``.

        ``assignment`` may be a mapping or a numpy array indexed by variable
        index.
        """
        total = self.constant
        for idx, coeff in self.coeffs.items():
            total += coeff * float(assignment[idx])
        return total

    def terms(self) -> Iterable[Tuple[int, float]]:
        """Iterate over ``(variable_index, coefficient)`` pairs."""
        return self.coeffs.items()

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for idx in sorted(self.coeffs):
            parts.append(f"{self.coeffs[idx]:+g}*x{idx}")
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


class Constraint:
    """A linear constraint ``expr <sense> rhs`` in canonical form.

    The canonical form keeps all variable terms on the left-hand side and a
    numeric right-hand side, i.e. ``sum coeff_i x_i  <sense>  rhs``.
    """

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(self, expr: LinExpr, sense: str, rhs: float, name: str = "") -> None:
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.rhs = float(rhs)
        self.name = name

    @classmethod
    def from_comparison(cls, left: LinExpr, sense: str, right) -> "Constraint":
        right_expr = LinExpr._coerce(right)
        combined = left - right_expr
        rhs = -combined.constant
        combined.constant = 0.0
        return cls(combined, sense, rhs)

    def is_satisfied(self, assignment, tol: float = 1e-6) -> bool:
        """Check the constraint against a candidate assignment."""
        lhs = self.expr.value(assignment)
        if self.sense == LE:
            return lhs <= self.rhs + tol
        if self.sense == GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def violation(self, assignment) -> float:
        """Return the amount by which the constraint is violated (0 if met)."""
        lhs = self.expr.value(assignment)
        if self.sense == LE:
            return max(0.0, lhs - self.rhs)
        if self.sense == GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense} {self.rhs:g}{label})"


def quicksum(terms: Iterable) -> LinExpr:
    """Sum an iterable of variables/expressions/numbers into one expression.

    Equivalent to ``sum(terms)`` but avoids building a quadratic number of
    intermediate dictionaries, which matters when assembling the complete
    formulation whose constraints can contain tens of thousands of terms.
    """
    coeffs: Dict[int, float] = {}
    constant = 0.0
    for term in terms:
        if isinstance(term, Variable):
            coeffs[term.index] = coeffs.get(term.index, 0.0) + 1.0
        elif isinstance(term, LinExpr):
            for idx, coeff in term.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) + coeff
            constant += term.constant
        elif _is_number(term):
            constant += float(term)
        else:
            raise NonLinearError(
                f"cannot sum object of type {type(term).__name__} into a LinExpr"
            )
    return LinExpr(coeffs, constant)
