"""Exception types raised by the ILP modelling and solving substrate.

The solver substrate in :mod:`repro.ilp` replaces the commercial CPLEX
library used in the paper.  Expected outcomes (infeasible, unbounded,
timed out) are reported through the :class:`repro.ilp.solution.Solution`
status field; the exceptions defined here are raised for programming
errors and for backend failures that make continuing meaningless.
"""

from __future__ import annotations


class IlpError(Exception):
    """Base class for every error raised by :mod:`repro.ilp`."""


class ModelError(IlpError):
    """A model was constructed or queried incorrectly.

    Examples: adding a constraint that references a variable belonging to a
    different model, requesting the value of a variable before a solve, or
    registering an SOS-1 group containing non-binary variables.
    """


class NonLinearError(ModelError):
    """An expression operation would produce a non-linear term.

    The modelling layer only supports linear expressions; multiplying two
    variables (or two expressions that both contain variables) raises this
    error instead of silently producing garbage.
    """


class SolverError(IlpError):
    """A backend failed unexpectedly (numerical breakdown, bad status)."""
