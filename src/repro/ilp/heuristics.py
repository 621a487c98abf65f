"""Primal heuristics used to seed and accelerate branch-and-bound.

CPLEX relies heavily on primal heuristics to find incumbents early so that
the tree can be pruned aggressively; without an incumbent the complete
formulation of the paper essentially never finishes on a pure-Python tree
search.  Two lightweight heuristics are provided:

* :func:`round_with_sos` — round an LP-relaxation point to a candidate 0/1
  assignment, respecting SOS-1 groups by picking each group's largest
  fractional member (segment reductions over a :class:`~repro.ilp.sos.
  SosIndex`, so a node's rounding costs no Python loop over groups).
* :func:`sos_greedy_assignment` — a constructive greedy that walks the SOS-1
  groups (the ``Z[d][t]`` rows of the mapping formulations) and picks, for
  each group, the cheapest member that keeps every ``<=`` constraint
  satisfiable.  This is solver-agnostic: it only looks at the model's
  matrix data, so it doubles as the "greedy mapper" baseline's engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import Model
from .sos import SosIndex
from .standard_form import StandardForm

__all__ = ["round_with_sos", "sos_greedy_assignment"]


def round_with_sos(
    form: StandardForm,
    groups: SosIndex,
    x_frac: np.ndarray,
    tol: float = 1e-6,
) -> Optional[np.ndarray]:
    """Round a fractional LP point to a feasible integer point, if possible.

    Every SOS-1 group of ``groups`` (an index over ``form``'s columns)
    rounds to its winner (:meth:`SosIndex.round_winners` under
    ``form``'s bounds: a member fixed to one, else the largest value,
    ties to the lowest objective coefficient); remaining integer
    variables are rounded to the nearest integer within bounds.  Returns
    ``None`` when the rounded point violates any constraint.
    """
    x = np.array(x_frac, dtype=float)
    # Only members whose bounds still allow a one may win a group:
    # branch-and-bound fixes forbidden candidates to zero via ``ub``.
    winners = groups.round_winners(x, form.lb, form.ub, tol)
    x[groups.perm] = 0.0
    x[winners] = 1.0

    integer_mask = form.integrality & ~groups.in_group
    x[integer_mask] = np.clip(
        np.round(x[integer_mask]), form.lb[integer_mask], form.ub[integer_mask]
    )

    if form.is_feasible(x, tol=1e-6):
        return x
    return None


def sos_greedy_assignment(
    model: Model,
    form: StandardForm,
    rng: Optional[np.random.Generator] = None,
) -> Optional[np.ndarray]:
    """Constructive greedy incumbent for assignment-structured 0/1 models.

    The heuristic assumes (and checks) that every binary variable belongs to
    at most one SOS-1 group and that groups must select exactly one member
    (which is how the mapping formulations are written).  Groups are
    processed in decreasing order of their tightest resource demand so that
    "large" data structures are placed while there is still room; members
    are tried in increasing objective-coefficient order.

    Returns a feasible 0/1 vector or ``None`` when the greedy gets stuck
    (which simply means branch-and-bound starts without an incumbent).
    """
    if not model.sos1_groups:
        return None

    n = form.num_variables
    x = np.zeros(n, dtype=float)

    # Remaining slack of every <= row (x starts at zero); equality rows
    # other than the group uniqueness rows are not supported by the greedy
    # and cause a bail-out.  Everything below works off the sparse
    # matrices — the greedy must not be the one consumer that forces a
    # dense rows-x-columns materialisation.
    slack = form.b_ub.astype(np.float64).copy()
    group_member_set = set()
    for group in model.sos1_groups:
        group_member_set.update(group.members)
    for i in range(form.num_eq_rows):
        support, _ = form.A_eq_sparse.row_entries(i)
        if not set(int(j) for j in support) <= group_member_set:
            return None

    # Per-column max |coefficient| over the <= rows, computed sparsely.
    column_pressure = np.zeros(n)
    if form.A_ub_sparse.nnz:
        np.maximum.at(
            column_pressure, form.A_ub_sparse.indices, np.abs(form.A_ub_sparse.data)
        )

    # Order groups: largest maximum column demand first (place big items early).
    def group_pressure(group) -> float:
        members = np.asarray(group.members, dtype=int)
        return float(column_pressure[members].max()) if members.size else 0.0

    groups = sorted(model.sos1_groups, key=group_pressure, reverse=True)
    if rng is not None:
        # Optional tie-breaking noise for randomised restarts.
        groups = sorted(
            groups, key=lambda g: group_pressure(g) + rng.uniform(0.0, 1e-6), reverse=True
        )

    for group in groups:
        forced = [idx for idx in group.members if form.lb[idx] > 0.5]
        if forced:
            members = forced  # a fixed-to-one member leaves no choice
        else:
            # Tie-break equal costs on the variable *name* (stable across
            # presolve/column permutations) so greedy incumbents — and the
            # fast-mode fingerprints derived from them — are reproducible
            # regardless of model construction order or --jobs scheduling.
            members = sorted(
                (idx for idx in group.members if form.ub[idx] >= 0.5),
                key=lambda idx: (form.c[idx], model.variables[idx].name),
            )
        placed = False
        for idx in members:
            if form.A_ub_sparse.nnz:
                column = form.A_ub_sparse.column(idx)
                if np.all(column <= slack + 1e-9):
                    slack = slack - column
                    x[idx] = 1.0
                    placed = True
                    break
            else:
                x[idx] = 1.0
                placed = True
                break
        if not placed:
            return None

    if form.is_feasible(x, tol=1e-6):
        return x
    return None
