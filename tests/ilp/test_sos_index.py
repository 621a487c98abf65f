"""The SOS-1 group index against a plain per-group reference.

Branch-and-bound asks every node for its structural floor, its
objective-cutoff prunes and fixings, its branching group and its rounded
point, all as segment reductions over :class:`SosIndex`.  The references
below answer the same questions one group at a time, the way a loop over
``model.sos1_groups`` does; random boxes and points on the scaled Table 3
global and complete models must get the same answers from both.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bench.designpoints import default_design_points
from repro.core.complete_mapper import CompleteMapper
from repro.core.global_mapper import GlobalMapper
from repro.ilp import to_standard_form
from repro.ilp.heuristics import round_with_sos
from repro.ilp.presolve import presolve
from repro.ilp.sos import SosIndex

TOL = 1e-6
CASES = [(point, kind) for point in range(9) for kind in ("global", "complete")]


def _model(point, kind):
    design, board = default_design_points()[point].build(seed=0)
    mapper = GlobalMapper(board) if kind == "global" else CompleteMapper(board)
    return mapper.build_model(design).model


# ------------------------------------------------------------- references
def reference_floor(groups, c, offset, lb, ub):
    """(floor, minima): cheapest selectable member per group, else interval minima."""
    in_group = np.zeros(c.shape[0], dtype=bool)
    for members in groups:
        in_group[members] = True
    base = float(np.where(c >= 0, c * lb, c * ub)[~in_group].sum())
    minima = []
    for members in groups:
        selectable = members[ub[members] > 0.5]
        if selectable.size == 0:
            return math.inf, None
        forced = selectable[lb[selectable] > 0.5]
        minima.append(float(c[forced].sum()) if forced.size else float(c[selectable].min()))
    return base + sum(minima) + offset, minima


def reference_fixings(groups, c, lb, ub, minima, slack):
    out = []
    for members, group_min in zip(groups, minima):
        open_members = members[(ub[members] > 0.5) & (lb[members] < 0.5)]
        out.extend(open_members[c[open_members] - group_min > slack + 1e-9].tolist())
    return sorted(out)


def reference_selection(groups, x, lb, ub):
    best, best_score = None, TOL
    for members in groups:
        if np.all(ub[members] - lb[members] < TOL):
            continue
        values = x[members]
        score = float(np.minimum(values, 1.0 - values).sum())
        if score > best_score:
            best, best_score = members, score
    return best


def reference_round(model, form, x_frac):
    """The rounded point, before the feasibility check."""
    x = np.asarray(x_frac, dtype=float).copy()
    in_group = np.zeros(form.num_variables, dtype=bool)
    for group in model.sos1_groups:
        members = np.asarray(group.members, dtype=int)
        in_group[members] = True
        values = x[members]
        allowed = form.ub[members] >= 0.5
        forced = form.lb[members] > 0.5
        x[members] = 0.0
        if np.any(forced):
            x[members[np.argmax(forced)]] = 1.0
            continue
        if not np.any(allowed):
            continue
        candidates = members[allowed]
        order = np.lexsort((form.c[candidates], -values[allowed]))
        if values[allowed].max() > TOL:
            x[candidates[order[0]]] = 1.0
    integer = form.integrality & ~in_group
    x[integer] = np.clip(np.round(x[integer]), form.lb[integer], form.ub[integer])
    return x


# -------------------------------------------------------------- sampling
def random_box(rng, form, groups):
    """A node-like box: excluded members, some groups decided, rarely an empty group."""
    lb, ub = form.lb.copy(), form.ub.copy()
    for members in groups:
        roll = rng.random()
        if roll < 0.03:
            ub[members] = 0.0
            continue
        ub[members[rng.random(members.size) < 0.3]] = 0.0
        if roll > 0.8:
            # A decided group; every other node box only forces a member.
            chosen = rng.choice(members)
            if roll > 0.9:
                ub[members] = 0.0
            lb[chosen] = ub[chosen] = 1.0
    free = ~np.isin(np.arange(form.num_variables), np.concatenate(groups))
    finite = free & np.isfinite(ub) & (ub > lb)
    shrink = finite & (rng.random(form.num_variables) < 0.2)
    ub[shrink] = np.maximum(lb[shrink], np.floor(ub[shrink] * rng.random(int(shrink.sum()))))
    return lb, ub


def random_point(rng, lb, ub):
    """Values inside the box; coarse levels make ties between members and groups."""
    low, high = np.nan_to_num(lb, neginf=0.0), np.nan_to_num(ub, posinf=1.0)
    coarse = rng.choice([0.0, 0.25, 0.5, 1.0], size=lb.shape)
    share = np.where(rng.random(lb.shape) < 0.5, coarse, rng.random(lb.shape))
    return np.clip(low + share * (high - low), lb, ub)


# ------------------------------------------------------------------ tests
@pytest.mark.parametrize("point,kind", CASES, ids=[f"point{i + 1}-{k}" for i, k in CASES])
def test_group_kernel_matches_the_per_group_reference(point, kind):
    model = _model(point, kind)
    form = to_standard_form(model)
    groups = [np.asarray(group.members, dtype=int) for group in model.sos1_groups]
    sos = SosIndex.from_groups([group.members for group in model.sos1_groups], form.c)
    rng = np.random.default_rng(1000 * point + len(kind))
    offset = 0.5
    outcomes = set()
    for _ in range(30):
        lb, ub = random_box(rng, form, groups)
        floor, minima = sos.floor(lb, ub, offset)
        expected, expected_minima = reference_floor(groups, form.c, offset, lb, ub)
        if expected_minima is None:
            assert floor == math.inf and minima is None
            outcomes.add("empty group")
            continue
        assert floor == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(minima, expected_minima, rtol=0, atol=1e-12)
        for margin in (-1e-3, -1e-7, 1e-7, 1e-3, 0.5):
            cutoff = expected + margin
            assert (floor > cutoff + 1e-12) == (expected > cutoff + 1e-12)
            if floor <= cutoff + 1e-12:
                slack = cutoff - floor
                fixed = sorted(sos.too_dear(lb, ub, minima, slack + 1e-9).tolist())
                assert fixed == reference_fixings(groups, form.c, lb, ub, minima, slack)
                outcomes.add("fixings" if fixed else "no fixings")
            else:
                outcomes.add("prune")

        # All-halves points tie every group of equal open size.
        for x in (np.clip(0.5, lb, ub), random_point(rng, lb, ub)):
            group = sos.most_fractional(x, lb, ub, TOL)
            expected_group = reference_selection(groups, x, lb, ub)
            if expected_group is None:
                assert group is None
            else:
                np.testing.assert_array_equal(sos.members(group), expected_group)

        box = form.with_bounds(lb, ub)
        expected_round = reference_round(model, box, x)
        winners = sos.round_winners(x, lb, ub, TOL)
        expected_winners = sos.perm[expected_round[sos.perm] == 1.0]
        assert sorted(winners.tolist()) == sorted(expected_winners.tolist())
        rounded = round_with_sos(box, sos, x)
        if model.is_feasible(expected_round, tol=1e-6):
            np.testing.assert_array_equal(rounded, expected_round)
        else:
            assert rounded is None
    assert {"prune", "fixings"} <= outcomes


@pytest.mark.parametrize("point,kind", CASES[::3], ids=[f"point{i + 1}-{k}" for i, k in CASES[::3]])
def test_restrict_keeps_presolve_survivors_of_branching_groups(point, kind):
    model = _model(point, kind)
    form = to_standard_form(model)
    reduction = presolve(form)
    column_map = reduction.postsolve.column_map
    expected = []
    for group in model.sos1_groups:
        mapped = [int(column_map[m]) for m in group.members if column_map[m] >= 0]
        if len(mapped) >= 2:
            expected.append(mapped)
    full = SosIndex.from_groups([group.members for group in model.sos1_groups], form.c)
    reduced = full.restrict(column_map, reduction.form.c)
    assert [reduced.members(g).tolist() for g in range(reduced.sizes.size)] == expected
    np.testing.assert_array_equal(reduced.cost, reduction.form.c[reduced.perm])


def test_rounding_tie_rules():
    c = np.array([3.0, 1.0, 1.0, 2.0, 5.0, 5.0, 0.0])
    index = SosIndex.from_groups([(0, 1, 2), (3, 4), (5,), ()], c)
    lb, ub = np.zeros(7), np.ones(7)
    x = np.array([0.4, 0.4, 0.4, 0.3, 0.6, 1e-9, 0.2])
    # Group 0 ties three ways on value, then two ways on cost: first wins.
    # Group 2's only member is below the threshold: no winner.
    assert index.round_winners(x, lb, ub, TOL).tolist() == [1, 4]
    ub[4] = 0.0  # excluded members cannot win
    lb[0] = 1.0  # a member fixed to one wins whatever its value
    assert index.round_winners(x, lb, ub, TOL).tolist() == [0, 3]
