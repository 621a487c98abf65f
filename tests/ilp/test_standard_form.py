"""Unit tests for the Model -> matrix standard-form conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import MAXIMIZE, Model, ModelError, quicksum, to_standard_form


def build_basic_model():
    m = Model("std")
    x = m.add_binary("x")
    y = m.add_continuous("y", lb=1.0, ub=4.0)
    z = m.add_integer("z", lb=0, ub=10)
    m.add_constraint(x + 2 * y <= 7, name="row-le")
    m.add_constraint(3 * y - z >= 1, name="row-ge")
    m.add_constraint(x + z == 2, name="row-eq")
    m.set_objective(5 * x + y - z + 10)
    return m, (x, y, z)


class TestConversion:
    def test_matrix_shapes(self):
        m, _ = build_basic_model()
        form = to_standard_form(m)
        assert form.c.shape == (3,)
        assert form.A_ub.shape == (2, 3)   # the >= row was flipped into <=
        assert form.A_eq.shape == (1, 3)
        assert form.integrality.tolist() == [True, False, True]

    def test_ge_rows_are_negated(self):
        m, (x, y, z) = build_basic_model()
        form = to_standard_form(m)
        # Second <= row corresponds to -(3y - z) <= -1.
        row = form.A_ub[1]
        assert row[y.index] == pytest.approx(-3.0)
        assert row[z.index] == pytest.approx(1.0)
        assert form.b_ub[1] == pytest.approx(-1.0)

    def test_bounds_vectors(self):
        m, _ = build_basic_model()
        form = to_standard_form(m)
        assert form.lb.tolist() == [0.0, 1.0, 0.0]
        assert form.ub.tolist() == [1.0, 4.0, 10.0]

    def test_objective_offset_preserved(self):
        m, _ = build_basic_model()
        form = to_standard_form(m)
        x = np.array([1.0, 1.0, 0.0])
        assert form.user_objective(x) == pytest.approx(5 + 1 - 0 + 10)

    def test_row_names_recorded(self):
        m, _ = build_basic_model()
        form = to_standard_form(m)
        assert form.row_names_ub == ("row-le", "row-ge")
        assert form.row_names_eq == ("row-eq",)

    def test_maximisation_negates_objective(self):
        m = Model("max", sense=MAXIMIZE)
        x = m.add_binary("x")
        m.set_objective(3 * x)
        form = to_standard_form(m)
        assert form.c[x.index] == pytest.approx(-3.0)
        assert form.objective_scale == -1.0
        # user_objective undoes the negation.
        assert form.user_objective(np.array([1.0])) == pytest.approx(3.0)

    def test_empty_model_rejected(self):
        with pytest.raises(ModelError):
            to_standard_form(Model("empty"))

    def test_with_bounds_shares_matrices(self):
        m, _ = build_basic_model()
        form = to_standard_form(m)
        new_lb = form.lb.copy()
        new_lb[0] = 1.0
        child = form.with_bounds(new_lb, form.ub)
        assert child.A_ub is form.A_ub
        assert child.A_eq is form.A_eq
        assert child.lb[0] == 1.0
        assert form.lb[0] == 0.0


#: Offsets from a constraint's or bound's edge: on it, inside or past it
#: by half the tolerance, past it by twice the tolerance.
TOL = 1e-6
EDGE_OFFSETS = (0.0, -0.5 * TOL, 0.5 * TOL, 2.0 * TOL, -2.0 * TOL)


def edge_model(seed):
    """A random model and a point that sits near the edge of every check.

    Bounds, integrality and LE/GE/EQ rows are each placed at one of
    :data:`EDGE_OFFSETS` from the point, so some checks pass within the
    tolerance and some fail just past it.
    """
    rng = np.random.default_rng(seed)
    m = Model(f"edges-{seed}")
    n = int(rng.integers(2, 7))
    point = np.zeros(n)
    variables = []
    for j in range(n):
        kind = rng.choice(["binary", "integer", "continuous"])
        if kind == "continuous":
            point[j] = rng.uniform(-5.0, 5.0)
            lb = point[j] - abs(rng.choice(EDGE_OFFSETS)) - rng.choice([0.0, 1.0])
            ub = point[j] + abs(rng.choice(EDGE_OFFSETS)) + rng.choice([0.0, 1.0])
            variables.append(m.add_continuous(f"x{j}", lb=lb, ub=ub))
        else:
            var = m.add_binary(f"x{j}") if kind == "binary" else m.add_integer(f"x{j}", lb=-3, ub=3)
            variables.append(var)
            point[j] = float(rng.integers(var.lb, var.ub + 1)) + rng.choice(EDGE_OFFSETS)
    for _ in range(int(rng.integers(1, 5))):
        coeffs = np.round(rng.uniform(-3.0, 3.0, size=n), 2)
        expr = quicksum(float(a) * v for a, v in zip(coeffs, variables))
        edge = float(coeffs @ point) + rng.choice(EDGE_OFFSETS)
        sense = rng.choice(["<=", ">=", "=="])
        m.add_constraint(expr <= edge if sense == "<=" else expr >= edge if sense == ">=" else expr == edge)
    return m, point


class TestIsFeasible:
    def test_agrees_with_the_model_check_near_every_edge(self):
        verdicts = []
        for seed in range(400):
            m, point = edge_model(seed)
            expected = m.is_feasible(point, tol=TOL)
            assert to_standard_form(m).is_feasible(point, tol=TOL) == expected, seed
            verdicts.append(expected)
        # The offsets must exercise both sides of the tolerance.
        assert 40 < sum(verdicts) < 360

    def test_checks_the_form_bounds_not_the_model_bounds(self):
        m, (x, y, z) = build_basic_model()
        form = to_standard_form(m)
        point = np.zeros(3)
        point[x.index], point[y.index], point[z.index] = 0.0, 2.0, 2.0
        assert form.is_feasible(point)
        ub = form.ub.copy()
        ub[z.index] = 1.0
        assert not form.with_bounds(form.lb, ub).is_feasible(point)
