"""The array presolve returns what the row-by-row worker returned, byte for byte.

:mod:`presolve_reference` keeps the dict-of-dicts worker that
:func:`repro.ilp.presolve` replaced.  Each case below runs both and
compares the status, the :class:`Postsolve` arrays, the reduced form's CSR
arrays, right-hand sides, bounds, names and objective offset, and every
:class:`PresolveStats` counter, by their bytes.

The corpora: the Table 3 models (design seed 0) that a pass of the
benchmark presolves, the same global models with each SOS member forced to
zero in turn (fixings, singleton and forcing rows), the seeded generator
models of ``test_presolve.py``, hand-built edge cases, and seeded random
small forms whose integer and continuous columns, infinite bounds and tiny
coefficients reach every branch, infeasible and unbounded outcomes too.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from presolve_reference import presolve as reference_presolve

from repro.arch import hierarchical_board
from repro.bench.designpoints import default_design_points
from repro.core import CompleteMapper, GlobalMapper
from repro.core.pipeline import MemoryMapper
from repro.design import random_design
from repro.ilp import INFEASIBLE, UNBOUNDED, Model, StandardForm, presolve, to_standard_form
from repro.ilp import branch_bound


def _array(values):
    values = np.asarray(values)
    return values.dtype.str, values.shape, values.tobytes()


def _outcome(result):
    """Everything a presolve result carries, as comparable bytes."""
    post = result.postsolve
    out = {
        "status": result.status,
        "stats": result.stats.as_dict(),
        "kept": _array(post.kept),
        "fixed_values": _array(post.fixed_values),
        "column_map": _array(post.column_map),
    }
    form = result.form
    if form is not None:
        for label, matrix in (("A_ub", form.A_ub_sparse), ("A_eq", form.A_eq_sparse)):
            out[label] = (matrix.shape, _array(matrix.data), _array(matrix.indices),
                          _array(matrix.indptr))
        for label in ("c", "b_ub", "b_eq", "lb", "ub", "integrality"):
            out[label] = _array(getattr(form, label))
        out["offset"] = struct.pack("<dd", form.objective_offset, form.objective_scale)
        out["names"] = (form.variable_names, form.row_names_ub, form.row_names_eq)
    return out


def assert_same_as_reference(form, **options):
    with np.errstate(invalid="ignore"):  # the oracle adds -inf to inf in scalars
        expected = _outcome(reference_presolve(form, **options))
    actual = _outcome(presolve(form, **options))
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], key
    return actual


def _zeroed(form, columns):
    """``form`` with ``columns`` fixed to zero through their bounds."""
    lb, ub = form.lb.copy(), form.ub.copy()
    lb[columns] = 0.0
    ub[columns] = 0.0
    return form.with_bounds(lb, ub)


# --------------------------------------------------------------- Table 3
@pytest.fixture(scope="module")
def table3_models():
    """``label -> (global artifacts, complete form)`` of the scaled points."""
    models = {}
    for point in default_design_points(full=False):
        design, board = point.build(seed=0)
        models[point.label()] = (
            GlobalMapper(board).build_model(design),
            to_standard_form(CompleteMapper(board).build_model(design).model),
        )
    return models


def _table3_forms(models):
    for label, (global_artifacts, complete_form) in models.items():
        yield f"{label} global", to_standard_form(global_artifacts.model)
        yield f"{label} complete", complete_form


class TestTable3Models:
    def test_a_pass_presolves_the_global_and_complete_forms(self, table3_models,
                                                           monkeypatch):
        """The exact, fast and complete calls present these forms and no other."""
        built = {_array(form.A_ub_sparse.data) + _array(form.b_eq) + _array(form.c)
                 for _, form in _table3_forms(table3_models)}
        seen = []
        original = branch_bound.run_presolve

        def recording(form, *args, **kwargs):
            seen.append(_array(form.A_ub_sparse.data) + _array(form.b_eq)
                        + _array(form.c))
            return original(form, *args, **kwargs)

        monkeypatch.setattr(branch_bound, "run_presolve", recording)
        for point in default_design_points(full=False):
            design, board = point.build(seed=0)
            MemoryMapper(board, mode="exact").map(design)
            MemoryMapper(board, mode="fast").map(design)
            CompleteMapper(board).solve(design)
        assert set(seen) == built

    def test_every_form_matches(self, table3_models):
        totals = {"rows_dropped_ub": 0, "rows_dropped_eq": 0, "cols_fixed": 0}
        for label, form in _table3_forms(table3_models):
            stats = assert_same_as_reference(form)["stats"]
            if label.endswith("global"):
                for key in totals:
                    totals[key] += stats[key]
        # The nine global models: what BENCH_table3_new.json records.
        assert totals["rows_dropped_ub"] + totals["rows_dropped_eq"] == 35
        assert totals["cols_fixed"] == 1

    def test_each_sos_member_forced_to_zero(self, table3_models):
        resolved_rows = 0
        for global_artifacts, _ in table3_models.values():
            form = to_standard_form(global_artifacts.model)
            for group in global_artifacts.model.sos1_groups:
                for member in group.members:
                    stats = assert_same_as_reference(_zeroed(form, [member]))["stats"]
                    resolved_rows += stats["rows_dropped_eq"]
        # A uniqueness row left with one candidate resolves as a singleton
        # (two-member groups) or a forcing row, and fixes that candidate.
        assert resolved_rows > 0


# ------------------------------------------------------ generator models
@pytest.mark.parametrize("seed", range(8))
def test_generator_models(seed):
    board = hierarchical_board()
    design = random_design(6 + seed % 5, seed=seed, board=board, target_occupancy=0.35)
    assert_same_as_reference(to_standard_form(GlobalMapper(board).build_model(design).model))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_models_with_forbidden_pairs(seed):
    board = hierarchical_board()
    design = random_design(7, seed=seed, board=board, target_occupancy=0.3)
    artifacts = GlobalMapper(board).build_model(design)
    forbidden = [var.index for i, var in enumerate(artifacts.z_vars.values()) if i in (0, 3)]
    assert_same_as_reference(_zeroed(to_standard_form(artifacts.model), forbidden))


# ------------------------------------------------------------ edge cases
class TestEdgeCases:
    def test_numerically_empty_singleton(self):
        """A ``1e-13 * x`` row empties, drops a pass later, and keeps ``x`` unfixed."""
        m = Model("tiny")
        x = m.add_continuous("x", lb=0.0, ub=4.0)
        y = m.add_binary("y")
        m.add_constraint(1e-13 * x <= 1.0)
        m.add_constraint(x + 2 * y <= 5.0)
        m.add_constraint(y <= 0.5)
        m.set_objective(-x - y)
        result = assert_same_as_reference(to_standard_form(m))
        assert result["stats"]["rows_dropped_ub"] == 3
        assert result["kept"] == _array(np.array([0]))   # x: in no row, yet kept

    def test_numerically_empty_row_with_negative_rhs_is_infeasible(self):
        m = Model("tiny-infeasible")
        x = m.add_continuous("x", lb=0.0, ub=4.0)
        m.add_constraint(1e-13 * x <= -1.0)
        m.set_objective(x)
        assert assert_same_as_reference(to_standard_form(m))["status"] == INFEASIBLE

    def test_forcing_eq_row_at_maximum_activity(self):
        m = Model("force-max")
        x = m.add_binary("x")
        y = m.add_binary("y")
        z = m.add_binary("z")
        m.add_constraint(x - y + 2 * z == 3)   # only x = 1, y = 0, z = 1
        m.add_constraint(x + y + z <= 2)
        m.set_objective(x + y + z)
        result = assert_same_as_reference(to_standard_form(m))
        assert result["fixed_values"] == _array(np.array([1.0, 0.0, 1.0]))

    def test_column_forced_to_two_values(self):
        m = Model("two-values")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(2 * x == 2)
        m.add_constraint(3 * x == 0)
        m.add_constraint(x + y <= 1)
        m.set_objective(y)
        result = assert_same_as_reference(to_standard_form(m))
        assert result["status"] == INFEASIBLE
        assert result["stats"]["cols_fixed"] == 1

    def test_unbounded_empty_column(self):
        m = Model("unbounded")
        x = m.add_binary("x")
        m.add_continuous("free", lb=0.0)
        m.add_integer("n", lb=-3.5, ub=2.5)
        m.add_constraint(x <= 1)
        m.set_objective(x - m.var_by_name("free") + m.var_by_name("n"))
        result = assert_same_as_reference(to_standard_form(m))
        assert result["status"] == UNBOUNDED
        assert result["stats"]["bounds_tightened"] == 2


# ----------------------------------------------------- seeded random forms
def _random_form(rng):
    n = int(rng.integers(1, 9))

    def block(num_rows):
        dense = np.zeros((num_rows, n))
        for row in dense:
            size = int(rng.integers(0, min(n, 4) + 1))
            row[rng.choice(n, size=size, replace=False)] = rng.choice(
                [-3.0, -2.0, -1.0, -0.5, 0.25, 1.0, 1.0, 1.5, 2.0, 3.0, 1e-13], size=size
            )
        return dense

    m_ub, m_eq = int(rng.integers(0, 6)), int(rng.integers(0, 4))
    A_ub, A_eq = block(m_ub), block(m_eq)
    lb = rng.choice([0.0, 0.0, -1.0, 0.4, -np.inf, 1.0], size=n)
    anchor = np.where(np.isfinite(lb), lb, 0.0)
    width = rng.choice([0.0, 1.0, 1.0, 2.6, np.inf, 3.0], size=n)
    ub = anchor + width   # lb = -inf: ub is the width itself
    slack = rng.choice([0.0, 1.0, 5.0, -1.0, 0.5], size=m_ub)
    shift = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0], size=m_eq) * (rng.random() < 0.3)
    return StandardForm(
        c=rng.choice([-1.0, 0.0, 1.0, 2.5], size=n),
        A_ub=A_ub,
        b_ub=A_ub @ anchor + slack,
        A_eq=A_eq,
        b_eq=A_eq @ anchor + shift,
        lb=lb,
        ub=ub,
        integrality=rng.random(n) < 0.7,
        objective_offset=float(rng.choice([0.0, 1.5])),
        variable_names=tuple(f"v{j}" for j in range(n)),
        row_names_ub=tuple(f"u{i}" for i in range(m_ub)),
        row_names_eq=tuple(f"e{i}" for i in range(m_eq)),
    )


@pytest.mark.parametrize("max_passes", [1, 10])
@pytest.mark.parametrize("seed", range(4))
def test_random_forms(seed, max_passes):
    rng = np.random.default_rng(seed)
    statuses = set()
    for _ in range(150):
        result = assert_same_as_reference(_random_form(rng), max_passes=max_passes)
        statuses.add(result["status"])
    assert statuses == {"reduced", "solved", INFEASIBLE, UNBOUNDED}
