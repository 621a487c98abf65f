"""LU-path regressions: factorization unit tests, drift, triggers.

The dense-inverse path is pinned by ``test_revised_simplex.py``; this
module covers what is new in the LU kernel generation:

* :func:`repro.ilp.lu.factorize_markowitz` against NumPy on random
  sparse matrices, including singular rejections,
* numerical drift ``‖B·x − b‖`` after long eta chains (the adaptive
  triggers disabled, then re-armed one by one),
* each adaptive refactorization trigger firing for its own reason
  ("interval", "fill", "residual"),
* a degenerate/stalling LP still terminating through the anti-cycling
  switch under both representations,
* the eta/nnz counters and the LU ``BasisState`` round-trip,
* the dense path's sparse rank-1 update against the full outer product.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    BasisState,
    Model,
    RevisedOptions,
    RevisedSimplex,
    quicksum,
    solve_lp_revised,
    to_standard_form,
)
from repro.ilp.instances import large_sparse_lp
from repro.ilp.lu import DenseFactors, factorize_markowitz


def _random_sparse_matrix(rng, m, max_nnz_per_col=5):
    dense = np.zeros((m, m))
    for j in range(m):
        k = rng.randint(1, min(m, max_nnz_per_col) + 1)
        rows = rng.choice(m, size=k, replace=False)
        dense[rows, j] = rng.uniform(-3.0, 3.0, size=k)
    return dense


def _columns_of(dense):
    cols = []
    for j in range(dense.shape[1]):
        nz = np.nonzero(dense[:, j])[0]
        cols.append((nz.astype(np.int64), dense[nz, j]))
    return cols


class TestFactorizeMarkowitz:
    def test_ftran_btran_match_numpy_on_a_seeded_corpus(self):
        rng = np.random.RandomState(0)
        checked = 0
        for _ in range(60):
            m = int(rng.randint(2, 30))
            dense = _random_sparse_matrix(rng, m)
            factors = factorize_markowitz(_columns_of(dense), m)
            try:
                well_conditioned = np.linalg.cond(dense) < 1e8
            except np.linalg.LinAlgError:
                well_conditioned = False
            if factors is None:
                # Refusal is only acceptable for genuinely bad matrices.
                assert not well_conditioned
                continue
            if not well_conditioned:
                continue
            checked += 1
            b = rng.uniform(-2.0, 2.0, size=m)
            np.testing.assert_allclose(dense @ factors.ftran(b), b, atol=1e-7)
            c = rng.uniform(-2.0, 2.0, size=m)
            np.testing.assert_allclose(dense.T @ factors.btran(c), c, atol=1e-7)
        assert checked >= 20  # the corpus exercised real factorizations

    def test_structurally_singular_matrix_returns_none(self):
        # Second column is empty.
        cols = [
            (np.array([0]), np.array([1.0])),
            (np.array([], dtype=np.int64), np.array([])),
        ]
        assert factorize_markowitz(cols, 2) is None

    def test_numerically_singular_matrix_returns_none(self):
        # Two identical columns: elimination empties the second one.
        col = (np.array([0, 1]), np.array([1.0, 2.0]))
        assert factorize_markowitz([col, col], 2) is None

    def test_ftran_preserves_exact_sparsity(self):
        """Unreached entries stay exactly 0.0 — the eta file relies on it."""
        dense = np.diag([2.0, 4.0, 8.0])
        factors = factorize_markowitz(_columns_of(dense), 3)
        x = factors.ftran(np.array([1.0, 0.0, 0.0]))
        assert x[1] == 0.0 and x[2] == 0.0
        assert np.flatnonzero(x).tolist() == [0]

    def test_dense_and_lu_factors_agree(self):
        rng = np.random.RandomState(3)
        dense = _random_sparse_matrix(rng, 12)
        lu = factorize_markowitz(_columns_of(dense), 12)
        inv = DenseFactors.from_matrix(dense)
        assert lu is not None and inv is not None
        assert lu.kind == "lu" and inv.kind == "dense"
        b = rng.uniform(-1.0, 1.0, size=12)
        np.testing.assert_allclose(lu.ftran(b), inv.ftran(b), atol=1e-8)
        np.testing.assert_allclose(lu.btran(b), inv.btran(b), atol=1e-8)
        # Sparse fill is genuinely below the dense m² footprint.
        assert lu.nnz < inv.nnz


class TestDenseUpdate:
    def test_sparse_rank_one_update_equals_the_full_outer_product(self):
        """Same entries as the m × m update, and the inverse of the new basis."""
        rng = np.random.RandomState(5)
        skipped = 0
        for _ in range(20):
            # Two diagonal blocks, and an entering column inside the first:
            # alpha is exactly zero on the second block's rows.
            top, bottom = int(rng.randint(2, 12)), int(rng.randint(1, 12))
            m = top + bottom
            dense = np.zeros((m, m))
            dense[:top, :top] = _random_sparse_matrix(rng, top) + 4.0 * np.eye(top)
            dense[top:, top:] = _random_sparse_matrix(rng, bottom) + 4.0 * np.eye(bottom)
            factors = DenseFactors.from_matrix(dense)
            entering = np.zeros(m)
            entering[:top] = rng.uniform(-3.0, 3.0, size=top)
            alpha = factors.ftran(entering)
            skipped += int(np.count_nonzero(alpha == 0.0))
            row = int(np.argmax(np.abs(alpha)))
            expected = factors.binv.copy()
            expected[row, :] /= alpha[row]
            col = alpha.copy()
            col[row] = 0.0
            expected -= np.outer(col, expected[row, :])
            factors.update(row, alpha)
            assert np.array_equal(factors.binv, expected)
            dense[:, row] = entering
            np.testing.assert_allclose(factors.binv @ dense, np.eye(m), atol=1e-8)
        assert skipped > 0


def _lazy_lu_options(**overrides):
    """LU options with every adaptive trigger pushed out of reach."""
    base = dict(
        factorization="lu",
        refactor_interval=10**6,
        refactor_fill_factor=1e9,
        residual_interval=10**6,
    )
    base.update(overrides)
    return RevisedOptions(**base)


class TestNumericalDrift:
    def test_long_eta_chain_keeps_the_factored_basis_honest(self):
        """‖B·x − b‖ on a probe solve stays tiny after hundreds of etas."""
        form = large_sparse_lp(17, m=110, n=130)
        engine = RevisedSimplex(form, _lazy_lu_options())
        result = engine.solve(form.lb, form.ub)
        assert result.status == "optimal"
        # The whole solve ran on one factorization plus the eta file.
        assert result.refactor_triggers == {"start": 1}
        assert result.iterations > 100
        assert engine.factor_residual() < 1e-6

    def test_lazy_and_eager_refactorization_agree(self):
        form = large_sparse_lp(19, m=100, n=120)
        lazy = solve_lp_revised(form, _lazy_lu_options())
        eager = solve_lp_revised(
            form, RevisedOptions(factorization="lu", refactor_interval=8)
        )
        assert lazy.status == eager.status == "optimal"
        assert lazy.objective == pytest.approx(eager.objective, abs=1e-7)
        np.testing.assert_allclose(lazy.x, eager.x, atol=1e-6)

    def test_residual_breach_forces_a_refactorization(self):
        """An unattainable residual tolerance must fire the residual trigger."""
        form = large_sparse_lp(23, m=100, n=120)
        options = _lazy_lu_options(residual_interval=4, residual_tol=0.0)
        result = solve_lp_revised(form, options)
        assert result.status == "optimal"
        assert result.refactor_triggers.get("residual", 0) >= 1

    def test_fill_growth_forces_a_refactorization(self):
        form = large_sparse_lp(29, m=100, n=120)
        options = _lazy_lu_options(refactor_fill_factor=0.5)
        result = solve_lp_revised(form, options)
        assert result.status == "optimal"
        assert result.refactor_triggers.get("fill", 0) >= 1

    def test_eta_cap_maps_onto_the_interval_trigger(self):
        form = large_sparse_lp(31, m=100, n=120)
        options = _lazy_lu_options(refactor_interval=16)
        result = solve_lp_revised(form, options)
        assert result.status == "optimal"
        assert result.refactor_triggers.get("interval", 0) >= 1


class TestStallingLpAntiCycling:
    def _stalling_lp(self):
        """Degenerate assignment-style LP that stalls greedy pricing."""
        model = Model("lu-stalling")
        y = [model.add_continuous(f"y{i}", lb=0.0, ub=1.0) for i in range(5)]
        model.add_constraint(quicksum(y) == 1.0, name="sum")
        for i in range(4):
            model.add_constraint(y[i] + y[i + 1] <= 1.0, name=f"pair{i}")
        model.add_constraint(y[0] + y[2] + y[4] <= 1.0, name="odd")
        model.set_objective(-quicksum(y))
        return to_standard_form(model)

    @pytest.mark.parametrize("factorization", ["dense", "lu"])
    def test_bland_switch_terminates(self, factorization):
        form = self._stalling_lp()
        engine = RevisedSimplex(
            form,
            RevisedOptions(factorization=factorization, stall_iterations=0),
        )
        result = engine.solve(form.lb, form.ub)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-1.0, abs=1e-6)
        assert engine.bland_switches >= 1


class TestCountersAndBasisState:
    def test_lu_solve_reports_eta_and_nnz_counters(self):
        form = large_sparse_lp(37, m=100, n=120)
        result = solve_lp_revised(form, RevisedOptions(factorization="lu"))
        assert result.status == "optimal"
        assert result.etas_applied > 0
        assert result.ftran_nnz > 0
        assert result.btran_nnz > 0
        assert result.refactor_triggers.get("start", 0) == 1
        # The headline acceptance property: the solve runs on eta updates,
        # not on refactorizations.
        assert result.etas_applied > 10 * max(1, result.refactorizations)

    def test_lu_basis_state_round_trips_and_warm_equals_cold(self):
        form = large_sparse_lp(41, m=100, n=120)
        engine = RevisedSimplex(form, RevisedOptions(factorization="lu"))
        first = engine.solve(form.lb, form.ub)
        assert first.status == "optimal"
        clone = BasisState.from_dict(first.basis.as_dict())
        assert np.array_equal(clone.basis, first.basis.basis)
        assert np.array_equal(clone.status, first.basis.status)
        ub2 = form.ub.copy()
        ub2[:5] = np.maximum(form.lb[:5], first.x[:5] * 0.5)
        warm = engine.solve(form.lb, ub2, basis=clone)
        cold = engine.solve(form.lb, ub2)
        assert warm.status == cold.status == "optimal"
        assert warm.basis_reused is True
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    def test_mismatched_basis_still_cold_starts_silently_under_lu(self):
        form = large_sparse_lp(43, m=100, n=120)
        engine = RevisedSimplex(form, RevisedOptions(factorization="lu"))
        alien = BasisState(
            basis=np.arange(3, dtype=np.int64),
            status=np.zeros(4, dtype=np.int8),
        )
        result = engine.solve(form.lb, form.ub, basis=alien)
        assert result.status == "optimal"
        assert result.basis_reused is False
        assert result.warm is False

    def test_auto_mode_picks_dense_below_the_threshold_and_lu_above(self):
        small = large_sparse_lp(47, m=30, n=40)
        assert RevisedSimplex(small, RevisedOptions()).mode == "dense"
        assert RevisedSimplex(
            small, RevisedOptions(lu_threshold=10)
        ).mode == "lu"
        assert RevisedSimplex(
            small, RevisedOptions(factorization="lu")
        ).mode == "lu"

    def test_invalid_option_strings_are_rejected(self):
        form = large_sparse_lp(53, m=20, n=24)
        with pytest.raises(ValueError):
            RevisedSimplex(form, RevisedOptions(factorization="qr"))
