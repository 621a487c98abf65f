"""Unit tests for the CSR matrix backing the sparse standard form."""

from __future__ import annotations

import numpy as np

from repro.ilp import CsrMatrix, Model, quicksum, to_standard_form


def example_matrix():
    dense = np.array(
        [
            [1.0, 0.0, -2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 3.5, 0.0, 1.0],
        ]
    )
    return CsrMatrix.from_dense(dense), dense


class TestConstruction:
    def test_from_dense_round_trips(self):
        sparse, dense = example_matrix()
        assert sparse.shape == dense.shape
        assert sparse.nnz == 4
        np.testing.assert_allclose(sparse.toarray(), dense)

    def test_from_coeff_rows(self):
        rows = [{2: -2.0, 0: 1.0}, {}, {1: 3.5, 3: 1.0}]
        sparse = CsrMatrix.from_coeff_rows(rows, 4)
        _, dense = example_matrix()
        np.testing.assert_allclose(sparse.toarray(), dense)
        # Columns are sorted within each row regardless of dict order.
        assert sparse.indices[:2].tolist() == [0, 2]

    def test_zero_coefficients_dropped(self):
        sparse = CsrMatrix.from_coeff_rows([{0: 0.0, 1: 2.0}], 2)
        assert sparse.nnz == 1

    def test_empty(self):
        sparse = CsrMatrix.empty(5)
        assert sparse.shape == (0, 5)
        assert sparse.nnz == 0
        assert sparse.matvec(np.ones(5)).shape == (0,)


class TestOperations:
    def test_matvec_matches_dense(self):
        sparse, dense = example_matrix()
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(sparse @ x, dense @ x)

    def test_column_gather(self):
        sparse, dense = example_matrix()
        for j in range(4):
            np.testing.assert_allclose(sparse.column(j), dense[:, j])

    def test_row_entries(self):
        sparse, _ = example_matrix()
        cols, vals = sparse.row_entries(2)
        assert cols.tolist() == [1, 3]
        assert vals.tolist() == [3.5, 1.0]

    def test_toarray_is_cached(self):
        sparse, _ = example_matrix()
        assert sparse.toarray() is sparse.toarray()


class TestStandardFormIntegration:
    def test_form_matrices_are_sparse(self):
        m = Model("sparse")
        xs = [m.add_binary(f"x{i}") for i in range(50)]
        for i in range(0, 50, 5):
            m.add_constraint(quicksum(xs[i:i + 5]) == 1)
        m.add_constraint(quicksum(xs) <= 10)
        m.set_objective(quicksum((i + 1) * x for i, x in enumerate(xs)))
        form = to_standard_form(m)
        # 10 uniqueness rows of 5 nnz + one 50-nnz row.
        assert form.A_eq_sparse.nnz == 50
        assert form.A_ub_sparse.nnz == 50
        assert form.num_nonzeros == 100
        # Dense view is materialised lazily and shared with bound copies.
        child = form.with_bounds(form.lb, form.ub)
        assert child.A_ub is form.A_ub
        assert child.A_eq is form.A_eq
