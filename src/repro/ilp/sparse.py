"""Minimal CSR sparse matrix used by the ILP standard form.

The mapping formulations are extremely sparse: a uniqueness row touches
only one data structure's candidates and a resource row only one bank
type's column block, so the constraint matrices carry a handful of
non-zeros per row while a dense layout would allocate ``rows x columns``
floats.  :class:`CsrMatrix` stores exactly the non-zeros (classic
compressed-sparse-row layout) and provides the small set of operations
the solvers need — matrix-vector products, column gathers, row
access — in vectorised NumPy.  The dense array is materialised lazily
(and cached) only where a consumer genuinely needs it, which today is
the simplex tableau.

SciPy's own sparse types are deliberately not used here: the pure-Python
solver stack must work without SciPy installed.  The SciPy bindings
build their own copy from the CSR arrays, once per matrix.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CsrMatrix"]


class CsrMatrix:
    """Immutable CSR matrix of ``float64`` coefficients.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the logical matrix.
    data, indices, indptr:
        The standard CSR arrays: ``data[indptr[i]:indptr[i+1]]`` are the
        non-zero values of row ``i`` and ``indices[...]`` their column
        positions (strictly increasing within a row).
    """

    __slots__ = (
        "shape", "data", "indices", "indptr", "_dense", "_row_of_nz",
    )

    def __init__(
        self,
        shape: Tuple[int, int],
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
    ) -> None:
        rows, cols = int(shape[0]), int(shape[1])
        self.shape = (rows, cols)
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        if self.indptr.shape[0] != rows + 1:
            raise ValueError("indptr must have rows + 1 entries")
        if self.data.shape != self.indices.shape:
            raise ValueError("data and indices must have the same length")
        self._dense: Optional[np.ndarray] = None
        self._row_of_nz: Optional[np.ndarray] = None

    # ------------------------------------------------------------ builders
    @classmethod
    def from_coeff_rows(
        cls, rows: Sequence[Mapping[int, float]], num_cols: int
    ) -> "CsrMatrix":
        """Build from one ``{column index: coefficient}`` mapping per row.

        Zero coefficients are dropped; columns are sorted within each row
        so the layout is canonical regardless of insertion order.
        """
        data: List[float] = []
        indices: List[int] = []
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        for i, row in enumerate(rows):
            entries = sorted(
                (int(col), float(coeff))
                for col, coeff in row.items()
                if coeff != 0.0
            )
            for col, coeff in entries:
                indices.append(col)
                data.append(coeff)
            indptr[i + 1] = len(data)
        return cls(
            (len(rows), num_cols),
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            indptr,
        )

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CsrMatrix":
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows_idx, cols_idx = np.nonzero(array)
        indptr = np.zeros(array.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows_idx + 1, 1)
        indptr = np.cumsum(indptr)
        return cls((array.shape[0], array.shape[1]),
                   array[rows_idx, cols_idx], cols_idx.astype(np.int64), indptr)

    @classmethod
    def empty(cls, num_cols: int) -> "CsrMatrix":
        """A matrix with zero rows (used for absent constraint blocks)."""
        return cls((0, num_cols),
                   np.zeros(0), np.zeros(0, dtype=np.int64),
                   np.zeros(1, dtype=np.int64))

    # ---------------------------------------------------------- properties
    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    def row_lengths(self) -> np.ndarray:
        """Non-zero count of every row."""
        return np.diff(self.indptr)

    def _rows_of_nonzeros(self) -> np.ndarray:
        if self._row_of_nz is None:
            self._row_of_nz = np.repeat(
                np.arange(self.num_rows, dtype=np.int64), self.row_lengths()
            )
        return self._row_of_nz

    def rows_of_nonzeros(self) -> np.ndarray:
        """Row index of every non-zero, aligned with ``data``/``indices``."""
        return self._rows_of_nonzeros()

    # ----------------------------------------------------------- operations
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x`` without densifying."""
        if self.nnz == 0:
            return np.zeros(self.num_rows)
        products = self.data * np.asarray(x, dtype=np.float64)[self.indices]
        return np.bincount(
            self._rows_of_nonzeros(), weights=products, minlength=self.num_rows
        )

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def column(self, j: int) -> np.ndarray:
        """Dense copy of column ``j``."""
        out = np.zeros(self.num_rows)
        mask = self.indices == j
        if np.any(mask):
            out[self._rows_of_nonzeros()[mask]] = self.data[mask]
        return out

    def row_entries(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(column indices, values)`` of row ``i`` (views, do not mutate)."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def toarray(self) -> np.ndarray:
        """Dense materialisation (cached; treat the result as read-only)."""
        if self._dense is None:
            dense = np.zeros(self.shape, dtype=np.float64)
            if self.nnz:
                dense[self._rows_of_nonzeros(), self.indices] = self.data
            self._dense = dense
        return self._dense

    @property
    def size(self) -> int:
        """Logical element count, mirroring ``numpy.ndarray.size``.

        Lets boolean guards like ``if form.A_ub.size`` keep working for
        callers holding either representation.
        """
        return self.shape[0] * self.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"
