"""Sparse LU basis factorizations for the revised simplex kernel.

Two interchangeable factorization backends live here, both answering the
same two questions about the current basis matrix ``B`` (an ``m``-column
subset of the computational form ``W = [A | I]``):

* **FTRAN** — solve ``B x = b`` (column direction; used for the entering
  column and for recomputing the basic values), and
* **BTRAN** — solve ``Bᵀ y = c_B`` (row direction; used for pricing and
  for extracting rows of ``B⁻¹``).

:class:`DenseFactors` keeps an explicit dense ``B⁻¹`` updated by rank-1
product-form pivots — the representation the first-generation kernel
used, still the fastest choice for the paper's tiny mapping models
(``m`` in the tens) where one dense mat-vec beats any amount of Python
bookkeeping.

:class:`LuFactors` is the scalable path: a sparse LU computed by
Markowitz-ordered Gaussian elimination with threshold pivoting.  The
factorization is stored in *eta form*:

* one **L-eta** per elimination step — ``(pivot row, rows, multipliers)``
  recording the column of multipliers that cleared the pivot column, and
* the rows of ``U`` in both row-major form (for the FTRAN backward
  substitution) and column-major form (for the BTRAN forward
  substitution), with the implicit row/column permutation carried by the
  recorded ``(row, col)`` pivot sequence.

Pivot selection is the classic sparsity/stability compromise: among the
active columns pick one with the fewest non-zeros, then within it the
entry of minimum row count whose magnitude is at least
``stability × (column max)``.  Ties break on the smallest index, so the
factorization — and therefore every pivot path built on it — is
deterministic.  A structurally or numerically singular matrix returns
``None`` rather than raising; the kernel treats that exactly like the
dense path's ``LinAlgError`` (reject the warm basis, cold-start).

Updates after a basis change are *not* folded into ``L``/``U`` here —
the kernel appends product-form update etas on top of the frozen
factors and refactorizes when the eta file grows too long or too dense
(see ``RevisedSimplex._pivot_update``).

The substitution loops run in Python, so their storage is tuned for the
interpreter, not for vector units: steps with zero or one off-diagonal
entry (the common case in sparse bases) carry plain ints/floats instead
of NumPy arrays, which keeps the per-step cost at a couple of dict-free
bytecodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DenseFactors", "LuFactors", "factorize_markowitz"]


class DenseFactors:
    """Explicit dense ``B⁻¹`` with rank-1 product-form updates.

    This preserves the first-generation kernel's numerical behaviour:
    refactorization is ``np.linalg.inv`` and each pivot does the same
    multiply and subtract per changed entry as a full outer-product update.
    """

    kind = "dense"

    def __init__(self, binv: np.ndarray) -> None:
        self.binv = binv
        self.m = binv.shape[0]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> Optional["DenseFactors"]:
        try:
            return cls(np.linalg.inv(matrix))
        except np.linalg.LinAlgError:
            return None

    @classmethod
    def identity(cls, m: int) -> "DenseFactors":
        return cls(np.eye(m))

    @property
    def nnz(self) -> int:
        """Fill of the factorization (dense: the whole inverse)."""
        return self.m * self.m

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs`` (returns a fresh array)."""
        return self.binv @ rhs

    def btran(self, cb: np.ndarray) -> np.ndarray:
        """Solve ``Bᵀ y = cb`` (returns a fresh array)."""
        return cb @ self.binv

    def update(self, row: int, alpha: np.ndarray) -> None:
        """Absorb a basis change: column ``row`` replaced, ``alpha = B⁻¹ a_q``.

        Only the rows where ``alpha`` is non-zero change, so the rank-1
        update touches only those: its temporary is one row per non-zero,
        not ``m × m``.
        """
        pivot_row = self.binv[row]
        pivot_row /= alpha[row]
        rows = np.flatnonzero(alpha)
        rows = rows[rows != row]
        self.binv[rows] -= np.outer(alpha[rows], pivot_row)


def _pack(entries: List[Tuple[int, float]]):
    """Arity-specialised entry storage for the Python substitution loops.

    ``None`` for empty, ``(int, float)`` scalars for a single entry,
    ``(ndarray, ndarray)`` for the general case — the loops dispatch on
    ``type(...) is int``, which is far cheaper than indexing a length-1
    array through NumPy.
    """
    if not entries:
        return None, None
    if len(entries) == 1:
        return entries[0][0], entries[0][1]
    idx = np.array([i for i, _ in entries], dtype=np.int64)
    val = np.array([v for _, v in entries], dtype=np.float64)
    return idx, val


class LuFactors:
    """Frozen sparse LU factors of one basis matrix, in eta form.

    Constructed by :func:`factorize_markowitz`; immutable once built.
    Each elimination step ``k`` records the pivot ``(r_k, c_k, p_k)``,
    the row-``r_k`` entries of ``U`` over columns eliminated *later*
    (FTRAN backward substitution), and the column-``c_k`` entries of
    ``U`` over pivot rows eliminated *earlier* (BTRAN forward
    substitution).
    """

    kind = "lu"

    __slots__ = ("m", "nnz", "_letas", "_letas_rev", "_usteps_rev", "_usteps")

    def __init__(
        self,
        m: int,
        letas: List[tuple],
        usteps: List[tuple],
        nnz: int,
    ) -> None:
        self.m = m
        self.nnz = nnz
        self._letas = letas            # (r, rows|int|None, vals|float|None)
        self._letas_rev = letas[::-1]
        self._usteps = usteps          # (r, c, p, ucols, uvals, brows, bvals)
        self._usteps_rev = usteps[::-1]

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs`` sparsely (``rhs`` is not mutated).

        Entries of the result that no elimination path reaches stay
        exactly ``0.0``, so callers may use ``np.nonzero`` to recover
        genuine sparsity.
        """
        work = np.array(rhs, dtype=np.float64, copy=True)
        for r, rows, vals in self._letas:
            pivot_val = work[r]
            if pivot_val != 0.0 and rows is not None:
                work[rows] -= vals * pivot_val
        x = np.zeros(self.m)
        for r, c, p, ucols, uvals, _, _ in self._usteps_rev:
            v = work[r]
            if ucols is None:
                pass
            elif type(ucols) is int:
                xv = x[ucols]
                if xv != 0.0:
                    v = v - uvals * xv
            else:
                v = v - uvals @ x[ucols]
            if v != 0.0:
                x[c] = v / p
        return x

    def btran(self, cb: np.ndarray) -> np.ndarray:
        """Solve ``Bᵀ y = cb`` sparsely (``cb`` is not mutated)."""
        z = np.zeros(self.m)
        for r, c, p, _, _, brows, bvals in self._usteps:
            v = cb[c]
            if brows is None:
                pass
            elif type(brows) is int:
                zv = z[brows]
                if zv != 0.0:
                    v = v - bvals * zv
            else:
                v = v - bvals @ z[brows]
            if v != 0.0:
                z[r] = v / p
        for r, rows, vals in self._letas_rev:
            if rows is None:
                continue
            if type(rows) is int:
                zv = z[rows]
                if zv != 0.0:
                    z[r] -= vals * zv
            else:
                z[r] -= vals @ z[rows]
        return z


def factorize_markowitz(
    columns: Sequence[Tuple[np.ndarray, np.ndarray]],
    m: int,
    stability: float = 0.01,
) -> Optional[LuFactors]:
    """Sparse LU of the ``m × m`` matrix whose columns are ``columns``.

    ``columns[k]`` is the ``(row indices, values)`` pair of basis column
    ``k``.  Returns ``None`` when the matrix is structurally or
    numerically singular (an active column empties out, or no remaining
    entry passes the relative ``stability`` threshold against an
    absolute floor).
    """
    # Active submatrix in column-major dict form; entries are removed as
    # their rows/columns are eliminated, so ``colmap[j]`` always holds
    # exactly the active rows of active column ``j``.  Non-zero counts
    # are maintained in arrays so pivot selection never rescans dicts.
    colmap: List[dict] = []
    for rows, vals in columns:
        col = {}
        for r, v in zip(rows.tolist(), vals.tolist()):
            if v != 0.0:
                col[r] = col.get(r, 0.0) + v
        colmap.append(col)
    if len(colmap) != m:
        return None
    rowcols: List[set] = [set() for _ in range(m)]
    for j, col in enumerate(colmap):
        if not col:
            return None
        for r in col:
            rowcols[r].add(j)
    colcount = np.array([len(col) for col in colmap], dtype=np.int64)
    rowcount = [len(rc) for rc in rowcols]
    inactive = m + 1  # sentinel pushing eliminated columns past any real count

    letas: List[tuple] = []
    steps_raw: List[Tuple[int, int, float, List[Tuple[int, float]]]] = []
    nnz = 0

    for _ in range(m):
        # Markowitz-style pivot column: fewest active entries; np.argmin
        # breaks ties on the smallest index deterministically.
        c = int(np.argmin(colcount))
        if colcount[c] >= inactive:
            return None
        col = colmap[c]
        if not col:
            return None
        colmax = max(abs(v) for v in col.values())
        if colmax <= 1e-12:
            return None
        # Stable pivot row inside the column: magnitude within the
        # threshold of the column max, then fewest active row entries,
        # then smallest row index — all deterministic.
        threshold = stability * colmax
        pivot_row = -1
        pivot_count = inactive
        pivot_val = 0.0
        for r in sorted(col):
            v = col[r]
            if abs(v) < threshold:
                continue
            count = rowcount[r]
            if count < pivot_count:
                pivot_count = count
                pivot_row = r
                pivot_val = v
        if pivot_row < 0:
            return None
        r = pivot_row
        p = pivot_val

        # Multipliers clearing the pivot column below/around the pivot.
        mult = [(i, v / p) for i, v in sorted(col.items()) if i != r]
        letas.append((r, *_pack(mult)))
        nnz += len(mult) + 1

        # Eliminate: remove the pivot row from every other active column,
        # recording its value (a U-row entry) and applying the update.
        urow: List[Tuple[int, float]] = []
        for j in sorted(rowcols[r]):
            if j == c:
                continue
            other = colmap[j]
            a_rj = other.pop(r)
            colcount[j] -= 1
            urow.append((j, a_rj))
            nnz += 1
            for i, mi in mult:
                value = other.get(i)
                if value is None:
                    other[i] = -mi * a_rj
                    rowcols[i].add(j)
                    rowcount[i] += 1
                    colcount[j] += 1
                else:
                    value -= mi * a_rj
                    if value == 0.0:
                        del other[i]
                        rowcols[i].discard(j)
                        rowcount[i] -= 1
                        colcount[j] -= 1
                    else:
                        other[i] = value
        rowcols[r] = set()
        rowcount[r] = inactive
        for i in col:
            if i != r:
                rowcols[i].discard(c)
                rowcount[i] -= 1
        colmap[c] = {}
        colcount[c] = inactive
        steps_raw.append((r, c, p, urow))

    # Assemble the dual U representations.  ``urow`` holds row-r_k
    # entries keyed by *column* (eliminated later); BTRAN needs them
    # regrouped per target step, keyed by the source pivot row.
    step_of_col = {c: k for k, (_, c, _, _) in enumerate(steps_raw)}
    btran_entries: List[List[Tuple[int, float]]] = [[] for _ in steps_raw]
    for k, (r, _, _, urow) in enumerate(steps_raw):
        for jc, v in urow:
            btran_entries[step_of_col[jc]].append((r, v))

    usteps = []
    for k, (r, c, p, urow) in enumerate(steps_raw):
        ucols, uvals = _pack(urow)
        brows, bvals = _pack(btran_entries[k])
        usteps.append((r, c, float(p), ucols, uvals, brows, bvals))
    return LuFactors(m, letas, usteps, nnz)
