"""The point solve's sparse system ``diag(d) + L``, on numpy alone.

:func:`laplacian` builds it as a :class:`CsrMatrix` from the spatial graph's
point pairs; a zero diagonal gives the graph's combinatorial Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CsrMatrix:
    """A sparse n x n matrix held as CSR rows, each row storing at least one entry.

    ``cols`` and ``vals`` hold the entries in (row, column) order and
    ``starts[i]`` is where row i's entries begin. ``A @ x`` multiplies every
    entry by its row of x, for x of shape (n,) or (n, d), and sums each row's
    run with ``np.add.reduceat``, which adds pairwise, so a product agrees
    with a sequential CSR product to within the summation error bound,
    not bit for bit. ``reduceat`` would read an empty run as the one term at
    its start, so a row with no entry is rejected.
    """

    cols: np.ndarray
    vals: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals) -> "CsrMatrix":
        """The matrix with entries ``vals`` at ``(rows, cols)``, one entry per position."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("entry arrays must have equal length")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError("entry index out of range")
        keys = rows * n + cols
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate entry")
        degree = np.bincount(rows, minlength=n)
        if not np.all(degree):
            raise ValueError("row with no entry")
        return cls(cols[order], vals[order], np.cumsum(degree) - degree)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        terms = np.take(x, self.cols, axis=0)
        terms *= self.vals.reshape((-1,) + (1,) * (terms.ndim - 1))
        return np.add.reduceat(terms, self.starts, axis=0)


def laplacian(n: int, i, j, w, diagonal) -> CsrMatrix:
    """``diag(diagonal) + L`` for the Laplacian L of the undirected edges (i, j) weighing w.

    Each edge must appear once, with ``i != j``. The diagonal adds the edge
    weights at i, then those at j, to ``diagonal``. Every row stores its
    diagonal entry and one entry per edge at it, n + 2 * edges entries in all.
    """
    w = np.asarray(w, dtype=np.float64)
    diag = np.asarray(diagonal, dtype=np.float64) + np.bincount(i, weights=w, minlength=n)
    diag += np.bincount(j, weights=w, minlength=n)
    index = np.arange(n)
    return CsrMatrix.from_entries(n, np.concatenate([index, i, j]),
                                  np.concatenate([index, j, i]),
                                  np.concatenate([diag, -w, -w]))
