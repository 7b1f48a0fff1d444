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
    its start, so every row must store an entry; :func:`laplacian`, the
    package's one constructor, stores each row's diagonal.
    """

    cols: np.ndarray
    vals: np.ndarray
    starts: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        terms = np.take(x, self.cols, axis=0)
        terms *= self.vals.reshape((-1,) + (1,) * (terms.ndim - 1))
        return np.add.reduceat(terms, self.starts, axis=0)


def laplacian(n: int, i, j, w, diagonal) -> CsrMatrix:
    """``diag(diagonal) + L`` for the Laplacian L of the undirected edges (i, j) weighing w.

    Each edge must appear once, with ``i != j``: an edge given twice, in
    either direction, or a loop ``i == j`` is refused as a duplicate entry.
    The diagonal adds the edge weights at i, then those at j, to
    ``diagonal``. Every row stores its diagonal entry and one entry per edge
    at it, n + 2 * edges entries in all.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if not i.shape == j.shape == w.shape:
        raise ValueError("entry arrays must have equal length")
    if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
        raise ValueError("entry index out of range")
    diag = np.asarray(diagonal, dtype=np.float64) + np.bincount(i, weights=w, minlength=n)
    diag += np.bincount(j, weights=w, minlength=n)
    index = np.arange(n)
    rows, cols = np.concatenate([index, i, j]), np.concatenate([index, j, i])
    keys = rows * n + cols
    order = np.argsort(keys)
    if np.any(np.diff(keys[order]) == 0):
        raise ValueError("duplicate entry")
    return CsrMatrix(cols[order], np.concatenate([diag, -w, -w])[order],
                     np.searchsorted(rows[order], index))
