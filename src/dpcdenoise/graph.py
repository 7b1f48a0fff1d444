"""Sparse CSR matrices and graph Laplacians, on numpy alone.

:func:`laplacian`, the one builder of ``diag(d) + L``, assembles the point
solve's system and, with a zero diagonal, :func:`combinatorial_laplacian`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.starts.size, self.starts.size)

    @property
    def nnz(self) -> int:
        return self.cols.size

    def toarray(self) -> np.ndarray:
        """Dense copy of the matrix."""
        n = self.starts.size
        dense = np.zeros((n, n))
        dense[np.repeat(np.arange(n), np.diff(self.starts, append=self.nnz)), self.cols] = self.vals
        return dense

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


@dataclass(frozen=True)
class SparseGraph:
    """Undirected weighted graph stored as an edge list with i < j."""

    node_count: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_edges(cls, node_count: int, i, j, weights) -> "SparseGraph":
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        i = np.asarray(i, dtype=np.int64).ravel()
        j = np.asarray(j, dtype=np.int64).ravel()
        w = np.asarray(weights, dtype=np.float64).ravel()
        if not (i.shape == j.shape == w.shape):
            raise ValueError("edge arrays must have equal length")
        if i.size:
            if np.any(i == j):
                raise ValueError("self-loops are not allowed")
            if np.any((i < 0) | (i >= node_count) | (j < 0) | (j >= node_count)):
                raise ValueError("edge endpoint out of range")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("weights must be finite and >= 0")
            lo = np.minimum(i, j)
            hi = np.maximum(i, j)
            order = np.lexsort((hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            if np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
                raise ValueError("duplicate edges are not allowed")
            i, j = lo, hi
        for arr in (i, j, w):
            arr.flags.writeable = False
        return cls(node_count=node_count, edge_i=i, edge_j=j, weights=w)

    @property
    def edge_count(self) -> int:
        return self.edge_i.size

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count)
        np.add.at(deg, self.edge_i, self.weights)
        np.add.at(deg, self.edge_j, self.weights)
        return deg


def combinatorial_laplacian(graph: SparseGraph) -> CsrMatrix:
    """L = D - A: symmetric and positive semidefinite."""
    return laplacian(graph.node_count, graph.edge_i, graph.edge_j, graph.weights,
                     np.zeros(graph.node_count))


@dataclass(frozen=True)
class RwLaplacian:
    """Degree-normalized Laplacian I - D^-1 A.

    A node of degree 0, isolated or with edges that all weigh 0, has an
    explicit 0.0 diagonal and 0.0 at its edges, so every row sums to zero
    and a constant signal is always annihilated.
    """

    matrix: CsrMatrix = field(repr=False)

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]


def random_walk_laplacian(graph: SparseGraph) -> RwLaplacian:
    n = graph.node_count
    deg = graph.degrees()
    i, j, w = graph.edge_i, graph.edge_j, graph.weights
    index = np.arange(n)
    off = [np.divide(-w, deg[end], out=np.zeros_like(w), where=deg[end] > 0) for end in (i, j)]
    matrix = CsrMatrix.from_entries(n, np.concatenate([index, i, j]),
                                    np.concatenate([index, j, i]),
                                    np.concatenate([(deg > 0).astype(np.float64), *off]))
    return RwLaplacian(matrix=matrix)


def apply_rw(lap: RwLaplacian, signal) -> np.ndarray:
    """Apply the random-walk Laplacian to a per-node signal (n,) or (n, d)."""
    sig = np.asarray(signal, dtype=np.float64)
    if sig.shape[0] != lap.node_count:
        raise ValueError("signal row count must equal node count")
    if sig.ndim not in (1, 2):
        raise ValueError("signal must be 1- or 2-dimensional")
    return lap.matrix @ sig
