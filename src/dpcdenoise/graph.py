"""Sparse weighted graphs and their Laplacian operators.

The only module that needs scipy; the denoising pipeline does not import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


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

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric adjacency matrix."""
        n = self.node_count
        rows = np.concatenate([self.edge_i, self.edge_j])
        cols = np.concatenate([self.edge_j, self.edge_i])
        vals = np.concatenate([self.weights, self.weights])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count)
        np.add.at(deg, self.edge_i, self.weights)
        np.add.at(deg, self.edge_j, self.weights)
        return deg


def combinatorial_laplacian(graph: SparseGraph) -> sp.csr_matrix:
    """L = D - A: symmetric and positive semidefinite."""
    adj = graph.adjacency()
    deg = sp.diags(graph.degrees())
    return (deg - adj).tocsr()


@dataclass(frozen=True)
class RwLaplacian:
    """Degree-normalized Laplacian I - D^-1 A.

    Rows of isolated nodes are identically zero, so every row sums to
    zero and a constant signal is always annihilated.
    """

    matrix: sp.csr_matrix = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]


def random_walk_laplacian(graph: SparseGraph) -> RwLaplacian:
    n = graph.node_count
    deg = graph.degrees()
    connected = deg > 0
    rows = [np.flatnonzero(connected)]
    cols = [np.flatnonzero(connected)]
    vals = [np.ones(int(np.count_nonzero(connected)))]
    for a, b in ((graph.edge_i, graph.edge_j), (graph.edge_j, graph.edge_i)):
        rows.append(a)
        cols.append(b)
        vals.append(-graph.weights / deg[a])
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    deg = deg.copy()
    deg.flags.writeable = False
    return RwLaplacian(matrix=matrix, degrees=deg)


def apply_rw(lap: RwLaplacian, signal) -> np.ndarray:
    """Apply the random-walk Laplacian to a per-node signal (n,) or (n, d)."""
    sig = np.asarray(signal, dtype=np.float64)
    if sig.shape[0] != lap.node_count:
        raise ValueError("signal row count must equal node count")
    if sig.ndim not in (1, 2):
        raise ValueError("signal must be 1- or 2-dimensional")
    return lap.matrix @ sig
