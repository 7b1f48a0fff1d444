"""Spatio-temporal graph assembly over the patch-row index space.

Graph nodes are patch rows: patch l occupies rows l*(k+1) .. l*(k+1)+k,
so a point shared by several patches appears once per patch. This keeps
the operators aligned with the (k+1)m-row patch matrices; the point
solve folds shared rows back through the selection operator. Edge
weights depend only on the two points an edge joins, so they are
computed once per distinct point pair (:class:`SpatialEdges`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NeighborIndex, knn_rows
from .graph import SparseGraph
from .patches import PATCH_BLOCK, PatchSet, all_relative_coords, sq_dists


def spatial_connectivity(patchset: PatchSet, positions: np.ndarray, k_s: int) -> np.ndarray:
    """Row-index pairs connecting adjacent patches.

    Patches are adjacent when either has the other among its ``k_s``
    nearest patch centers; one batched k-NN query over the centers finds
    them all. Between adjacent patches, every row connects to the row of
    the other patch whose center-relative coordinates are nearest (ties
    by ascending index), computed for blocks of patch pairs on the
    (pairs, k+1, k+1) cost tensor. The result is an (e, 2) array of
    distinct pairs with pair[0] < pair[1], sorted.
    """
    m = len(patchset)
    if k_s >= m:
        raise ValueError("k_s must be < patch count")
    pts = np.asarray(positions, dtype=np.float64)
    centers = NeighborIndex.from_points(pts[patchset.center_indices])
    near = knn_rows(centers, centers.points, k_s, exclude=np.arange(m))
    own = np.repeat(np.arange(m), k_s)
    adjacent = np.unique(np.minimum(own, near.ravel()) * m + np.maximum(own, near.ravel()))
    adj = np.column_stack([adjacent // m, adjacent % m])
    rel = all_relative_coords(patchset, pts)
    size = patchset.k + 1
    n_rows = m * size
    slots = np.arange(size, dtype=np.int64)
    # Pair (l, m) has l < m, so each of its edges is (row of l, row of m) and
    # has the scalar key row_l * n_rows + row_m. Edges of different patch
    # pairs differ; within a pair, the forward edge of slot s and the
    # backward edge of slot t coincide only when nl[t] = s and nm[s] = t,
    # so mutual backward edges are dropped and every key is distinct.
    keys = []
    for start in range(0, adj.shape[0], PATCH_BLOCK):
        block = adj[start : start + PATCH_BLOCK]
        cost = sq_dists(rel[block[:, 0]], rel[block[:, 1]])   # (b, size, size)
        nm = np.argmin(cost, axis=2)                          # nearest m slot per l slot
        nl = np.argmin(cost, axis=1)                          # nearest l slot per m slot
        base_l = (block[:, 0:1] * size) * n_rows              # (b, 1)
        base_m = block[:, 1:2] * size
        keys.append((base_l + slots * n_rows + base_m + nm).ravel())
        one_way = np.take_along_axis(nm, nl, axis=1) != slots
        keys.append((base_l + nl * n_rows + base_m + slots)[one_way])
    keys = np.sort(np.concatenate(keys))
    return np.column_stack([keys // n_rows, keys % n_rows])


@dataclass(frozen=True)
class SpatialEdges:
    """Spatial row edges grouped by the unordered point pair they join.

    A row's feature is its point's (position, normal), so every edge
    between rows of the same two points has the same feature difference
    up to sign, and its weight ``exp(-df^T M df)`` is computed once per
    pair. ``points`` holds the distinct pairs (lower index first, a point
    may pair with itself) and ``inverse`` the pair of each row edge.
    """

    rows: np.ndarray
    points: np.ndarray
    inverse: np.ndarray
    row_count: int

    @classmethod
    def group(cls, rows: np.ndarray, members: np.ndarray) -> "SpatialEdges":
        """Group the (e, 2) row pairs of :func:`spatial_connectivity` by point pair."""
        rows = np.asarray(rows, dtype=np.int64)
        flat = np.asarray(members, dtype=np.int64).ravel()
        a, b = flat[rows[:, 0]], flat[rows[:, 1]]
        n = int(flat.max()) + 1
        keys, inverse = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
        points = np.column_stack([keys // n, keys % n])
        return cls(rows=rows, points=points, inverse=inverse.ravel(), row_count=flat.size)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def differences(self, features: np.ndarray) -> np.ndarray:
        """Feature difference of each point pair, shape (pairs, d)."""
        feats = np.asarray(features, dtype=np.float64)
        return feats[self.points[:, 0]] - feats[self.points[:, 1]]

    def pair_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-edge ``values`` summed over each point pair."""
        return np.bincount(self.inverse, weights=values, minlength=self.points.shape[0])

    def graph(self, pair_weights: np.ndarray) -> SparseGraph:
        """Row graph whose edges carry their point pair's weight."""
        return SparseGraph.from_edges(self.row_count, self.rows[:, 0], self.rows[:, 1],
                                      pair_weights[self.inverse])


def point_features(positions: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """6-D feature per point: coordinates and unit normal."""
    nrm = np.asarray(normals, dtype=np.float64)
    lengths = np.linalg.norm(nrm, axis=1)
    if not np.all(np.abs(lengths - 1.0) <= 1e-9):
        raise ValueError("normals must have unit length")
    return np.hstack([np.asarray(positions, dtype=np.float64), nrm])


def initial_spatial_weights(edges: SpatialEdges, features: np.ndarray) -> SparseGraph:
    """Gaussian-kernel edge weights: exp(-||f_i - f_j||^2) over point features."""
    diff = edges.differences(features)
    return edges.graph(np.exp(-np.sum(diff * diff, axis=1)))


def weighted_spatial_graph(
    edges: SpatialEdges, features: np.ndarray, metric: np.ndarray
) -> SparseGraph:
    """Edge weights exp(-df^T M df) under a symmetric PSD metric M."""
    metric = np.asarray(metric, dtype=np.float64)
    if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
        raise ValueError("metric must be square")
    if not np.allclose(metric, metric.T):
        raise ValueError("metric must be symmetric")
    if np.min(np.linalg.eigvalsh(metric)) < -1e-9:
        raise ValueError("metric must be positive semidefinite")
    diff = edges.differences(features)
    if diff.shape[1] != metric.shape[0]:
        raise ValueError("metric size must match feature dimension")
    return edges.graph(np.exp(-np.einsum("ei,ij,ej->e", diff, metric, diff)))


@dataclass(frozen=True)
class TemporalWeights:
    """One weight per matched patch pair, expanded blockwise to rows.

    All k+1 rows of a patch share the patch's weight, so the expanded
    diagonal is constant within each patch block.
    """

    w: np.ndarray
    k: int

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64).ravel()
        if w.size < 1:
            raise ValueError("need at least one weight")
        if np.any(w < 0) or np.any(w > 1) or not np.all(np.isfinite(w)):
            raise ValueError("weights must lie in [0, 1]")
        w = np.ascontiguousarray(w)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        if self.k < 0:
            raise ValueError("k must be >= 0")

    def expand(self) -> np.ndarray:
        """Diagonal of the (k+1)m temporal weight matrix."""
        return np.repeat(self.w, self.k + 1)


def temporal_weight_init(distance: np.ndarray, k: int) -> TemporalWeights:
    """Initial patch weights: exp(-distance) per matched pair."""
    return TemporalWeights(w=np.exp(-np.asarray(distance, dtype=np.float64)), k=k)
