"""Spatio-temporal graph assembly over the patch-row index space.

Graph nodes are patch rows: patch l occupies rows l*(k+1) .. l*(k+1)+k,
so a point shared by several patches appears once per patch. This keeps
the operators aligned with the (k+1)m-row patch matrices; the point
solve folds shared rows back through the selection operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NeighborIndex, knn_rows
from .graph import SparseGraph
from .patches import PATCH_BLOCK, PatchSet, all_relative_coords


def spatial_connectivity(patchset: PatchSet, positions: np.ndarray, k_s: int) -> np.ndarray:
    """Row-index pairs connecting adjacent patches.

    Patches are adjacent when either has the other among its ``k_s``
    nearest patch centers; one batched k-NN query over the centers finds
    them all. Between adjacent patches, every row connects to the row of
    the other patch whose center-relative coordinates are nearest (ties
    by ascending index), computed for blocks of patch pairs on the
    (pairs, k+1, k+1) cost tensor. Duplicates are removed; the result is
    an (e, 2) array with pair[0] < pair[1], sorted.
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
    slots = np.arange(size, dtype=np.int64)
    pairs = []
    for start in range(0, adj.shape[0], PATCH_BLOCK):
        block = adj[start : start + PATCH_BLOCK]
        diff = rel[block[:, 0]][:, :, None, :] - rel[block[:, 1]][:, None, :, :]
        cost = np.sum(diff * diff, axis=3)                  # (b, size, size)
        rows_l = block[:, 0:1] * size + slots               # (b, size)
        rows_m = block[:, 1:2] * size + slots
        near_m = np.take_along_axis(rows_m, np.argmin(cost, axis=2), axis=1)
        near_l = np.take_along_axis(rows_l, np.argmin(cost, axis=1), axis=1)
        pairs.append(np.column_stack([rows_l.ravel(), near_m.ravel()]))
        pairs.append(np.column_stack([near_l.ravel(), rows_m.ravel()]))
    stacked = np.concatenate(pairs)
    stacked.sort(axis=1)
    # Dedup via scalar keys; one int64 sort beats a lexicographic row sort.
    n_rows = m * size
    keys = np.unique(stacked[:, 0] * n_rows + stacked[:, 1])
    return np.column_stack([keys // n_rows, keys % n_rows])


def row_features(patchset: PatchSet, positions: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """6-D feature per patch row: point coordinates and unit normal."""
    nrm = np.asarray(normals, dtype=np.float64)
    lengths = np.linalg.norm(nrm, axis=1)
    if not np.all(np.abs(lengths - 1.0) <= 1e-9):
        raise ValueError("normals must have unit length")
    flat = patchset.members.ravel()
    return np.hstack([np.asarray(positions, dtype=np.float64)[flat], nrm[flat]])


def initial_spatial_weights(pairs: np.ndarray, features: np.ndarray) -> SparseGraph:
    """Gaussian-kernel edge weights: exp(-||f_i - f_j||^2)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    feats = np.asarray(features, dtype=np.float64)
    diff = feats[pairs[:, 0]] - feats[pairs[:, 1]]
    w = np.exp(-np.sum(diff * diff, axis=1))
    return SparseGraph.from_edges(feats.shape[0], pairs[:, 0], pairs[:, 1], w)


def weighted_spatial_graph(
    pairs: np.ndarray, features: np.ndarray, metric: np.ndarray
) -> SparseGraph:
    """Edge weights exp(-df^T M df) under a symmetric PSD metric M."""
    metric = np.asarray(metric, dtype=np.float64)
    if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
        raise ValueError("metric must be square")
    if not np.allclose(metric, metric.T):
        raise ValueError("metric must be symmetric")
    if np.min(np.linalg.eigvalsh(metric)) < -1e-9:
        raise ValueError("metric must be positive semidefinite")
    pairs = np.asarray(pairs, dtype=np.int64)
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape[1] != metric.shape[0]:
        raise ValueError("metric size must match feature dimension")
    diff = feats[pairs[:, 0]] - feats[pairs[:, 1]]
    w = np.exp(-np.einsum("ei,ij,ej->e", diff, metric, diff))
    return SparseGraph.from_edges(feats.shape[0], pairs[:, 0], pairs[:, 1], w)


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
