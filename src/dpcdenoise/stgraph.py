"""Spatio-temporal graph assembly.

The spatial graph connects rows of adjacent patches: patch l occupies rows
l*(k+1) .. l*(k+1)+k, and row r of patch l holds ``p_r = u_a - c_l``, its
point minus the patch's fixed center. A row edge's weight and its residual
``p_r - p_r'`` depend only on the two points it joins and on the center gap
of the two patches, so :func:`spatial_connectivity` folds the row edges onto
the distinct point pairs they join (:class:`SpatialEdges`), and every later
stage works on points and pairs. Temporal weights stay per patch and expand
to rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NeighborIndex, knn_rows
from .patches import PATCH_BLOCK, PatchSet, all_relative_coords, sq_dists


@dataclass(frozen=True)
class SpatialEdges:
    """Spatial row edges folded onto the distinct point pairs they join.

    A row edge e between row r of patch l (point a) and row r' of patch m
    (point b) has residual ``p_r - p_r' = (u_a - u_b) - delta_e`` with
    ``delta_e = c_l - c_m``. Orient every edge of a pair from its lower point
    ``lo`` to its higher point ``hi`` (a point may pair with itself); then

        sum_e ||p_r - p_r'||^2 = count * ||u_lo - u_hi - offset||^2 + spread

    holds exactly, where ``offset`` is the mean oriented ``delta_e`` and
    ``spread = sum_e ||delta_e - offset||^2``. Per pair: ``points`` (lo, hi),
    sorted; ``counts``, the row edges; ``offsets`` and ``spread``.
    ``len()`` is the number of row edges, not of pairs.
    """

    points: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    spread: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())

    def differences(self, features: np.ndarray) -> np.ndarray:
        """Feature difference of each point pair, shape (pairs, d)."""
        feats = np.asarray(features, dtype=np.float64)
        return feats[self.points[:, 0]] - feats[self.points[:, 1]]

    def residuals(self, u: np.ndarray) -> np.ndarray:
        """Per pair, the squared row-edge residuals summed: ``sum_e ||p_r - p_r'||^2`` at ``u``."""
        u = np.asarray(u, dtype=np.float64)
        gap = u[self.points[:, 0]] - u[self.points[:, 1]] - self.offsets
        return self.counts * np.sum(gap * gap, axis=1) + self.spread


def spatial_connectivity(patchset: PatchSet, positions: np.ndarray, k_s: int) -> SpatialEdges:
    """Row edges between adjacent patches, folded onto point pairs.

    Patches are adjacent when either has the other among its ``k_s``
    nearest patch centers; one batched k-NN query over the centers finds
    them all. Between adjacent patches, every row connects to the row of
    the other patch whose center-relative coordinates are nearest (ties
    by ascending index), computed for blocks of patch pairs on the
    (pairs, k+1, k+1) cost tensor. Each distinct row edge is counted once,
    and the edges are returned folded onto the point pairs they join, with
    the patch centers ``c_l`` taken from ``positions``. Raises ValueError
    when the frame is too large for the int64 edge keys: n^2 times twice
    the adjacent patch pairs must stay below 2^63, which holds for any
    frame under 770,000 points at ``k_s = 10``.
    """
    m = len(patchset)
    if k_s >= m:
        raise ValueError("k_s must be < patch count")
    pts = np.asarray(positions, dtype=np.float64)
    center_pts = pts[patchset.center_indices]
    centers = NeighborIndex.from_points(center_pts)
    near = knn_rows(centers, centers.points, k_s, exclude=np.arange(m))
    own = np.repeat(np.arange(m), k_s)
    adjacent = np.unique(np.minimum(own, near.ravel()) * m + np.maximum(own, near.ravel()))
    adj = np.column_stack([adjacent // m, adjacent % m])
    rel = all_relative_coords(patchset, pts)
    members = patchset.members
    n = pts.shape[0]
    # Each row edge is one int64 sort key: its point-pair key lo * n + hi,
    # then its code 2 * (patch pair) + 1 if its lower point lies in patch m
    # (center gap c_m - c_l), + 0 if in patch l (gap c_l - c_m).
    span = 2 * adj.shape[0]
    if n * n * span >= 2**63:
        raise ValueError("frame too large for int64 edge keys")
    slots = np.arange(patchset.k + 1, dtype=np.int64)
    # Pair (l, m) has l < m. Its forward edge of slot s and its backward edge
    # of slot t join the same two rows only when nl[t] = s and nm[s] = t, so
    # mutual backward edges are dropped and every row edge is emitted once.
    keys = []
    for start in range(0, adj.shape[0], PATCH_BLOCK):
        block = adj[start : start + PATCH_BLOCK]
        cost = sq_dists(rel[block[:, 0]], rel[block[:, 1]])   # (b, size, size)
        nm = np.argmin(cost, axis=2)                          # nearest m slot per l slot
        nl = np.argmin(cost, axis=1)                          # nearest l slot per m slot
        one_way = np.take_along_axis(nm, nl, axis=1) != slots
        in_l, in_m = members[block[:, 0]], members[block[:, 1]]
        pair = np.broadcast_to(2 * (start + np.arange(block.shape[0]))[:, None], nm.shape)
        a = np.concatenate([in_l.ravel(), np.take_along_axis(in_l, nl, axis=1)[one_way]])
        b = np.concatenate([np.take_along_axis(in_m, nm, axis=1).ravel(), in_m[one_way]])
        code = np.concatenate([pair.ravel(), pair[one_way]]) + (a > b)
        keys.append((np.minimum(a, b) * n + np.maximum(a, b)) * span + code)
    keys = np.concatenate(keys)
    keys.sort()
    pair_keys, codes = np.divmod(keys, span)
    del keys
    starts = np.flatnonzero(np.concatenate([[True], pair_keys[1:] != pair_keys[:-1]]))
    counts = np.diff(np.append(starts, pair_keys.size))
    points = np.column_stack(np.divmod(pair_keys[starts], n))
    del pair_keys
    # Oriented center gaps, per axis: entry 2p is c_l - c_m of patch pair p, 2p + 1 its negative.
    gaps = center_pts[adj[:, 0]] - center_pts[adj[:, 1]]
    table = np.stack([gaps, -gaps], axis=1).reshape(span, 3).T.copy()
    offsets = np.empty((starts.size, 3))
    spread = np.zeros(starts.size)
    for axis in range(3):
        delta = table[axis][codes]
        offsets[:, axis] = np.add.reduceat(delta, starts) / counts
        delta -= np.repeat(offsets[:, axis], counts)
        delta *= delta
        spread += np.add.reduceat(delta, starts)
    return SpatialEdges(points=points, counts=counts, offsets=offsets, spread=spread)


def point_features(positions: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """6-D feature per point: coordinates and unit normal."""
    nrm = np.asarray(normals, dtype=np.float64)
    lengths = np.linalg.norm(nrm, axis=1)
    if not np.all(np.abs(lengths - 1.0) <= 1e-9):
        raise ValueError("normals must have unit length")
    return np.hstack([np.asarray(positions, dtype=np.float64), nrm])


def initial_spatial_weights(edges: SpatialEdges, features: np.ndarray) -> np.ndarray:
    """Gaussian-kernel weight exp(-||f_i - f_j||^2) of each point pair."""
    diff = edges.differences(features)
    return np.exp(-np.sum(diff * diff, axis=1))


def weighted_spatial_graph(
    edges: SpatialEdges, features: np.ndarray, metric: np.ndarray
) -> np.ndarray:
    """Weight exp(-df^T M df) of each point pair under a symmetric PSD metric M."""
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
    return np.exp(-np.einsum("ei,ij,ej->e", diff, metric, diff))


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
