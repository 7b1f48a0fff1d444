"""Spatio-temporal graph assembly.

The spatial graph connects rows of adjacent patches: patch l occupies rows
l*(k+1) .. l*(k+1)+k, and row r of patch l holds ``p_r = u_a - c_l``, its
point minus the patch's fixed center. A row edge's weight and its residual
``p_r - p_r'`` depend only on the two points it joins and on the center gap
of the two patches, so :func:`spatial_connectivity` folds the row edges onto
the distinct point pairs they join (:class:`SpatialEdges`), and every later
stage works on points and pairs. The fold holds one 8-byte sort key per row
edge plus its per-pair outputs; every other temporary is sized by one block
of patch pairs or one chunk of keys. Temporal weights stay per patch and
expand to rows.
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


# Row edges per chunk of the fold over the sorted key buffer; bounds its per-chunk temporaries.
FOLD_CHUNK = 1 << 14


def edge_key_bits(n: int, patch_pairs: int) -> int:
    """Width of the code field in the int64 row-edge keys ``(lo * n + hi) << bits | code``.

    ``code < 2 * patch_pairs``, so the largest key is ``n^2 * 2^bits - 1``.
    Raises ValueError when that does not fit in an int64.
    """
    bits = (2 * patch_pairs - 1).bit_length()
    if (n * n) << bits > 2**63:
        raise ValueError("frame too large for int64 edge keys")
    return bits


def _adjacent_patches(center_pts: np.ndarray, k_s: int) -> np.ndarray:
    """Sorted (pairs, 2) patch pairs l < m, either among the other's ``k_s`` nearest centers."""
    m = center_pts.shape[0]
    centers = NeighborIndex.from_points(center_pts)
    near = knn_rows(centers, centers.points, k_s, exclude=np.arange(m)).ravel()
    own = np.repeat(np.arange(m), k_s)
    adjacent = np.unique(np.minimum(own, near) * m + np.maximum(own, near))
    return np.column_stack([adjacent // m, adjacent % m])


def _nearest_slots(rel: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Per patch pair (l, m) and slot, the nearest slot of the other patch, and the one-way count.

    Returns ``nm`` (nearest m slot per l slot) and ``nl`` (nearest l slot per
    m slot), both (pairs, k+1) in the smallest integer dtype that holds k+1,
    and the number of m slots t with ``nm[nl[t]] != t``.
    """
    size = rel.shape[1]
    slots = np.arange(size)
    nm = np.empty((adj.shape[0], size), dtype=np.min_scalar_type(size))
    nl = np.empty_like(nm)
    one_way = 0
    for start in range(0, adj.shape[0], PATCH_BLOCK):
        part = slice(start, start + PATCH_BLOCK)
        cost = sq_dists(rel[adj[part, 0]], rel[adj[part, 1]])   # (b, size, size)
        nm[part] = np.argmin(cost, axis=2)
        nl[part] = np.argmin(cost, axis=1)
        one_way += np.count_nonzero(np.take_along_axis(nm[part], nl[part], axis=1) != slots)
    return nm, nl, one_way


def spatial_connectivity(patchset: PatchSet, positions: np.ndarray, k_s: int) -> SpatialEdges:
    """Row edges between adjacent patches, folded onto point pairs.

    Patches are adjacent when either has the other among its ``k_s``
    nearest patch centers; one batched k-NN query over the centers finds
    them all. Between adjacent patches, every row connects to the row of
    the other patch whose center-relative coordinates are nearest (ties
    by ascending index), computed for blocks of patch pairs on the
    (pairs, k+1, k+1) cost tensor. Each distinct row edge is counted once,
    and the edges are returned folded onto the point pairs they join, with
    the patch centers ``c_l`` taken from ``positions``.

    Memory: the only array with one entry per row edge is an exactly sized
    buffer of one 8-byte sort key per edge. Besides it the call holds the
    per-pair outputs, two nearest-slot maps of one byte per patch pair and
    slot (for k < 255), and the temporaries of one patch block or one fold
    chunk. Raises ValueError when the frame is too large for the int64 keys
    (see :func:`edge_key_bits`): n^2 times the smallest power of two not
    below twice the adjacent patch pairs must not exceed 2^63, which holds
    for any frame of at most 741,455 points at ``k_s = 10``.
    """
    m = len(patchset)
    if k_s >= m:
        raise ValueError("k_s must be < patch count")
    pts = np.asarray(positions, dtype=np.float64)
    center_pts = pts[patchset.center_indices]
    adj = _adjacent_patches(center_pts, k_s)
    members = patchset.members
    n = pts.shape[0]
    # Each row edge is one int64 sort key: its point-pair key lo * n + hi,
    # shifted left by ``bits``, then its code 2 * (patch pair) + 1 if its
    # lower point lies in patch m (center gap c_m - c_l), + 0 if in patch l
    # (gap c_l - c_m). Keys sort by (point pair, code), as the fold needs.
    bits = edge_key_bits(n, adj.shape[0])
    # Pair (l, m) has l < m. Its forward edge of slot s and its backward edge
    # of slot t join the same two rows only when nl[t] = s and nm[s] = t, so
    # mutual backward edges are dropped and every row edge is emitted once.
    nm, nl, one_way_edges = _nearest_slots(all_relative_coords(patchset, pts), adj)
    slots = np.arange(nm.shape[1])
    keys = np.empty(nm.size + one_way_edges, dtype=np.int64)
    filled = 0
    for start in range(0, adj.shape[0], PATCH_BLOCK):
        part = slice(start, start + PATCH_BLOCK)
        bm, bl = nm[part].astype(np.intp), nl[part].astype(np.intp)
        one_way = np.take_along_axis(bm, bl, axis=1) != slots
        in_l, in_m = members[adj[part, 0]], members[adj[part, 1]]
        pair = np.broadcast_to(2 * np.arange(start, start + bm.shape[0])[:, None], bm.shape)
        a = np.concatenate([in_l.ravel(), np.take_along_axis(in_l, bl, axis=1)[one_way]])
        b = np.concatenate([np.take_along_axis(in_m, bm, axis=1).ravel(), in_m[one_way]])
        block_keys = keys[filled : filled + a.size]
        np.minimum(a, b, out=block_keys)
        block_keys *= n
        block_keys += np.maximum(a, b)
        block_keys <<= bits
        block_keys |= np.concatenate([pair.ravel(), pair[one_way]]) + (a > b)
        filled += a.size
    del nm, nl
    keys.sort()
    # Pair boundaries, one chunk of keys at a time; each chunk also reads
    # the key before it, so that a boundary at its first key is seen.
    starts = [np.zeros(1, dtype=np.int64)]
    for start in range(1, keys.size, FOLD_CHUNK):
        pair_keys = keys[start - 1 : start + FOLD_CHUNK] >> bits
        starts.append(start + np.flatnonzero(pair_keys[1:] != pair_keys[:-1]))
    starts = np.concatenate(starts)
    bounds = np.append(starts, keys.size)
    counts = np.diff(bounds)
    points = np.column_stack(np.divmod(keys[starts] >> bits, n))
    # Oriented center gaps, per axis: entry 2p is c_l - c_m of patch pair p, 2p + 1 its negative.
    table = np.empty((3, 2 * adj.shape[0]))
    table[:, 0::2] = (center_pts[adj[:, 0]] - center_pts[adj[:, 1]]).T
    np.negative(table[:, 0::2], out=table[:, 1::2])
    offsets = np.empty((starts.size, 3))
    spread = np.zeros(starts.size)
    # Fold chunks of whole pairs, each starting at the pair that holds a
    # multiple of FOLD_CHUNK edges. Every pair is summed by the same
    # np.add.reduceat segment as over the whole buffer.
    cuts = np.unique(np.searchsorted(starts, np.arange(0, keys.size, FOLD_CHUNK), "right") - 1)
    for lo, hi in zip(cuts, np.append(cuts[1:], starts.size)):
        codes = keys[bounds[lo] : bounds[hi]] & ((1 << bits) - 1)
        local = starts[lo:hi] - bounds[lo]
        for axis in range(3):
            delta = table[axis][codes]
            offsets[lo:hi, axis] = np.add.reduceat(delta, local) / counts[lo:hi]
            delta -= np.repeat(offsets[lo:hi, axis], counts[lo:hi])
            delta *= delta
            spread[lo:hi] += np.add.reduceat(delta, local)
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
