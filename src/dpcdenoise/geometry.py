"""Point-cloud containers, neighbor queries, normals, and sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

UNIT_NORMAL_TOL = 1e-9


def _as_points(values, name: str = "positions") -> np.ndarray:
    pts = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {pts.shape}")
    return pts


@dataclass(frozen=True)
class Frame:
    """One point cloud: positions and (optionally) unit normals.

    Immutable after construction; the backing arrays are marked
    read-only so a Frame can be shared freely across threads.
    """

    positions: np.ndarray
    normals: Optional[np.ndarray] = None
    frame_index: int = 0

    def __post_init__(self) -> None:
        pts = _as_points(self.positions)
        if pts.shape[0] < 1:
            raise ValueError("empty frame")
        if not np.all(np.isfinite(pts)):
            raise ValueError("positions must be finite")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "positions", pts)
        if self.normals is not None:
            nrm = _as_points(self.normals, "normals")
            if nrm.shape[0] != pts.shape[0]:
                raise ValueError("normals must match positions in length")
            lengths = np.linalg.norm(nrm, axis=1)
            if not np.all(np.abs(lengths - 1.0) <= UNIT_NORMAL_TOL):
                raise ValueError("normals must have unit length")
            nrm = np.ascontiguousarray(nrm)
            nrm.flags.writeable = False
            object.__setattr__(self, "normals", nrm)
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")

    def __len__(self) -> int:
        return self.positions.shape[0]

    def with_normals(self, normals: np.ndarray) -> "Frame":
        return Frame(self.positions, normals, self.frame_index)


@dataclass(frozen=True)
class Sequence:
    """Ordered frames of one dynamic point cloud."""

    frames: tuple
    name: str = ""
    units: str = ""

    def __post_init__(self) -> None:
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("sequence needs at least one frame")
        idx = [f.frame_index for f in frames]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("frame_index values must be strictly increasing")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)


@dataclass(frozen=True)
class NeighborIndex:
    """Spatial index over a fixed set of points.

    Results are defined to agree exactly with a brute-force scan,
    including the tie rule: equal distances are ordered by ascending
    point index.
    """

    points: np.ndarray
    tree: cKDTree = field(repr=False, compare=False, default=None)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "NeighborIndex":
        pts = _as_points(points)
        if pts.shape[0] < 1:
            raise ValueError("empty frame")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        return cls(points=pts, tree=cKDTree(pts))

    def __len__(self) -> int:
        return self.points.shape[0]


def build_neighbor_index(frame: Frame) -> NeighborIndex:
    """Build a k-NN / radius index over the frame's positions."""
    return NeighborIndex.from_points(frame.positions)


def _sorted_candidates(index: NeighborIndex, query: np.ndarray, k_hint: int):
    """All points within the k_hint-th neighbor distance, sorted by (distance, index)."""
    n = len(index)
    k_hint = min(k_hint, n)
    dist_hint = index.tree.query(query, k=k_hint)[0]
    radius = float(np.max(np.atleast_1d(dist_hint)))
    # Inflate slightly so boundary ties survive any kd-tree rounding, then
    # resolve order with exactly recomputed distances.
    cand = np.asarray(index.tree.query_ball_point(query, r=radius * (1.0 + 1e-12) + 1e-300), dtype=np.int64)
    d = np.sqrt(np.sum((index.points[cand] - query) ** 2, axis=1))
    return cand[np.lexsort((cand, d))]


def knn_rows(index: NeighborIndex, queries, k: int, exclude=None) -> np.ndarray:
    """Indices of the k nearest stored points to each query row, shape (q, k).

    Each row agrees exactly with a brute-force scan: distances are
    non-decreasing and exact ties are broken by ascending point index.
    ``exclude`` optionally names, per row, one stored point to leave out.
    One kd-tree query serves all rows; a row whose last kept and first
    dropped exact distances tie within rounding is redone by an exact
    radius search.
    """
    q = _as_points(queries, "queries")
    n = len(index)
    want = k if exclude is None else k + 1
    if k < 1:
        raise ValueError("k must be >= 1")
    if want > n:
        raise ValueError("k too large")
    fetch = min(want + 1, n)
    idx = index.tree.query(q, k=fetch)[1].reshape(q.shape[0], fetch)
    d = np.sqrt(np.sum((index.points[idx] - q[:, None, :]) ** 2, axis=2))
    order = np.lexsort((idx, d))
    idx = np.take_along_axis(idx, order, axis=1)[:, :want]
    if fetch > want:
        d = np.take_along_axis(d, order, axis=1)
        for r in np.flatnonzero(d[:, want] <= d[:, want - 1] * (1.0 + 1e-12)):
            idx[r] = _sorted_candidates(index, q[r], want)[:want]
    if exclude is not None:
        # A stable sort moves the excluded point, if present, behind the rest.
        dropped = idx == np.asarray(exclude, dtype=np.int64).reshape(-1, 1)
        idx = np.take_along_axis(idx, np.argsort(dropped, axis=1, kind="stable"), axis=1)
    return np.ascontiguousarray(idx[:, :k])


def knn(index: NeighborIndex, query, k: int, exclude_self: bool = False) -> np.ndarray:
    """Indices of the k nearest stored points to ``query``.

    Distances are non-decreasing; exact ties are broken by ascending
    point index. With ``exclude_self`` the lowest-index stored point
    whose position equals ``query`` is omitted (the query must then be
    a stored point).
    """
    q = np.asarray(query, dtype=np.float64).reshape(1, 3)
    exclude = None
    if exclude_self:
        hits = np.flatnonzero(np.all(index.points == q, axis=1))
        if hits.size == 0:
            raise ValueError("exclude_self requires the query to be a stored point")
        exclude = hits[:1]
    return knn_rows(index, q, k, exclude)[0]


def knn_point(index: NeighborIndex, i: int, k: int) -> np.ndarray:
    """k nearest neighbors of stored point ``i``, excluding ``i`` itself."""
    if not 0 <= i < len(index):
        raise ValueError("point index out of range")
    return knn_rows(index, index.points[i : i + 1], k, np.array([i]))[0]


def radius_neighbors(index: NeighborIndex, query, radius: float) -> np.ndarray:
    """Indices of stored points with distance to ``query`` strictly below ``radius``."""
    if not np.isfinite(radius) or radius <= 0:
        raise ValueError("radius must be finite and > 0")
    q = np.asarray(query, dtype=np.float64).reshape(3)
    cand = np.asarray(index.tree.query_ball_point(q, r=radius), dtype=np.int64)
    if cand.size == 0:
        return cand
    d = np.sqrt(np.sum((index.points[cand] - q) ** 2, axis=1))
    keep = d < radius
    cand, d = cand[keep], d[keep]
    order = np.lexsort((cand, d))
    return cand[order]


def mean_nn_distance(frame: Frame, index: Optional[NeighborIndex] = None) -> float:
    """Mean over all points of the distance to their nearest other point."""
    n = len(frame)
    if n < 2:
        raise ValueError("need two points")
    if index is None:
        index = build_neighbor_index(frame)
    d, _ = index.tree.query(frame.positions, k=2)
    return float(np.mean(d[:, 1]))


def _lex_canonical_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip rows so the first nonzero of (z, y, x) is positive; zero rows unchanged."""
    v = vectors.copy()
    z, y, x = v[:, 2], v[:, 1], v[:, 0]
    flip = (z < 0) | ((z == 0) & (y < 0)) | ((z == 0) & (y == 0) & (x < 0))
    v[flip] *= -1.0
    return v


def orient_normals(frame: Frame, k_plane: int = 12) -> Frame:
    """Fix normal signs deterministically.

    Each normal is aligned with the dominant axis of its neighborhood's
    normals (the principal eigenvector of the sum of normal outer
    products, which is insensitive to the input signs). The consensus
    axis and any leftover zero-dot ambiguity are both resolved by
    forcing n_z >= 0, then n_y >= 0, then n_x >= 0.
    """
    if frame.normals is None:
        raise ValueError("frame has no normals")
    n = len(frame)
    normals = np.asarray(frame.normals, dtype=np.float64)
    if n == 1:
        return frame.with_normals(_lex_canonical_sign(normals))
    k_eff = min(k_plane, n - 1)
    index = build_neighbor_index(frame)
    _, nbr = index.tree.query(frame.positions, k=k_eff + 1)
    nbr = np.atleast_2d(nbr)
    hood = normals[nbr]                                   # (n, k+1, 3)
    outer = np.einsum("nki,nkj->nij", hood, hood)         # sign-invariant
    _, vecs = np.linalg.eigh(outer)
    consensus = _lex_canonical_sign(vecs[:, :, 2])
    dots = np.einsum("ni,ni->n", normals, consensus)
    oriented = np.where(dots[:, None] < 0, -normals, normals)
    ambiguous = dots == 0
    if np.any(ambiguous):
        oriented[ambiguous] = _lex_canonical_sign(oriented[ambiguous])
    return frame.with_normals(oriented)


def estimate_normals(frame: Frame, k_plane: int) -> tuple[Frame, int]:
    """Per-point unit normals from local plane fits.

    Fits a plane to each point and its ``k_plane`` nearest neighbors;
    the normal is the eigenvector of the neighborhood covariance with
    the smallest eigenvalue, then oriented by :func:`orient_normals`.

    Returns the frame with normals and the count of degenerate
    neighborhoods (rank < 2) that fell back to the global up axis.
    """
    n = len(frame)
    if k_plane < 3:
        raise ValueError("k_plane must be >= 3")
    if n <= k_plane:
        raise ValueError("need more points than k_plane")
    index = build_neighbor_index(frame)
    _, nbr = index.tree.query(frame.positions, k=k_plane + 1)
    hood = frame.positions[nbr]                            # (n, k+1, 3)
    centered = hood - hood.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k_plane + 1)
    vals, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]
    # Rank < 2: the plane is not determined; fall back to the up axis.
    scale = np.maximum(vals[:, 2], 1e-300)
    degenerate = vals[:, 1] <= 1e-12 * scale
    if np.any(degenerate):
        normals = normals.copy()
        normals[degenerate] = (0.0, 0.0, 1.0)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    oriented = orient_normals(frame.with_normals(normals), k_plane)
    return oriented, int(np.count_nonzero(degenerate))


def farthest_point_sampling(frame: Frame, m: int, seed: int) -> np.ndarray:
    """Greedy max-min selection of ``m`` point indices.

    The first index is drawn uniformly from the seeded generator; each
    later pick maximizes the minimum distance to all chosen points,
    ties broken by ascending point index. Output is in selection order.
    """
    n = len(frame)
    if not 1 <= m <= n:
        raise ValueError("m must be in [1, n]")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = first
    pts = frame.positions
    min_sq = np.sum((pts - pts[first]) ** 2, axis=1)
    for t in range(1, m):
        nxt = int(np.argmax(min_sq))  # argmax returns the first (lowest) index on ties
        chosen[t] = nxt
        np.minimum(min_sq, np.sum((pts - pts[nxt]) ** 2, axis=1), out=min_sq)
    return chosen


def downsample_random(frame: Frame, rate: float, seed: int) -> Frame:
    """Keep ``ceil(rate * n)`` points chosen without replacement."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    n = len(frame)
    count = int(np.ceil(rate * n))
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=count, replace=False))
    normals = frame.normals[keep] if frame.normals is not None else None
    return Frame(frame.positions[keep], normals, frame.frame_index)
