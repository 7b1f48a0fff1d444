"""Point-cloud containers, k-NN queries, normals, and farthest-point sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

UNIT_NORMAL_TOL = 1e-9
# Largest |coordinate| a NeighborIndex accepts: two points within it are at a
# squared distance of at most 12 * MAX_COORDINATE**2, which stays finite.
MAX_COORDINATE = 1e153


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
    point index. Coordinates beyond ``MAX_COORDINATE`` in magnitude are
    rejected, since the kd-tree's squared distances would overflow.
    """

    points: np.ndarray
    tree: cKDTree = field(repr=False, compare=False, default=None)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "NeighborIndex":
        pts = _as_points(points)
        if pts.shape[0] < 1:
            raise ValueError("empty frame")
        largest = float(np.max(np.abs(pts)))
        if largest > MAX_COORDINATE:
            raise ValueError(f"max |coordinate| is {largest:.3g}; a neighbor index allows "
                             f"at most {MAX_COORDINATE:g}, so squared distances stay finite")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        return cls(points=pts, tree=cKDTree(pts))

    def __len__(self) -> int:
        return self.points.shape[0]


def index_over(frame: Frame, index: Optional[NeighborIndex]) -> NeighborIndex:
    """``index`` if it was built over the frame's positions, else a new index."""
    if index is None:
        return NeighborIndex.from_points(frame.positions)
    if not np.array_equal(index.points, frame.positions):
        raise ValueError("neighbor index was built over other points")
    return index


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


def mean_nn_distance(frame: Frame, index: Optional[NeighborIndex] = None) -> float:
    """Mean over all points of the distance to their nearest other point."""
    n = len(frame)
    if n < 2:
        raise ValueError("need two points")
    if index is None:
        index = NeighborIndex.from_points(frame.positions)
    d, _ = index.tree.query(frame.positions, k=2)
    return float(np.mean(d[:, 1]))


def _lex_canonical_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip rows so the first nonzero of (z, y, x) is positive; zero rows unchanged."""
    v = vectors.copy()
    z, y, x = v[:, 2], v[:, 1], v[:, 0]
    flip = (z < 0) | ((z == 0) & (y < 0)) | ((z == 0) & (y == 0) & (x < 0))
    v[flip] *= -1.0
    return v


def _orient(normals: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Normals flipped toward their (n, k+1) neighbor rows' consensus axis.

    The consensus axis is the principal eigenvector of the sum of the
    neighbor normals' outer products, which is insensitive to the input
    signs. The axis and any leftover zero-dot ambiguity are both resolved
    by forcing n_z >= 0, then n_y >= 0, then n_x >= 0.
    """
    hood = normals[nbr]                                   # (n, k+1, 3)
    outer = np.einsum("nki,nkj->nij", hood, hood)         # sign-invariant
    _, vecs = np.linalg.eigh(outer)
    consensus = _lex_canonical_sign(vecs[:, :, 2])
    dots = np.einsum("ni,ni->n", normals, consensus)
    oriented = np.where(dots[:, None] < 0, -normals, normals)
    ambiguous = dots == 0
    if np.any(ambiguous):
        oriented[ambiguous] = _lex_canonical_sign(oriented[ambiguous])
    return oriented


def estimate_normals(frame: Frame, k_plane: int,
                     index: Optional[NeighborIndex] = None) -> tuple[Frame, int]:
    """Per-point unit normals from local plane fits.

    Fits a plane to each point and its ``k_plane`` nearest neighbors;
    the normal is the eigenvector of the neighborhood covariance with
    the smallest eigenvalue. Each sign is then fixed toward the consensus
    axis of the normals over the same neighbor rows (see :func:`_orient`).
    ``index``, if given, must be built over the frame's positions; it
    saves building one.

    Returns the frame with normals and the count of degenerate
    neighborhoods (rank < 2) that fell back to the global up axis.
    """
    n = len(frame)
    if k_plane < 3:
        raise ValueError("k_plane must be >= 3")
    if n <= k_plane:
        raise ValueError("need more points than k_plane")
    _, nbr = index_over(frame, index).tree.query(frame.positions, k=k_plane + 1)
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
    oriented = frame.with_normals(_orient(normals, nbr))
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
    nxt = int(np.random.default_rng(seed).integers(n))
    chosen = np.empty(m, dtype=np.int64)
    pts = frame.positions
    cols = np.ascontiguousarray(pts.T)  # (3, n): each coordinate contiguous
    min_sq = np.full(n, np.inf)
    sq = np.empty(n)
    gap = np.empty(n)
    for t in range(m):
        chosen[t] = nxt
        # dx*dx + dy*dy, then + dz*dz: the order np.sum adds a length-3 row in.
        np.subtract(cols[0], pts[nxt, 0], out=sq)
        np.multiply(sq, sq, out=sq)
        for axis in (1, 2):
            np.subtract(cols[axis], pts[nxt, axis], out=gap)
            np.multiply(gap, gap, out=gap)
            sq += gap
        np.minimum(min_sq, sq, out=min_sq)
        nxt = int(np.argmax(min_sq))  # argmax returns the first (lowest) index on ties
    return chosen
