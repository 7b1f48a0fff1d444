"""Point-cloud containers, k-NN queries and normals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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

    Immutable after construction: positions and normals are copied into
    arrays the frame owns and marks read-only, so a Frame can be shared
    freely across threads and the caller's arrays stay writable.
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
        pts = np.array(pts, order="C")
        pts.flags.writeable = False
        object.__setattr__(self, "positions", pts)
        if self.normals is not None:
            nrm = _as_points(self.normals, "normals")
            if nrm.shape[0] != pts.shape[0]:
                raise ValueError("normals must match positions in length")
            lengths = np.linalg.norm(nrm, axis=1)
            if not np.all(np.abs(lengths - 1.0) <= UNIT_NORMAL_TOL):
                raise ValueError("normals must have unit length")
            nrm = np.array(nrm, order="C")
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
    """Fixed set of points for exact k-NN queries (see :func:`knn_rows`).

    Coordinates beyond ``MAX_COORDINATE`` in magnitude are rejected, since
    squared distances between them would overflow. The index keeps a
    read-only copy of the points.
    """

    points: np.ndarray

    @classmethod
    def from_points(cls, points: np.ndarray) -> "NeighborIndex":
        pts = _as_points(points)
        if pts.shape[0] < 1:
            raise ValueError("empty frame")
        largest = float(np.max(np.abs(pts)))
        if largest > MAX_COORDINATE:
            raise ValueError(f"max |coordinate| is {largest:.3g}; a neighbor index allows "
                             f"at most {MAX_COORDINATE:g}, so squared distances stay finite")
        pts = np.array(pts, order="C")
        pts.flags.writeable = False
        return cls(points=pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def knn_rows(index: NeighborIndex, queries, k: int, exclude=None) -> np.ndarray:
    """Indices of the k nearest stored points to each query row, shape (q, k).

    Each row agrees exactly with a brute-force scan: distances
    ``sqrt(dx*dx + dy*dy + dz*dz)`` are non-decreasing and exact ties are
    broken by ascending point index. ``exclude`` optionally names, per row,
    one stored point to leave out. The rows come from a cubic cell grid
    (see :func:`_grid_pass`).
    """
    q = _as_points(queries, "queries")
    want = k if exclude is None else k + 1
    if k < 1:
        raise ValueError("k must be >= 1")
    if want > len(index):
        raise ValueError("k too large")
    rows = _nearest(index.points, q, want)
    return rows if exclude is None else without(rows, exclude)


def without(rows: np.ndarray, exclude) -> np.ndarray:
    """Neighbor rows (q, w) less one column: each row's ``exclude`` entry, or else its last.

    A stable sort moves the excluded point, if present, behind the rest, so
    ``without(knn_rows(index, queries, k + 1), exclude)`` equals
    ``knn_rows(index, queries, k, exclude)``.
    """
    dropped = rows == np.asarray(exclude, dtype=np.int64).reshape(-1, 1)
    order = np.argsort(dropped, axis=1, kind="stable")[:, :-1]
    return np.ascontiguousarray(np.take_along_axis(rows, order, axis=1))


# Query rows times candidates per block of a grid pass: the block's few
# temporaries hold about 0.5 MB each however crowded a cell is, unless one
# row alone has more candidates.
QUERY_BUDGET = 1 << 16
# Cells along one axis at most, which keeps padded int64 cell ids small.
MAX_AXIS_CELLS = 1 << 20
# Cells on each side of a query's cell that its block of candidates spans.
BLOCK_RADIUS = 1
# Stored points whose k-th neighbor distance sets the first cell edge.
EDGE_SAMPLE = 16
# Smallest face distance a grid pass trusts: the square of any larger
# coordinate gap is a normal float64, so a point beyond the face cannot
# round to a shorter distance than the face's (a gap below 1.5e-162
# squares to zero).
MIN_REACH = 1e-150


def _nearest(points: np.ndarray, queries: np.ndarray, want: int) -> np.ndarray:
    """(q, want) nearest stored points in (distance, index) order.

    Each grid pass keeps the rows it proves complete; the rest go to the
    next pass with twice the cell edge. Once the rows left fit in one block
    with every point as a candidate, they are ranked against every point,
    which needs no proof. Coordinates are kept as three rows, (3, n) and
    (3, q).
    """
    n = points.shape[0]
    # One sentinel column past the last point, infinitely far away and ranked last.
    cols = np.full((3, n + 1), np.inf)
    cols[:, :n] = points.T
    qcols = np.ascontiguousarray(queries.T)
    out = np.empty((queries.shape[0], want), dtype=np.int64)
    todo = np.arange(queries.shape[0])
    edge = None
    while todo.size * (n + 1) > QUERY_BUDGET:
        if edge is None:
            edge = _first_edge(cols[:, :n], want)
        found, proven = _grid_pass(cols[:, :n], qcols[:, todo], want, edge)
        out[todo[proven]] = found[proven]
        todo = todo[~proven]
        edge *= 2.0
    if todo.size:
        ids = np.arange(n + 1)
        every = np.broadcast_to(ids, (todo.size, n + 1))
        out[todo] = _rank(_sq_to(cols, qcols[:, todo]), ids, every, want)[0]
    return out


def _first_edge(cols: np.ndarray, want: int) -> float:
    """Cell edge from the median want-th neighbor distance of a few of the (3, n) points.

    That distance varies between points by about 1/sqrt(want) of itself,
    so the block reaches 1 + 1/sqrt(want) times the median, and few rows
    need a second pass.
    """
    n = cols.shape[1]
    sample = cols[:, np.linspace(0, n - 1, min(EDGE_SAMPLE, n), dtype=np.int64)]
    kth = np.partition(_sq_to(cols, sample), min(want, n - 1), axis=1)[:, min(want, n - 1)]
    span = float(np.max(cols.max(axis=1) - cols.min(axis=1)))
    reach = (1.0 + 1.0 / np.sqrt(want)) * float(np.sqrt(np.median(kth)))
    edge = max(reach / BLOCK_RADIUS, span / MAX_AXIS_CELLS)
    return edge if edge > 0.0 else 1.0


def _sq_to(cols: np.ndarray, queries: np.ndarray, slots: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared distances from each of the (3, q) queries to the points of its row of ``slots``.

    ``cols`` holds the points' coordinates as three rows; without
    ``slots`` every query is measured to every point. The sum runs
    dx*dx + dy*dy, then + dz*dz, the order ``np.sum`` adds a length-3 row
    in, so every value equals the brute-force scan's.
    """
    sq = None
    for axis in range(3):
        if slots is None:
            gap = cols[axis] - queries[axis][:, None]
        else:
            gap = cols[axis].take(slots)
            gap -= queries[axis][:, None]
        gap *= gap
        if sq is None:
            sq = gap
        else:
            sq += gap
    return sq


def _grid_pass(cols: np.ndarray, queries: np.ndarray, want: int, edge: float):
    """Nearest rows of the (3, q) queries from one cubic grid over the (3, n) points.

    Cell (i, j, l) holds the points with ``floor((p - origin) / edge) ==
    (i, j, l)``. Cell ids carry ``BLOCK_RADIUS`` empty layers of padding on
    every side, so the block of cells within that radius of a query's cell
    is one run of consecutive ids in z per (i, j) column, and each run is
    one range of the points sorted by id. A query outside the occupied
    cells takes the nearest occupied cell. The block's points are ranked
    exactly; a row is proven when its want-th distance stays clear of
    every block face that has points beyond it, so no point outside the
    block can rank. Returns the (q, want) rows and which rows are proven.
    """
    n = cols.shape[1]
    r = BLOCK_RADIUS
    origin = cols.min(axis=1, keepdims=True)
    cells = np.floor((cols - origin) / edge).astype(np.int64)
    top = cells.max(axis=1, keepdims=True)
    dims = top[:, 0] + 1 + 2 * r
    stride = np.array([dims[1] * dims[2], dims[2], 1], dtype=np.int64)
    ids = stride @ (cells + r)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    # The sorted points, then one sentinel column infinitely far away and ranked last.
    sorted_cols = np.full((3, n + 1), np.inf)
    sorted_cols[:, :n] = cols[:, order]
    point_of = np.append(order, n)

    # Query rows sorted by cell; per occupied query cell, its block's runs.
    qcell = np.clip(np.floor((queries - origin) / edge), 0, top).astype(np.int64)
    qid = stride @ (qcell + r)
    rows = np.argsort(qid, kind="stable")
    qid = qid[rows]
    qcell = qcell[:, rows]
    queries = queries[:, rows]
    new_cell = np.concatenate(([True], qid[1:] != qid[:-1]))
    cell_of_row = np.cumsum(new_cell) - 1
    span = np.arange(-r, r + 1)
    runs = qid[new_cell][:, None] + (span[:, None] * stride[0] + span * stride[1]).ravel()
    run_start = np.searchsorted(ids, runs - r, side="left")
    run_len = np.searchsorted(ids, runs + r, side="right") - run_start
    need = np.maximum(run_len.sum(axis=1)[cell_of_row], want + 1)

    # Distance from each query to the nearest block face that has points
    # beyond it, less a margin for rounding in the cell assignment.
    low = queries - (origin + (qcell - r) * edge)
    high = (origin + (qcell + r + 1) * edge) - queries
    low[qcell <= r] = np.inf
    high[qcell >= top - r] = np.inf
    margin = 1e-12 * (float(np.max(np.abs(origin))) + float(np.max(top) + 1) * edge
                      + np.max(np.abs(queries), axis=0))
    reach = np.minimum(low.min(axis=0), high.min(axis=0)) - margin
    reach[reach < MIN_REACH] = -np.inf

    found = np.empty((rows.size, want), dtype=np.int64)
    proven = np.empty(rows.size, dtype=bool)
    start = 0
    while start < rows.size:
        stop = min(rows.size, start + max(1, QUERY_BUDGET // need[start]))
        stop = min(stop, start + max(1, QUERY_BUDGET // need[start:stop].max()))
        part = slice(start, stop)
        first, last = cell_of_row[start], cell_of_row[stop - 1] + 1
        cand = _block_slots(run_start[first:last], run_len[first:last],
                            need[part].max(), n)[cell_of_row[part] - first]
        sq = _sq_to(sorted_cols, queries[:, part], cand)
        found[rows[part]], kth = _rank(sq, point_of, cand, want)
        proven[rows[part]] = np.isposinf(reach[part]) | (kth * (1.0 + 1e-12) < reach[part])
        start = stop
    return found, proven


def _block_slots(run_start, run_len, width, sentinel):
    """(cells, width) sorted-point slots of each cell's runs in order, padded with ``sentinel``."""
    lens = run_len.ravel()
    total = run_len.sum(axis=1)
    flat = np.arange(int(total.sum()))
    slot = flat + np.repeat(run_start.ravel() - (np.cumsum(lens) - lens), lens)
    col = flat - np.repeat(np.cumsum(total) - total, total)
    per_cell = np.full((run_len.shape[0], width), sentinel, dtype=np.int64)
    per_cell[np.repeat(np.arange(run_len.shape[0]), total), col] = slot
    return per_cell


def _rank(sq: np.ndarray, point_of: np.ndarray, slots: np.ndarray, want: int):
    """Each row's first ``want`` points in (sqrt(sq), index) order, and the want-th distance.

    ``sq`` (rows, c > want) holds the squared distances to the points in
    ``slots``, and ``point_of`` maps a slot to its point. A row's want + 1
    smallest squares are sorted by root. A row with equal squares at that
    cut, or two equal roots within it, is sorted whole by (root, index):
    equal roots need the lower index first, and the want-th root may equal
    roots beyond the cut.
    """
    cut = np.partition(sq, want, axis=1)[:, want:want + 1]
    keep = sq <= cut
    plain = np.count_nonzero(keep, axis=1) == want + 1
    keep[~plain] = False
    rows = np.flatnonzero(plain)[:, None]
    col = np.flatnonzero(keep).reshape(-1, want + 1) % sq.shape[1]
    dist = np.sqrt(sq[rows, col])
    order = np.argsort(dist, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    near = np.empty((sq.shape[0], want), dtype=np.int64)
    kth = np.empty(sq.shape[0])
    near[rows[:, 0]] = point_of[slots[rows, np.take_along_axis(col, order[:, :want], axis=1)]]
    kth[rows[:, 0]] = dist[:, want - 1]
    tied = np.concatenate((np.flatnonzero(~plain),
                           rows[np.any(dist[:, 1:] == dist[:, :-1], axis=1), 0]))
    if tied.size:
        ids = point_of[slots[tied]]
        full = np.sqrt(sq[tied])
        order = np.lexsort((ids, full), axis=1)[:, :want]
        near[tied] = np.take_along_axis(ids, order, axis=1)
        kth[tied] = np.take_along_axis(full, order[:, -1:], axis=1)[:, 0]
    return near, kth


def mean_nn_distance(frame: Frame, index: Optional[NeighborIndex] = None) -> float:
    """Mean over all points of the distance to their nearest other point."""
    n = len(frame)
    if n < 2:
        raise ValueError("need two points")
    if index is None:
        index = NeighborIndex.from_points(frame.positions)
    pts = frame.positions
    nearest = knn_rows(index, pts, 1, exclude=np.arange(n))[:, 0]
    return float(np.mean(np.sqrt(np.sum((pts[nearest] - pts) ** 2, axis=1))))


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
                     neighbors: Optional[np.ndarray] = None) -> tuple[Frame, int]:
    """Per-point unit normals from local plane fits.

    Fits a plane to each point and its ``k_plane`` nearest neighbors;
    the normal is the eigenvector of the neighborhood covariance with
    the smallest eigenvalue. Each sign is then fixed toward the consensus
    axis of the normals over the same neighbor rows (see :func:`_orient`).
    ``neighbors``, if given, is a neighbor table over the frame's
    positions, ``knn_rows(index, positions, w)`` with w > ``k_plane``; its
    first ``k_plane + 1`` columns are the rows fitted, and it saves a query.

    Returns the frame with normals and the count of degenerate
    neighborhoods (rank < 2) that fell back to the global up axis.
    """
    n = len(frame)
    if k_plane < 3:
        raise ValueError("k_plane must be >= 3")
    if n <= k_plane:
        raise ValueError("need more points than k_plane")
    if neighbors is None:
        neighbors = knn_rows(NeighborIndex.from_points(frame.positions), frame.positions, k_plane + 1)
    elif neighbors.shape[0] != n or neighbors.shape[1] <= k_plane:
        raise ValueError(f"neighbor table of shape {neighbors.shape} does not fit "
                         f"{n} points and k_plane = {k_plane}")
    nbr = neighbors[:, :k_plane + 1]
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

