"""Per-frame patch decomposition: one patch per point, its members by k-NN."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import Frame, knn_rows, without

# Patches per step of the batched matching passes; their (block, k+1, k+1)
# float64 temporaries stay near 0.5 MB at k = 30.
PATCH_BLOCK = 64


@dataclass(frozen=True)
class PatchSet:
    """All patches of one frame: row l of the (n, k+1) ``members`` is patch l, centered on point l.

    A row holds k+1 distinct points. ``rel`` holds the (n, k+1, 3) member
    positions of every patch relative to its center, read-only: ``rel[l, r]``
    is ``positions[members[l, r]] - positions[l]`` for the frame's positions.
    """

    members: np.ndarray
    k: int
    frame: Frame
    rel: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        members = np.asarray(self.members, dtype=np.int64)
        if members.ndim != 2 or members.shape[0] < 1:
            raise ValueError("members must be a non-empty (n, k+1) matrix")
        if members.shape[1] != self.k + 1:
            raise ValueError("members row length must be k+1")
        if members.min() < 0 or members.max() >= len(self.frame):
            raise ValueError("member index out of range")
        if not np.array_equal(members[:, 0], np.arange(len(self.frame))):
            raise ValueError("patch l must be centered on point l of the frame")
        ordered = np.sort(members, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise ValueError("a patch holds a member twice")
        members = np.ascontiguousarray(members)
        members.flags.writeable = False
        object.__setattr__(self, "members", members)
        pts = self.frame.positions
        rel = pts[members] - pts[members[:, :1]]
        rel.flags.writeable = False
        object.__setattr__(self, "rel", rel)

    def __len__(self) -> int:
        return self.members.shape[0]


def build_patches(frame: Frame, k: int, neighbors: Optional[np.ndarray] = None) -> PatchSet:
    """One patch per point: patch l is point l followed by its ``k`` nearest other points.

    ``neighbors``, if given, is a neighbor table over the frame's
    positions, ``knn_rows(positions, positions, w)`` with w > ``k``; each
    patch reads its row's first ``k + 1`` entries, and it saves a query.
    """
    n = len(frame)
    if k + 1 > n:
        raise ValueError("k+1 must be <= point count")
    if neighbors is None:
        neighbors = knn_rows(frame.positions, frame.positions, k + 1)
    elif neighbors.shape[0] != n or neighbors.shape[1] <= k:
        raise ValueError(f"neighbor table of shape {neighbors.shape} does not fit "
                         f"{n} points and k = {k}")
    centers = np.arange(n)
    members = np.empty((n, k + 1), dtype=np.int64)
    members[:, 0] = centers
    members[:, 1:] = without(neighbors[:, :k + 1], centers)
    return PatchSet(members=members, k=k, frame=frame)


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances from (..., s, 3) points to (..., t, 3) points, shape (..., s, t).

    Adds dx*dx, then dy*dy, then dz*dz in place: the order ``np.sum`` adds a
    length-3 axis in, so the result equals ``np.sum(diff * diff, axis=-1)``
    bit for bit without building the (..., s, t, 3) difference tensor.
    """
    out = a[..., :, None, 0] - b[..., None, :, 0]
    out *= out
    for axis in (1, 2):
        d = a[..., :, None, axis] - b[..., None, :, axis]
        d *= d
        out += d
    return out


def frame_spacing(patchset: PatchSet) -> float:
    """Mean distance from a point to its nearest other point, member 1 of its patch.

    A frame whose every point coincides with another has none: a ValueError.
    """
    spacing = float(np.mean(np.sqrt(np.sum(patchset.rel[:, 1] ** 2, axis=1))))
    if spacing == 0.0:
        raise ValueError("every point coincides with another point: no spacing")
    return spacing


def patch_epsilons(dist: np.ndarray, c: float, spacing: float = 0.0) -> np.ndarray:
    """Per-patch radius ``c`` times the mean nearest-member distance, from (b, s, s) distances,
    or times ``spacing`` where that mean is 0, as in a clump of coincident points.

    Each ``dist[i]`` must be symmetric bit for bit, as ``sqrt(sq_dists(p, p))``
    is since fl(a - b) = -fl(b - a): a member's nearest other member is then
    taken down axis 1, which numpy reduces without a strided inner loop.
    """
    size = dist.shape[1]
    mean = np.mean(np.min(np.where(np.eye(size, dtype=bool), np.inf, dist), axis=1), axis=1)
    return c * np.where(mean == 0.0, spacing, mean)
