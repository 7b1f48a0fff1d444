"""Per-frame patch decomposition: one patch per point, its members by k-NN."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Frame, NeighborIndex, knn_rows, without

# Patches (or patch pairs) per step of the batched passes. The (block, k+1, k+1)
# float64 temporaries of the matching passes stay near 0.5 MB at k = 30, and the
# spatial fold's key loop holds a few (block, k+1) arrays per step.
PATCH_BLOCK = 64


@dataclass(frozen=True)
class Patch:
    """A center point plus its k nearest neighbors.

    ``member_indices[0]`` is the center; the rest follow in ascending
    distance order (ties by ascending point index).
    """

    center_index: int
    member_indices: np.ndarray

    def __post_init__(self) -> None:
        members = np.asarray(self.member_indices, dtype=np.int64)
        if members.ndim != 1 or members.size < 1:
            raise ValueError("member_indices must be a non-empty 1-D array")
        if members[0] != self.center_index:
            raise ValueError("member_indices[0] must be the center")
        if np.unique(members).size != members.size:
            raise ValueError("duplicate member indices")
        members = np.ascontiguousarray(members)
        members.flags.writeable = False
        object.__setattr__(self, "member_indices", members)

    def __len__(self) -> int:
        return self.member_indices.size


@dataclass(frozen=True)
class PatchSet:
    """All patches of one frame: row l of the (n, k+1) ``members`` is patch l, centered on point l."""

    members: np.ndarray
    k: int
    frame: Frame

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
        members = np.ascontiguousarray(members)
        members.flags.writeable = False
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return self.members.shape[0]

    def patch(self, l: int) -> Patch:
        return Patch(l, self.members[l])


def build_patches(frame: Frame, k: int, neighbors: Optional[np.ndarray] = None) -> PatchSet:
    """One patch per point: patch l is point l followed by its ``k`` nearest other points.

    ``neighbors``, if given, is a neighbor table over the frame's
    positions, ``knn_rows(index, positions, w)`` with w > ``k``; each
    patch reads its row's first ``k + 1`` entries, and it saves a query.
    """
    n = len(frame)
    if k + 1 > n:
        raise ValueError("k+1 must be <= point count")
    if neighbors is None:
        neighbors = knn_rows(NeighborIndex.from_points(frame.positions), frame.positions, k + 1)
    elif neighbors.shape[0] != n or neighbors.shape[1] <= k:
        raise ValueError(f"neighbor table of shape {neighbors.shape} does not fit "
                         f"{n} points and k = {k}")
    centers = np.arange(n)
    members = np.empty((n, k + 1), dtype=np.int64)
    members[:, 0] = centers
    members[:, 1:] = without(neighbors[:, :k + 1], centers)
    return PatchSet(members=members, k=k, frame=frame)


def all_relative_coords(patchset: PatchSet, positions: np.ndarray) -> np.ndarray:
    """Relative coordinates for every patch, shape (m, k+1, 3)."""
    pts = np.asarray(positions, dtype=np.float64)
    gathered = pts[patchset.members]
    return gathered - gathered[:, :1, :]


def patch_epsilon(patch: Patch, positions: np.ndarray, c: float = 5.0) -> float:
    """Neighborhood-graph radius for a patch.

    Mean over the patch's points of the distance to the nearest other
    patch point, scaled by ``c``.
    """
    if len(patch) < 2:
        raise ValueError("patch needs at least two members")
    pts = np.asarray(positions, dtype=np.float64)[patch.member_indices]
    return float(patch_epsilons(member_distances(pts[None]), c)[0])


def member_distances(pts: np.ndarray) -> np.ndarray:
    """Pairwise distances within each patch: (b, s, 3) points to (b, s, s)."""
    return np.sqrt(sq_dists(pts, pts))


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


def patch_epsilons(dist: np.ndarray, c: float) -> np.ndarray:
    """Per-patch radius ``c`` times the mean nearest-member distance, from (b, s, s) distances."""
    size = dist.shape[1]
    nearest = np.min(np.where(np.eye(size, dtype=bool), np.inf, dist), axis=2)
    return c * np.mean(nearest, axis=1)
