"""Per-frame patch decomposition: centers by farthest-point sampling, members by k-NN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Frame, build_neighbor_index, farthest_point_sampling, knn_rows

# Patches per step of the batched passes; bounds their (block, k+1, k+1, 3) temporaries.
PATCH_BLOCK = 256


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
    """All patches of one frame; ``members`` is the (m, k+1) index matrix."""

    members: np.ndarray
    k: int
    frame: Frame

    def __post_init__(self) -> None:
        members = np.asarray(self.members, dtype=np.int64)
        if members.ndim != 2 or members.shape[0] < 1:
            raise ValueError("members must be a non-empty (m, k+1) matrix")
        if members.shape[1] != self.k + 1:
            raise ValueError("members row length must be k+1")
        if members.min() < 0 or members.max() >= len(self.frame):
            raise ValueError("member index out of range")
        members = np.ascontiguousarray(members)
        members.flags.writeable = False
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return self.members.shape[0]

    @property
    def center_indices(self) -> np.ndarray:
        return self.members[:, 0]

    def patch(self, l: int) -> Patch:
        return Patch(int(self.members[l, 0]), self.members[l])


def build_patches(frame: Frame, m: int, k: int, seed: int) -> PatchSet:
    """Decompose a frame into ``m`` patches of ``k+1`` points each."""
    n = len(frame)
    if m > n:
        raise ValueError("m must be <= point count")
    if k + 1 > n:
        raise ValueError("k+1 must be <= point count")
    centers = farthest_point_sampling(frame, m, seed)
    index = build_neighbor_index(frame)
    members = np.empty((m, k + 1), dtype=np.int64)
    members[:, 0] = centers
    members[:, 1:] = knn_rows(index, frame.positions[centers], k, exclude=centers)
    return PatchSet(members=members, k=k, frame=frame)


def relative_coords(patch: Patch, positions: np.ndarray) -> np.ndarray:
    """Member coordinates relative to the patch center; row 0 is zero."""
    pts = np.asarray(positions, dtype=np.float64)
    return pts[patch.member_indices] - pts[patch.center_index]


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
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=3))


def patch_epsilons(dist: np.ndarray, c: float) -> np.ndarray:
    """Per-patch radius ``c`` times the mean nearest-member distance, from (b, s, s) distances."""
    size = dist.shape[1]
    nearest = np.min(np.where(np.eye(size, dtype=bool), np.inf, dist), axis=2)
    return c * np.mean(nearest, axis=1)
