"""Variation-based patch distance and temporal patch matching."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import NeighborIndex, knn_rows
from .patches import PATCH_BLOCK, Patch, PatchSet, member_distances, patch_epsilons, sq_dists


def _variation_rows(dist: np.ndarray, normals: np.ndarray, epsilon: np.ndarray) -> np.ndarray:
    """Random-walk Laplacian of each patch's epsilon graph applied to its normals.

    ``dist`` is (b, s, s), ``normals`` (b, s, 3) and ``epsilon`` (b,).
    Members closer than epsilon are joined by unit edges; row i of a
    patch is n_i minus the mean normal of i's neighbors, and zero when i
    has none. Terms are added in ascending member order, as a sparse
    row-times-vector product adds them, so results match it bit for bit.
    """
    if not np.all(np.isfinite(epsilon)):
        raise ValueError("epsilon must be finite")
    if np.any(epsilon <= 0):
        raise ValueError("epsilon must be > 0")
    size = dist.shape[1]
    eye = np.eye(size, dtype=bool)
    adjacent = (dist < epsilon[:, None, None]) & ~eye
    deg = np.count_nonzero(adjacent, axis=2)
    with np.errstate(divide="ignore"):
        coef = np.where(adjacent, -1.0 / deg[:, :, None], 0.0)
    coef[:, eye] = deg > 0
    # Without ``optimize`` einsum makes no BLAS call, so the sums do not
    # depend on the thread count.
    return np.einsum("bij,bjk->bik", coef, normals, optimize=False)


def patch_variations(
    patchset: PatchSet, c: float = 5.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epsilon, variation rows and variation vector of every patch.

    Returns, indexed like ``patchset.members``, the (m,) graph radii (see
    :func:`~dpcdenoise.patches.patch_epsilon`), the (m, k+1, 3) per-point
    variation rows of each patch's normals, and the (m, 3) per-axis mean
    absolute variation. The patch set's frame must carry normals.
    """
    frame, members = patchset.frame, patchset.members
    if frame.normals is None:
        raise ValueError("frame needs normals")
    if members.shape[1] < 2:
        raise ValueError("patch needs at least two members")
    eps = np.empty(members.shape[0])
    rows = np.empty(members.shape + (3,))
    for start in range(0, members.shape[0], PATCH_BLOCK):
        part = slice(start, start + PATCH_BLOCK)
        dist = member_distances(frame.positions[members[part]])
        eps[part] = patch_epsilons(dist, c)
        rows[part] = _variation_rows(dist, frame.normals[members[part]], eps[part])
    return eps, rows, np.mean(np.abs(rows), axis=1)


def variation_measure(
    patch: Patch, positions: np.ndarray, normals: np.ndarray, epsilon: float
) -> np.ndarray:
    """Per-axis total variation of a patch's normals, as a 3-vector."""
    idx = patch.member_indices
    pts = np.asarray(positions, dtype=np.float64)[idx][None]
    nrm = np.asarray(normals, dtype=np.float64)[idx][None]
    rows = _variation_rows(member_distances(pts), nrm, np.array([float(epsilon)]))
    return np.mean(np.abs(rows[0]), axis=0)


def patch_distance(va: np.ndarray, vb: np.ndarray) -> float:
    """Distance between two variation vectors: l2 norm of the per-axis gaps."""
    d = np.asarray(va, dtype=np.float64) - np.asarray(vb, dtype=np.float64)
    return float(np.sqrt(np.sum(d * d)))


def point_correspondence(
    rw_rows_target: np.ndarray,
    rw_rows_matched: np.ndarray,
    rel_target: np.ndarray,
    rel_matched: np.ndarray,
    alpha: float,
    epsilon_target: float | np.ndarray,
) -> np.ndarray:
    """Map each target point to its best counterpart in the matched patch.

    The per-pair cost blends squared variation difference (weight
    ``alpha``) and squared relative-coordinate difference over the squared
    target radius ``epsilon_target`` (weight ``1 - alpha``), and so has no
    units; a term of weight 0 is not computed. Ties go to the lowest index.
    The map may be many-to-one. Inputs are (s, 3) for one patch pair or
    (b, s, 3) with (b,) radii for b pairs at once.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    rt = np.asarray(rw_rows_target, dtype=np.float64)
    rm = np.asarray(rw_rows_matched, dtype=np.float64)
    vt = np.asarray(rel_target, dtype=np.float64)
    vm = np.asarray(rel_matched, dtype=np.float64)
    if rt.shape != rm.shape or vt.shape != vm.shape or rt.shape != vt.shape:
        raise ValueError("both patches must have the same size")
    # A term of weight 0 is left out: 0 * cost + other = other for finite
    # costs, and an overflowing term would make it 0 * inf = NaN.
    if alpha == 0.0:
        cost = sq_dists(vt, vm)
    elif alpha == 1.0:
        cost = sq_dists(rt, rm)
    else:
        eps_sq = np.square(epsilon_target, dtype=np.float64)[..., None, None]
        cost = alpha * sq_dists(rt, rm) + (1.0 - alpha) * (sq_dists(vt, vm) / eps_sq)
    return np.argmin(cost, axis=-1).astype(np.int64)


@dataclass(frozen=True)
class ReferencePatches:
    """Precomputed matching data for one (already denoised) reference frame."""

    patchset: PatchSet
    var_rows: np.ndarray = field(repr=False)     # (m, k+1, 3)
    variations: np.ndarray = field(repr=False)   # (m, 3)
    center_index: NeighborIndex = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.patchset)


def prepare_reference(patchset: PatchSet, c: float = 5.0) -> ReferencePatches:
    """Compute the matching data of every patch of a reference frame at once.

    Holds, indexed like ``patchset.members``, the (m, k+1, 3) variation
    rows and (m, 3) variation vectors, and a neighbor index over the patch
    centers. The center-relative coordinates are ``patchset.rel``.
    """
    if patchset.frame.normals is None:
        raise ValueError("reference frame needs normals")
    _, var_rows, variations = patch_variations(patchset, c)
    return ReferencePatches(
        patchset=patchset,
        var_rows=var_rows,
        variations=variations,
        center_index=NeighborIndex.from_points(patchset.frame.positions),
    )


def match_patches(
    patchset: PatchSet,
    reference: ReferencePatches,
    xi: int,
    alpha: float = 0.5,
    c: float = 5.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match every patch of ``patchset`` against the reference frame.

    Candidates for target patch l are the reference patches whose
    centers are the ``xi`` nearest to l's center; the one with the
    smallest variation distance wins, ties broken by ascending patch
    index. Returns arrays indexed by target patch: the (m,) matched
    reference patch, the (m,) variation distance to it, and the
    (m, k+1) point map from :func:`point_correspondence`.
    """
    if patchset.frame.normals is None:
        raise ValueError("target frame needs normals")
    if xi < 1:
        raise ValueError("xi must be >= 1")
    eps, rows, variations = patch_variations(patchset, c)
    cand = knn_rows(reference.center_index, patchset.frame.positions, min(xi, len(reference)))
    gaps = reference.variations[cand] - variations[:, None, :]
    dists = np.sqrt(np.sum(gaps * gaps, axis=2))
    distance = np.min(dists, axis=1)
    matched = np.min(np.where(dists == distance[:, None], cand, len(reference)), axis=1)
    point_map = np.empty(patchset.members.shape, dtype=np.int64)
    for start in range(0, len(patchset), PATCH_BLOCK):
        part = slice(start, start + PATCH_BLOCK)
        best = matched[part]
        point_map[part] = point_correspondence(
            rows[part], reference.var_rows[best], patchset.rel[part],
            reference.patchset.rel[best], alpha, eps[part]
        )
    return matched, distance, point_map
