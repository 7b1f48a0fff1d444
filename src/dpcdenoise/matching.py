"""Variation-based patch distance and temporal patch matching."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DenoiseConfig, check_value
from .geometry import knn_rows
from .patches import PATCH_BLOCK, PatchSet, frame_spacing, patch_epsilons, sq_dists


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


def member_variations(
    points: np.ndarray, normals: np.ndarray, c: float = DenoiseConfig.c, spacing: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epsilon, variation rows and variation vector of b member sets at once.

    ``points`` and ``normals`` are the (b, s, 3) member coordinates and
    normals, s >= 2. Returns the (b,) graph radii of :func:`patch_epsilons`
    at ``c`` and ``spacing`` (a radius of 0 is a ValueError); the (b, s, 3)
    per-point variation rows of each set's normals; and the (b, 3) per-axis
    mean absolute variation.
    """
    if points.shape[1] < 2:
        raise ValueError("patch needs at least two members")
    dist = np.sqrt(sq_dists(points, points))
    eps = patch_epsilons(dist, c, spacing)
    rows = _variation_rows(dist, normals, eps)
    return eps, rows, np.mean(np.abs(rows), axis=1)


def patch_distance(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Distance between variation vectors: l2 norm of the per-axis gaps, over the last axis."""
    d = np.asarray(va, dtype=np.float64) - np.asarray(vb, dtype=np.float64)
    return np.sqrt(np.sum(d * d, axis=-1))


def point_correspondence(
    var_rows_target: np.ndarray,
    var_rows_matched: np.ndarray,
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
    alpha = check_value("alpha", alpha)
    rt = np.asarray(var_rows_target, dtype=np.float64)
    rm = np.asarray(var_rows_matched, dtype=np.float64)
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
    c: float                                     # radius multiplier; targets match at it too
    var_rows: np.ndarray = field(repr=False)     # (m, k+1, 3)
    variations: np.ndarray = field(repr=False)   # (m, 3)

    def __len__(self) -> int:
        return len(self.patchset)


def prepare_reference(patchset: PatchSet, c: float = DenoiseConfig.c) -> ReferencePatches:
    """Compute the matching data of every patch of a reference frame, ``PATCH_BLOCK`` at a time.

    Holds, indexed like ``patchset.members``, the (m, k+1, 3) variation
    rows and (m, 3) variation vectors; clumps take the :func:`frame_spacing`.
    The patch centers are the frame's positions and the center-relative
    coordinates are ``patchset.rel``.
    """
    frame, members = patchset.frame, patchset.members
    if frame.normals is None:
        raise ValueError("reference frame needs normals")
    spacing = frame_spacing(patchset)
    var_rows = np.empty(members.shape + (3,))
    variations = np.empty((len(patchset), 3))
    for start in range(0, len(patchset), PATCH_BLOCK):
        part = slice(start, start + PATCH_BLOCK)
        idx = members[part]
        _, var_rows[part], variations[part] = member_variations(
            frame.positions[idx], frame.normals[idx], c, spacing)
    return ReferencePatches(patchset=patchset, c=c, var_rows=var_rows, variations=variations)


def match_patches(
    patchset: PatchSet,
    reference: ReferencePatches,
    xi: int,
    alpha: float = DenoiseConfig.alpha,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match every patch of ``patchset`` against the reference frame.

    Candidates for target patch l are the reference patches whose
    centers are the ``xi`` nearest to l's center; the one with the
    smallest variation distance, taken at the reference's ``c``, wins,
    ties broken by ascending patch index. Returns arrays indexed by
    target patch: the (m,) matched reference patch, the (m,) variation
    distance to it, and the (m, k+1) point map from :func:`point_correspondence`.
    Each block of ``PATCH_BLOCK`` target patches is varied, matched and
    mapped in one step, so the target's variation rows are never held whole.
    """
    frame = patchset.frame
    if frame.normals is None:
        raise ValueError("target frame needs normals")
    xi = check_value("xi", xi)
    spacing = frame_spacing(patchset)
    cand = knn_rows(reference.patchset.frame.positions, frame.positions, min(xi, len(reference)))
    matched = np.empty(len(patchset), dtype=np.int64)
    distance = np.empty(len(patchset))
    point_map = np.empty(patchset.members.shape, dtype=np.int64)
    for start in range(0, len(patchset), PATCH_BLOCK):
        part = slice(start, start + PATCH_BLOCK)
        idx = patchset.members[part]
        eps, rows, variations = member_variations(
            frame.positions[idx], frame.normals[idx], reference.c, spacing)
        dists = patch_distance(reference.variations[cand[part]], variations[:, None, :])
        distance[part] = np.min(dists, axis=1)
        best = np.min(np.where(dists == distance[part, None], cand[part], len(reference)), axis=1)
        matched[part] = best
        point_map[part] = point_correspondence(
            rows, reference.var_rows[best], patchset.rel[part],
            reference.patchset.rel[best], alpha, eps
        )
    return matched, distance, point_map
