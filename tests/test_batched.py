"""The batched patch passes against their per-patch oracles, bit for bit.

Inputs are drawn to hit the edge cases of the batched code: coordinates
on a coarse grid (ties at the k-NN boundary and at exactly d == epsilon),
duplicate points, members without a neighbor inside epsilon, k = 1
patches and fully clumped patches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_knn, variation_rows

from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame, build_neighbor_index, knn_rows
from dpcdenoise.matching import match_patches, patch_variations, prepare_reference
from dpcdenoise.optimize import SolverError, denoise_frame
from dpcdenoise.patches import build_patches

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def clouds(draw, min_points=3, max_points=40):
    """(n, 3) points, optionally on a coarse grid and with duplicated points."""
    n = draw(st.integers(min_points, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(0.0, 1.0, (n, 3))
    grid = draw(st.sampled_from([0, 2, 3, 4]))
    if grid:
        pts = np.round(pts * grid) / grid
    dups = draw(st.integers(0, n // 3))
    if dups:
        pts[rng.choice(n, dups, replace=False)] = pts[rng.choice(n, dups)]
    return pts, rng


def unit_normals(rng, n):
    nrm = rng.normal(size=(n, 3))
    return nrm / np.linalg.norm(nrm, axis=1, keepdims=True)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def oracle_epsilon(pts, c):
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, np.inf)
    return c * float(np.mean(np.min(dist, axis=1)))


def oracle_patches(positions, normals, members, c):
    """Per-patch epsilon, variation rows and variation vector, one graph each."""
    eps, rows, variations = [], [], []
    for idx in members:
        e = oracle_epsilon(positions[idx], c)
        r = variation_rows(positions[idx], normals[idx], e)
        eps.append(e)
        rows.append(r)
        variations.append(np.mean(np.abs(r), axis=0))
    return np.array(eps), np.array(rows), np.array(variations)


class TestKnnRows:
    @PROPERTY
    @given(clouds(min_points=2), st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, cloud, k, stored, seed):
        pts, _ = cloud
        n = len(pts)
        index = build_neighbor_index(Frame(pts))
        rng = np.random.default_rng(seed)
        if stored:
            exclude = rng.choice(n, size=min(n, 8), replace=False)
            queries, k = pts[exclude], min(k, n - 1)
        else:
            exclude = None
            queries, k = np.round(rng.uniform(0, 1, (8, 3)) * 3) / 3, min(k, n)
        got = knn_rows(index, queries, k, exclude)
        for r, q in enumerate(queries):
            want = brute_knn(pts, q, k, None if exclude is None else exclude[r])
            assert got[r].tolist() == want.tolist()

    def test_rejects_bad_k(self):
        index = build_neighbor_index(Frame(np.eye(3)))
        with pytest.raises(ValueError, match="k must be"):
            knn_rows(index, np.zeros((1, 3)), 0)
        with pytest.raises(ValueError, match="k too large"):
            knn_rows(index, index.points, 3, exclude=np.arange(3))


class TestPatchVariations:
    @PROPERTY
    @given(clouds(), st.integers(1, 10), st.sampled_from([0.3, 1.0, 5.0]))
    def test_matches_per_patch_oracle(self, cloud, k, c):
        pts, rng = cloud
        n = len(pts)
        k = min(k, n - 1)
        members = np.array([rng.permutation(n)[: k + 1] for _ in range(int(rng.integers(1, 9)))])
        normals = unit_normals(rng, n)
        want_eps = [oracle_epsilon(pts[idx], c) for idx in members]
        if min(want_eps) <= 0:
            with pytest.raises(ValueError, match="epsilon must be > 0"):
                patch_variations(pts, normals, members, c)
            return
        eps, rows, variations = patch_variations(pts, normals, members, c)
        want = oracle_patches(pts, normals, members, c)
        assert bits(eps) == bits(want[0])
        assert bits(rows) == bits(want[1])
        assert bits(variations) == bits(want[2])

    def test_member_without_neighbor_gives_zero_row(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.0, 0.1, 0], [5.0, 0, 0]])
        normals = unit_normals(np.random.default_rng(0), 4)
        members = np.array([[0, 1, 2, 3]])
        eps, rows, _ = patch_variations(pts, normals, members, 1.0)
        assert eps[0] < 5.0
        assert bits(rows[0, 3]) == bits(np.zeros(3))
        assert bits(rows) == bits(variation_rows(pts, normals, eps[0])[None])

    def test_boundary_distance_is_not_an_edge(self):
        # Grid spacing 1: epsilon = c * 1 = 1 exactly, so no pair is closer.
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        normals = unit_normals(np.random.default_rng(1), 3)
        eps, rows, _ = patch_variations(pts, normals, np.array([[0, 1, 2]]), 1.0)
        assert eps[0] == 1.0
        assert not np.any(rows)

    def test_k1_patches(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (10, 3))
        normals = unit_normals(rng, 10)
        members = np.array([[i, (i + 3) % 10] for i in range(10)])
        eps, rows, variations = patch_variations(pts, normals, members, 5.0)
        want = oracle_patches(pts, normals, members, 5.0)
        assert bits(rows) == bits(want[1]) and bits(variations) == bits(want[2])

    def test_clumped_patch_raises(self):
        pts = np.vstack([np.zeros((4, 3)), np.eye(3)])
        normals = unit_normals(np.random.default_rng(3), 7)
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            patch_variations(pts, normals, np.array([[4, 5, 6], [0, 1, 2]]), 5.0)

    def test_clumped_target_patch_is_a_solver_error(self):
        rng = np.random.default_rng(4)
        previous = Frame(rng.uniform(0, 1, (40, 3)), unit_normals(rng, 40), frame_index=0)
        noisy = rng.uniform(0, 1, (40, 3))
        noisy[:8] = noisy[0]
        config = DenoiseConfig(k=5, patch_fraction=1.0, k_s=3, xi=3, k_plane=6,
                               outer_max_iters=1)
        with pytest.raises(SolverError, match="temporal matching failed"):
            denoise_frame(Frame(noisy, frame_index=1), previous, config)


class TestMatchPatchesOracle:
    @PROPERTY
    @given(clouds(min_points=12), clouds(min_points=12), st.integers(1, 6),
           st.integers(1, 8), st.sampled_from([0.0, 0.5, 1.0]))
    def test_matches_per_patch_loop(self, prev_cloud, curr_cloud, k, xi, alpha):
        (prev_pts, rng), (curr_pts, _) = prev_cloud, curr_cloud
        prev = Frame(prev_pts, unit_normals(rng, len(prev_pts)))
        curr = Frame(curr_pts, unit_normals(rng, len(curr_pts)))
        prev_ps = build_patches(prev, len(prev_pts) // 2, k, seed=1)
        curr_ps = build_patches(curr, len(curr_pts) // 2, k, seed=2)
        for frame, ps in ((prev, prev_ps), (curr, curr_ps)):
            eps = [oracle_epsilon(frame.positions[idx], 5.0) for idx in ps.members]
            if min(eps) <= 0:
                with pytest.raises(ValueError, match="epsilon must be > 0"):
                    patch_variations(frame.positions, frame.normals, ps.members)
                return
        reference = prepare_reference(prev, prev_ps)
        _, ref_rows, ref_var = oracle_patches(prev.positions, prev.normals, prev_ps.members, 5.0)
        assert bits(reference.var_rows) == bits(ref_rows)
        assert bits(reference.variations) == bits(ref_var)

        matched, distance, point_map = match_patches(curr, curr_ps, reference, xi, alpha)
        _, rows, variations = oracle_patches(curr.positions, curr.normals, curr_ps.members, 5.0)
        centers = prev.positions[prev_ps.center_indices]
        for l, idx in enumerate(curr_ps.members):
            cand = brute_knn(centers, curr.positions[idx[0]], min(xi, len(prev_ps)))
            gaps = ref_var[cand] - variations[l]
            dists = np.sqrt(np.sum(gaps * gaps, axis=1))
            best = int(cand[np.lexsort((cand, dists))[0]])
            rel_t = curr.positions[idx] - curr.positions[idx[0]]
            rel_m = reference.rel[best]
            cost = (alpha * np.sum((rows[l][:, None] - ref_rows[best][None]) ** 2, axis=2)
                    + (1 - alpha) * np.sum((rel_t[:, None] - rel_m[None]) ** 2, axis=2))
            assert matched[l] == best
            assert bits(distance[l]) == bits(np.min(dists))
            assert point_map[l].tolist() == np.argmin(cost, axis=1).tolist()
