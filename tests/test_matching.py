import numpy as np
import pytest
from oracles import variation_rows

from dpcdenoise.geometry import Frame, NeighborIndex, estimate_normals, knn_rows
from dpcdenoise.matching import (
    match_patches,
    patch_distance,
    point_correspondence,
    prepare_reference,
    variation_measure,
)
from dpcdenoise.patches import Patch, build_patches, patch_epsilon
from dpcdenoise.synthetic import SyntheticSpec, generate_sequence, sample_gaussian_bump


def whole_cloud_patch(n):
    return Patch(0, np.arange(n))


def dense_variation(points, normals, epsilon):
    """Dense-matrix reference for the per-axis variation vector."""
    n = len(points)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if 0 < np.linalg.norm(points[i] - points[j]) < epsilon:
                a[i, j] = a[j, i] = 1.0
    deg = a.sum(axis=1)
    rows = np.zeros((n, 3))
    for i in range(n):
        if deg[i] > 0:
            rows[i] = normals[i] - a[i] @ normals / deg[i]
    return np.mean(np.abs(rows), axis=0)


class TestVariationMeasure:
    def test_planar_patch_is_zero(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 1, (20, 2)), np.zeros(20)])
        normals = np.tile((0.0, 0.0, 1.0), (20, 1))
        patch = whole_cloud_patch(20)
        v = variation_measure(patch, pts, normals, 0.5)
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_two_node_example(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        v = variation_measure(whole_cloud_patch(2), pts, normals, 2.0)
        assert np.allclose(v, [1.0, 0.0, 1.0])

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (15, 3))
        normals = rng.normal(size=(15, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        eps = 0.6
        v = variation_measure(whole_cloud_patch(15), pts, normals, eps)
        assert np.allclose(v, dense_variation(pts, normals, eps), atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (12, 3))
        normals = rng.normal(size=(12, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        v1 = variation_measure(whole_cloud_patch(12), pts, normals, 0.7)
        perm = rng.permutation(12)
        v2 = variation_measure(whole_cloud_patch(12), pts[perm], normals[perm], 0.7)
        assert np.allclose(v1, v2, atol=1e-12)


class TestPatchDistance:
    def test_identical_is_zero(self):
        v = np.array([0.3, 0.1, 0.2])
        assert patch_distance(v, v) == 0.0

    def test_example_sqrt_two(self):
        assert patch_distance([1.0, 0.0, 1.0], [0.0, 0.0, 0.0]) == pytest.approx(np.sqrt(2))

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.uniform(0, 2, 3), rng.uniform(0, 2, 3)
            assert patch_distance(a, b) == patch_distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = rng.uniform(0, 3, (3, 3))
            assert patch_distance(a, c) <= patch_distance(a, b) + patch_distance(b, c) + 1e-12


class TestPointCorrespondence:
    def _random_patch_data(self, rng, n):
        rows = rng.normal(size=(n, 3))
        rel = rng.normal(size=(n, 3))
        return rows, rel

    def test_alpha_zero_uses_positions_only(self):
        rng = np.random.default_rng(5)
        rows_t, rel_t = self._random_patch_data(rng, 8)
        rows_m, rel_m = self._random_patch_data(rng, 8)
        pm = point_correspondence(rows_t, rows_m, rel_t, rel_m, 0.0, np.nan)
        d = np.sum((rel_t[:, None] - rel_m[None]) ** 2, axis=2)
        assert pm.tolist() == np.argmin(d, axis=1).tolist()

    def test_alpha_one_uses_variation_only(self):
        rng = np.random.default_rng(6)
        rows_t, rel_t = self._random_patch_data(rng, 8)
        rows_m, rel_m = self._random_patch_data(rng, 8)
        pm = point_correspondence(rows_t, rows_m, rel_t, rel_m, 1.0, np.nan)
        d = np.sum((rows_t[:, None] - rows_m[None]) ** 2, axis=2)
        assert pm.tolist() == np.argmin(d, axis=1).tolist()

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_zero_weight_term_is_not_computed(self, alpha):
        # Near 1e200 the unused term's squares overflow to inf, and 0 * inf
        # would be NaN, which np.argmin picks.
        rng = np.random.default_rng(8)
        rows_t, rel_t = self._random_patch_data(rng, 8)
        rows_m, rel_m = self._random_patch_data(rng, 8)
        if alpha:
            rel_t, rel_m, used = 1e200 * rel_t, 1e200 * rel_m, (rows_t, rows_m)
        else:
            rows_t, rows_m, used = 1e200 * rows_t, 1e200 * rows_m, (rel_t, rel_m)
        with np.errstate(all="raise"):
            pm = point_correspondence(rows_t, rows_m, rel_t, rel_m, alpha, 0.0)
        d = np.sum((used[0][:, None] - used[1][None]) ** 2, axis=2)
        assert pm.tolist() == np.argmin(d, axis=1).tolist()

    def test_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(7)
        rows_t, rel_t = self._random_patch_data(rng, 10)
        rows_m, rel_m = self._random_patch_data(rng, 10)
        alpha, eps = 0.5, 0.7
        pm = point_correspondence(rows_t, rows_m, rel_t, rel_m, alpha, eps)
        for i in range(10):
            costs = [
                alpha * np.sum((rows_t[i] - rows_m[j]) ** 2)
                + (1 - alpha) * np.sum((rel_t[i] - rel_m[j]) ** 2) / eps**2
                for j in range(10)
            ]
            assert pm[i] == int(np.argmin(costs))

    def test_blend_has_no_units(self):
        # Variation rows have no units; the coordinate term is divided by the
        # target patch's squared radius, so scaling coordinates and radius
        # together keeps the map.
        rng = np.random.default_rng(9)
        rows_t, rel_t = self._random_patch_data(rng, 10)
        rows_m, rel_m = self._random_patch_data(rng, 10)
        want = point_correspondence(rows_t, rows_m, 0.1 * rel_t, 0.1 * rel_m, 0.5, 0.3)
        for scale in (1e-3, 2.0**-10, 2.0**10, 1e3):
            got = point_correspondence(rows_t, rows_m, scale * 0.1 * rel_t, scale * 0.1 * rel_m,
                                       0.5, scale * 0.3)
            assert got.tolist() == want.tolist()
        assert want.tolist() != point_correspondence(
            rows_t, rows_m, 100 * rel_t, 100 * rel_m, 0.5, 0.3).tolist()

    def test_rejects_bad_alpha(self):
        z = np.zeros((3, 3))
        with pytest.raises(ValueError, match="alpha"):
            point_correspondence(z, z, z, z, 1.5, 1.0)


def build_reference(frame, k, c=5.0):
    ps = build_patches(frame, k)
    return ps, prepare_reference(frame, ps, c)


class TestTemporalMatch:
    def test_static_identical_sampling_matches_twin(self):
        seq = generate_sequence(
            SyntheticSpec("sinusoid-sheet", n_points=300, n_frames=1,
                          amplitude=0.2, phase_step=0.0, seed=5)
        )
        frame, _ = estimate_normals(seq.frames[0], 10)
        ps, ref = build_reference(frame, 12)
        matched, distance, point_map = match_patches(frame, ps, ref, xi=5)
        # Row l of each array belongs to target patch l. Its twin is patch l
        # itself, unless one of its xi nearest centers has a lower index and
        # the same variation vector, bit for bit: the tie goes to the lower
        # index. Such a patch holds the same points as patch l.
        near = knn_rows(NeighborIndex.from_points(frame.positions), frame.positions, 5)
        twin = [min(j for j in row if np.array_equal(ref.variations[j], ref.variations[l]))
                for l, row in enumerate(near.tolist())]
        assert matched.shape == distance.shape == (300,)
        assert matched.tolist() == twin
        for l, j in enumerate(twin):
            assert set(ps.members[j]) == set(ps.members[l])
        itself = matched == np.arange(300)
        assert 280 < np.count_nonzero(itself) < 300
        assert np.all(distance == 0.0)
        assert point_map.shape == (300, 13) and point_map.dtype == np.int64
        assert np.array_equal(point_map[itself], np.tile(np.arange(13), (300, 1))[itself])

    def test_plane_resamplings_distance_zero(self):
        specs = [
            SyntheticSpec("plane", n_points=200, n_frames=1, seed=s) for s in (1, 2)
        ]
        frames = [generate_sequence(s).frames[0] for s in specs]
        frames = [estimate_normals(f, 10)[0] for f in frames]
        prev_ps, ref = build_reference(frames[0], 10)
        curr_ps = build_patches(frames[1], 10)
        _, distance, _ = match_patches(frames[1], curr_ps, ref, xi=5)
        assert np.all(distance <= 1e-9)

    def test_xi_equals_m_is_global_search(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, (150, 3))
        prev, _ = estimate_normals(Frame(pts), 8)
        curr_pts = rng.uniform(0, 1, (150, 3))
        curr, _ = estimate_normals(Frame(curr_pts), 8)
        prev_ps, ref = build_reference(prev, 8)
        curr_ps = build_patches(curr, 8)
        matched, distance, _ = match_patches(curr, curr_ps, ref, xi=150)
        # Brute-force global minimum over all reference patches.
        for l in range(150):
            target = curr_ps.patch(l)
            eps = patch_epsilon(target, curr.positions, 5.0)
            rows = variation_rows(
                curr.positions[target.member_indices],
                curr.normals[target.member_indices],
                eps,
            )
            v_t = np.mean(np.abs(rows), axis=0)
            dists = [patch_distance(v_t, ref.variations[j]) for j in range(150)]
            best = int(np.lexsort((np.arange(150), np.asarray(dists)))[0])
            assert matched[l] == best
            assert distance[l] == pytest.approx(min(dists), abs=1e-12)


class TestDistanceProperties:
    def test_property1_rigid_transform(self):
        # Two different samplings of the same plane, one rigidly moved.
        rng = np.random.default_rng(13)
        pts_a = np.column_stack([rng.uniform(0, 1, (200, 2)), np.zeros(200)])
        pts_b = np.column_stack([rng.uniform(0, 1, (200, 2)), np.zeros(200)])
        theta = 0.6
        rot = np.array(
            [
                [1, 0, 0],
                [0, np.cos(theta), -np.sin(theta)],
                [0, np.sin(theta), np.cos(theta)],
            ]
        )
        pts_b = pts_b @ rot.T + np.array([0.3, -1.0, 2.0])
        fa, _ = estimate_normals(Frame(pts_a), 10)
        fb, _ = estimate_normals(Frame(pts_b), 10)
        pa = build_patches(fa, 12)
        pb = build_patches(fb, 12)
        ra = prepare_reference(fa, pa)
        rb = prepare_reference(fb, pb)
        for i in range(200):
            for j in range(200):
                assert patch_distance(ra.variations[i], rb.variations[j]) <= 1e-6

    def test_property2_curvature_ordering(self):
        # Flat vs flat < flat vs gentle bump < flat vs sharp bump.
        wins = 0
        trials = 20
        for t in range(trials):
            flat_a, na = sample_gaussian_bump(120, 0.0, seed=100 + t)
            flat_b, nb = sample_gaussian_bump(120, 0.0, seed=200 + t)
            gentle, ng = sample_gaussian_bump(120, 0.35, seed=300 + t)
            sharp, ns = sample_gaussian_bump(120, 1.1, seed=400 + t)
            vs = []
            for pts, _ in ((flat_a, na), (flat_b, nb), (gentle, ng), (sharp, ns)):
                frame, _ = estimate_normals(Frame(pts), 10)
                patch = whole_cloud_patch(120)
                eps = patch_epsilon(patch, frame.positions, 5.0)
                vs.append(variation_measure(patch, frame.positions, frame.normals, eps))
            d_flat = patch_distance(vs[0], vs[1])
            d_gentle = patch_distance(vs[0], vs[2])
            d_sharp = patch_distance(vs[0], vs[3])
            if d_flat < d_gentle < d_sharp:
                wins += 1
        assert wins >= 19
