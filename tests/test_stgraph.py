import numpy as np
import pytest

from dpcdenoise.geometry import Frame, estimate_normals
from dpcdenoise.graph import combinatorial_laplacian
from dpcdenoise.patches import PatchSet, build_patches
from dpcdenoise.stgraph import (
    TemporalWeights,
    initial_spatial_weights,
    row_features,
    spatial_connectivity,
    temporal_weight_init,
    weighted_spatial_graph,
)


def toy_patchset(positions, members, k):
    return PatchSet(members=np.asarray(members), k=k, frame=Frame(positions))


class TestSpatialConnectivity:
    def test_identical_patches_pair_same_slot(self):
        # Two patches with identical relative layouts at different centers.
        pts = np.array(
            [
                [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                [5.0, 0.0, 0.0], [6.0, 0.0, 0.0], [5.0, 1.0, 0.0],
            ]
        )
        ps = toy_patchset(pts, [[0, 1, 2], [3, 4, 5]], k=2)
        pairs = spatial_connectivity(ps, pts, k_s=1)
        want = {(0, 3), (1, 4), (2, 5)}
        assert set(map(tuple, pairs)) == want

    def test_k_s_one_connects_nearest_patch_only(self):
        pts = np.array(
            [
                [0.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                [1.0, 0.0, 0.0], [1.1, 0.0, 0.0],
                [9.0, 0.0, 0.0], [9.1, 0.0, 0.0],
            ]
        )
        ps = toy_patchset(pts, [[0, 1], [2, 3], [4, 5]], k=1)
        pairs = spatial_connectivity(ps, pts, k_s=1)
        patch_of = np.asarray(pairs) // 2
        got_pairs = set(map(tuple, patch_of))
        # Patch 2 is far away; its nearest is patch 1 (center distance oracle).
        assert (0, 1) in got_pairs
        assert (1, 2) in got_pairs
        assert (0, 2) not in got_pairs

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (60, 3))
        frame = Frame(pts)
        ps = build_patches(frame, 10, 6, seed=1)
        a = spatial_connectivity(ps, pts, 3)
        b = spatial_connectivity(ps, pts + np.array([10.0, -4.0, 2.0]), 3)
        assert np.array_equal(a, b)

    def test_k_s_too_large(self):
        pts = np.random.default_rng(1).uniform(0, 1, (20, 3))
        ps = build_patches(Frame(pts), 4, 4, seed=0)
        with pytest.raises(ValueError, match="k_s"):
            spatial_connectivity(ps, pts, 4)


class TestSpatialWeights:
    def test_identical_features_weight_one(self):
        feats = np.zeros((2, 6))
        g = initial_spatial_weights(np.array([[0, 1]]), feats)
        assert g.weights[0] == 1.0

    def test_exp_ln2_weight_half(self):
        feats = np.zeros((2, 6))
        feats[1, 0] = np.sqrt(np.log(2.0))
        g = initial_spatial_weights(np.array([[0, 1]]), feats)
        assert g.weights[0] == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_feature_distance(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=6)
        prev = np.inf
        for scale in (0.1, 0.5, 1.0, 2.0):
            feats = np.vstack([np.zeros(6), scale * base])
            w = initial_spatial_weights(np.array([[0, 1]]), feats).weights[0]
            assert w < prev
            prev = w

    def test_identity_metric_matches_initial(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(10, 6))
        pairs = np.array([[i, j] for i in range(10) for j in range(i + 1, 10)])
        a = initial_spatial_weights(pairs, feats)
        b = weighted_spatial_graph(pairs, feats, np.eye(6))
        assert np.allclose(a.weights, b.weights, atol=1e-15)

    def test_zero_metric_gives_unit_weights(self):
        feats = np.random.default_rng(4).normal(size=(5, 6))
        pairs = np.array([[0, 1], [2, 3]])
        g = weighted_spatial_graph(pairs, feats, np.zeros((6, 6)))
        assert np.array_equal(g.weights, [1.0, 1.0])

    def test_diagonal_metric_example(self):
        feats = np.zeros((2, 6))
        feats[1, 0] = 1.0
        metric = np.zeros((6, 6))
        metric[0, 0] = 2.0
        g = weighted_spatial_graph(np.array([[0, 1]]), feats, metric)
        assert g.weights[0] == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_rejects_non_psd_metric(self):
        feats = np.zeros((2, 6))
        metric = -np.eye(6)
        with pytest.raises(ValueError, match="positive semidefinite"):
            weighted_spatial_graph(np.array([[0, 1]]), feats, metric)

    def test_laplacian_of_weighted_graph_is_psd(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, (50, 3))
        frame, _ = estimate_normals(Frame(pts), 8)
        ps = build_patches(frame, 10, 5, seed=2)
        pairs = spatial_connectivity(ps, pts, 3)
        feats = row_features(ps, pts, frame.normals)
        g = weighted_spatial_graph(pairs, feats, 0.5 * np.eye(6))
        lap = combinatorial_laplacian(g)
        assert abs((lap - lap.T).toarray()).max() < 1e-15
        for _ in range(20):
            x = rng.normal(size=lap.shape[0])
            assert x @ (lap @ x) >= -1e-10


class TestTemporalWeights:
    def test_distance_zero_gives_weight_one(self):
        tw = temporal_weight_init(np.array([0.0]), k=2)
        assert tw.w[0] == 1.0

    def test_distance_ln4_gives_quarter(self):
        tw = temporal_weight_init(np.array([np.log(4.0)]), k=2)
        assert tw.w[0] == pytest.approx(0.25, rel=1e-12)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(6)
        tw = temporal_weight_init(rng.uniform(0, 50, 20), k=2)
        assert np.all(tw.w > 0) and np.all(tw.w <= 1)

    def test_expand_repeats_blockwise(self):
        tw = TemporalWeights(w=np.array([0.25, 1.0]), k=2)
        assert tw.expand().tolist() == [0.25, 0.25, 0.25, 1.0, 1.0, 1.0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TemporalWeights(w=np.array([1.5]), k=1)


class TestRowFeatures:
    def test_layout_and_units(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 1, (30, 3))
        frame, _ = estimate_normals(Frame(pts), 6)
        ps = build_patches(frame, 4, 5, seed=3)
        feats = row_features(ps, pts, frame.normals)
        assert feats.shape == (4 * 6, 6)
        flat = ps.members.ravel()
        assert np.array_equal(feats[:, :3], pts[flat])
        assert np.allclose(np.linalg.norm(feats[:, 3:], axis=1), 1.0, atol=1e-9)
