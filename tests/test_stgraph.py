import tracemalloc

import numpy as np
import pytest
from test_acceptance import E2E_CONFIG

from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame, NeighborIndex, estimate_normals, knn_rows
from dpcdenoise.graph import SparseGraph, combinatorial_laplacian
from dpcdenoise.metrics import add_gaussian_noise
from dpcdenoise.patches import PatchSet, build_patches
from dpcdenoise import stgraph
from dpcdenoise.stgraph import (
    SpatialEdges,
    edge_key_bits,
    spatial_connectivity,
    weighted_spatial_graph,
)
from dpcdenoise.synthetic import SyntheticSpec, generate_sequence


def toy_patchset(positions, members, k):
    return PatchSet(members=np.asarray(members), k=k, frame=Frame(positions))


def point_edges(pairs):
    """One row edge per point pair, with no center gap."""
    pairs = np.asarray(pairs)
    count = pairs.shape[0]
    return SpatialEdges(points=pairs, counts=np.ones(count, dtype=np.int64),
                        offsets=np.zeros((count, 3)), spread=np.zeros(count))


class TestSpatialConnectivity:
    def test_tied_members_rank_adjacent_centers_by_center_index(self):
        # Points 1 and 2 are both at distance 1 from point 0. Patch l is
        # centered on point l, so point 0's k_s = 1 nearest center is the
        # lower index, point 1, which leads point 0's members, as a query
        # over the centers ranks it.
        pts = np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [1.5, 0, 0], [-1.6, 0, 0]], dtype=float)
        ps = build_patches(Frame(pts), 2)
        assert ps.members[0].tolist() == [0, 1, 2]
        index = NeighborIndex.from_points(pts)
        near = knn_rows(index, pts, 1, exclude=np.arange(5))[:, 0]
        assert near.tolist() == [1, 3, 4, 1, 2]
        assert stgraph._adjacent_patches(ps, 1).tolist() == [[0, 1], [1, 3], [2, 4]]

    def test_identical_patches_pair_same_slot(self):
        # Patches 0 = [0, 1] and 1 = [1, 2] on the x axis at 0, 5 and 10 have
        # identical relative layouts, so slot s of one pairs with slot s of
        # the other: row edges (0, 1) and (1, 2), each with center gap -5.
        # Patch 2 = [2, 1] adds (1, 2) once more, center gap c1 - c2 = -5;
        # its other rows pair a point with itself and are dropped.
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        ps = toy_patchset(pts, [[0, 1], [1, 2], [2, 1]], k=1)
        edges = spatial_connectivity(ps, pts, k_s=1)
        assert edges.points.tolist() == [[0, 1], [1, 2]]
        assert edges.counts.tolist() == [1, 2] and len(edges) == 3
        assert edges.offsets.tolist() == [[-5.0, 0.0, 0.0]] * 2
        assert edges.spread.tolist() == [0.0] * 2
        assert edges.residuals(pts).tolist() == [0.0] * 2

    def test_k_s_one_connects_nearest_patch_only(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.5, 0.0, 0.0], [9.0, 0.0, 0.0]])
        ps = build_patches(Frame(pts), 1)
        got_pairs = set(map(tuple, stgraph._adjacent_patches(ps, 1).tolist()))
        # Patch 3 is far away; its nearest is patch 2 (center distance oracle).
        assert got_pairs == {(0, 1), (1, 2), (2, 3)}
        # Every row edge joins two points of one adjacent patch pair.
        for a, b in spatial_connectivity(ps, pts, k_s=1).points.tolist():
            assert any({a, b} <= {*ps.members[l], *ps.members[m]} for l, m in got_pairs)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (60, 3))
        frame = Frame(pts)
        ps = build_patches(frame, 6)
        a = spatial_connectivity(ps, pts, 3)
        b = spatial_connectivity(ps, pts + np.array([10.0, -4.0, 2.0]), 3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.counts, b.counts)
        assert np.allclose(a.offsets, b.offsets, rtol=0, atol=1e-13)
        assert np.allclose(a.spread, b.spread, rtol=0, atol=1e-13)

    def test_one_center_twice_is_rejected(self):
        # Two patches over the same points with the same center cannot be
        # built: patch l is centered on point l, one patch per point.
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(ValueError, match="centered on point l"):
            toy_patchset(pts, [[0, 1, 2], [0, 1, 2]], k=2)

    def test_k_s_too_large(self):
        # A patch's row holds its k nearest centers, so k_s must be in [1, k].
        pts = np.random.default_rng(1).uniform(0, 1, (20, 3))
        ps = build_patches(Frame(pts), 4)
        for k_s in (0, 5):
            with pytest.raises(ValueError, match="k_s"):
                spatial_connectivity(ps, pts, k_s)
        assert len(spatial_connectivity(ps, pts, 4)) > 0

    def test_key_layout_boundary(self):
        # The largest key is n^2 * 2^bits - 1: at n = 2^20 and 2^22 patch
        # pairs (codes below 2^23) it is exactly 2^63 - 1.
        assert edge_key_bits(2**20, 2**22) == 23
        with pytest.raises(ValueError, match="too large"):
            edge_key_bits(2**20, 2**22 + 1)
        with pytest.raises(ValueError, match="too large"):
            edge_key_bits(2**20 + 1, 2**22)
        # The frame-size limit the docstring states: at k_s = 10 a frame has
        # at most 10 n adjacent patch pairs.
        assert edge_key_bits(741_455, 10 * 741_455) == 24
        with pytest.raises(ValueError, match="too large"):
            edge_key_bits(741_456, 10 * 741_456)
        assert edge_key_bits(3, 1) == 1

    def test_heap_peak_beyond_output_is_two_keys_per_edge(self):
        # Besides its outputs the fold may hold one 8-byte key per row edge
        # and temporaries of the same size again at most.
        cfg = DenoiseConfig(**E2E_CONFIG)
        spec = SyntheticSpec("sphere-cap", 2400, 1, amplitude=0.05, seed=3)
        frame = add_gaussian_noise(generate_sequence(spec).frames[0], 0.02, seed=4)
        ps = build_patches(frame, cfg.k)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            edges = spatial_connectivity(ps, frame.positions, cfg.k_s)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = sum(a.nbytes for a in (edges.points, edges.counts, edges.offsets, edges.spread))
        assert len(edges) > 500_000
        assert peak - output <= 2 * 8 * len(edges)


class TestSpatialWeights:
    def test_identical_features_weight_one(self):
        feats = np.zeros((2, 6))
        g = weighted_spatial_graph(point_edges([[0, 1]]), feats, 1.0)
        assert g[0] == 1.0

    def test_exp_ln2_weight_half(self):
        feats = np.zeros((2, 6))
        feats[1, 0] = np.sqrt(np.log(2.0))
        g = weighted_spatial_graph(point_edges([[0, 1]]), feats, 1.0)
        assert g[0] == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_feature_distance(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=6)
        prev = np.inf
        for scale in (0.1, 0.5, 1.0, 2.0):
            feats = np.vstack([np.zeros(6), scale * base])
            w = weighted_spatial_graph(point_edges([[0, 1]]), feats, 1.0)[0]
            assert w < prev
            prev = w

    def test_identity_metric_matches_initial(self):
        # Scale 1 is the identity metric: bit for bit the Gaussian kernel
        # exp(-||f_i - f_j||^2).
        rng = np.random.default_rng(3)
        pairs = np.array([[i, j] for i in range(10) for j in range(i + 1, 10)])
        for _ in range(200):
            feats = rng.normal(0.0, rng.uniform(0.01, 3.0), size=(10, 6))
            diff = feats[pairs[:, 0]] - feats[pairs[:, 1]]
            got = weighted_spatial_graph(point_edges(pairs), feats, 1.0)
            assert got.tobytes() == np.exp(-np.sum(diff * diff, axis=1)).tobytes()

    def test_zero_metric_gives_unit_weights(self):
        feats = np.random.default_rng(4).normal(size=(5, 6))
        pairs = np.array([[0, 1], [2, 3]])
        g = weighted_spatial_graph(point_edges(pairs), feats, 0.0)
        assert np.array_equal(g, [1.0, 1.0])

    def test_diagonal_metric_example(self):
        # Scale 2 is the metric 2 I: ||dn||^2 = 1.25 weighs exp(-2.5).
        feats = np.zeros((2, 6))
        feats[1, :2] = (1.0, 0.5)
        g = weighted_spatial_graph(point_edges([[0, 1]]), feats, 2.0)
        assert g[0] == pytest.approx(np.exp(-2.5), rel=1e-12)

    def test_scale_equals_mahalanobis_form_bit_for_bit(self):
        # exp(-dn^T M dn) with M = scale * I, as a three-operand einsum, on unit
        # normals and at the pipeline's default scale (5 / 3)^2.
        rng = np.random.default_rng(8)
        pairs = np.array([[i, j] for i in range(40) for j in range(i + 1, 40)])
        for scale in (1.0, (5.0 / 3.0) ** 2, 0.37):
            normals = rng.normal(size=(40, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            dn = normals[pairs[:, 0]] - normals[pairs[:, 1]]
            want = np.exp(-np.einsum("ei,ij,ej->e", dn, scale * np.eye(3), dn))
            got = weighted_spatial_graph(point_edges(pairs), normals, scale)
            assert got.tobytes() == want.tobytes()

    def test_rejects_non_psd_metric(self):
        # A negative scale makes the metric scale * I not PSD; nan and inf are
        # no scale at all.
        for scale in (-1.0, -1e-300, np.nan, np.inf):
            with pytest.raises(ValueError, match="scale must be finite and >= 0"):
                weighted_spatial_graph(point_edges([[0, 1]]), np.zeros((2, 6)), scale)

    def test_laplacian_of_weighted_graph_is_psd(self):
        # The point Laplacian whose edge (lo, hi) weighs pair weight times count.
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, (50, 3))
        frame, _ = estimate_normals(Frame(pts), 8)
        ps = build_patches(frame, 5)
        edges = spatial_connectivity(ps, pts, 3)
        w = weighted_spatial_graph(edges, frame.normals, 0.5)
        lo, hi = edges.points.T
        lap = combinatorial_laplacian(SparseGraph.from_edges(50, lo, hi, w * edges.counts))
        dense = lap.toarray()
        assert abs(dense - dense.T).max() < 1e-15
        for _ in range(20):
            x = rng.normal(size=lap.shape[0])
            assert x @ (lap @ x) >= -1e-10


def first_pass_row_weights(distances):
    """Temporal row weights of denoise_frame's first pass, with each patch's
    match distance replaced by ``distances(m)``; returns them as (m, k+1)
    blocks, and the distances."""
    import dpcdenoise.optimize as opt

    seq = generate_sequence(SyntheticSpec("sinusoid-sheet", 120, 2, amplitude=0.1,
                                          phase_step=0.03, seed=5))
    cfg = DenoiseConfig(k=10, k_s=4, xi=4, outer_max_iters=1, lambda1=0.5, lambda2=0.1)
    ref, _ = estimate_normals(seq.frames[0], cfg.k_plane)
    seen = {}
    real_match, real_solve = opt.match_patches, opt.solve_point_cloud

    def match(*args):
        matched, _, point_map = real_match(*args)
        seen["distance"] = distances(matched.size)
        return matched, seen["distance"], point_map

    def solve(u_hat, members, anchor_rows, prev_aligned, w_rows, *rest):
        seen["rows"] = w_rows.reshape(members.shape)
        return real_solve(u_hat, members, anchor_rows, prev_aligned, w_rows, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opt, "match_patches", match)
        patch.setattr(opt, "solve_point_cloud", solve)
        opt.denoise_frame(Frame(seq.frames[1].positions, frame_index=1), ref, cfg)
    return seen["rows"], seen["distance"]


class TestTemporalWeights:
    """The first pass weighs each matched patch by exp(-match distance)."""

    def test_distance_zero_gives_weight_one(self):
        rows, _ = first_pass_row_weights(np.zeros)
        assert np.all(rows == 1.0)

    def test_distance_ln4_gives_quarter(self):
        rows, _ = first_pass_row_weights(lambda m: np.full(m, np.log(4.0)))
        np.testing.assert_allclose(rows, 0.25, rtol=1e-12)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(6)
        rows, _ = first_pass_row_weights(lambda m: rng.uniform(0, 50, m))
        assert np.all(rows > 0) and np.all(rows <= 1)

    def test_expand_repeats_blockwise(self):
        rng = np.random.default_rng(7)
        rows, distance = first_pass_row_weights(lambda m: rng.uniform(0, 3, m))
        assert np.array_equal(rows, np.repeat(np.exp(-distance)[:, None], rows.shape[1], axis=1))


class TestSpatialEdges:
    def test_groups_rows_by_unordered_point_pair(self):
        # Points on the x axis at 0, 1, 3; patches A = [0, 1], B = [1, 2] and
        # C = [2, 1] with centers at 0, 1 and 3, so A-B and B-C are adjacent.
        # Row edges, with the center gap oriented from the lower point:
        # A-B: (0, 1) gap cA - cB = -1; (1, 1) (row 1 of A ties between
        # both rows of B, the lower slot wins); (1, 2) backward, gap -1.
        # B-C: (1, 2) gap cB - cC = -2; (2, 2); (1, 1) backward.
        # The three edges (1, 1), (2, 2) and (1, 1) join a point with itself
        # and are dropped.
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        ps = toy_patchset(pts, [[0, 1], [1, 2], [2, 1]], k=1)
        edges = spatial_connectivity(ps, pts, k_s=1)
        assert edges.points.tolist() == [[0, 1], [1, 2]]
        assert edges.counts.tolist() == [1, 2] and len(edges) == 3
        assert edges.offsets.tolist() == [[-1.0, 0, 0], [-1.5, 0, 0]]
        assert edges.spread.tolist() == [0.0, 0.5]
        # Pair (1, 2): row residuals (-2 + 1)^2 + (-2 + 2)^2 = 2 * 0.5^2 + 0.5.
        assert edges.residuals(pts).tolist() == [0.0, 1.0]

    def test_weights_gathered_to_every_row_edge(self):
        # One weight per point pair, carried by each of its row edges.
        rng = np.random.default_rng(11)
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        ps = toy_patchset(pts, [[0, 1], [1, 2], [2, 1]], k=1)
        edges = spatial_connectivity(ps, pts, k_s=1)
        feats = np.hstack([rng.normal(size=(3, 3)), np.tile([0.0, 0.0, 1.0], (3, 1))])
        w = weighted_spatial_graph(edges, feats, 1.0)
        diff = feats[edges.points[:, 0]] - feats[edges.points[:, 1]]
        assert w.tolist() == np.exp(-np.sum(diff * diff, axis=1)).tolist()
        assert np.all(w < 1.0)
        assert np.repeat(w, edges.counts).size == len(edges)
