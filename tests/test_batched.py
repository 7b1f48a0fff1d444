"""The batched patch passes and array kernels against their oracles, bit for bit.

Inputs are drawn to hit the edge cases of the batched code: coordinates
on a coarse grid (ties at the k-NN boundary, at exactly d == epsilon and
between nearest rows of adjacent patches), duplicate points, members
without a neighbor inside epsilon, k = 1 patches and fully clumped
patches. Spatial edges are drawn over few points, so many row edges join
the same point pair, in either order, or a point with itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import brute_knn, variation_rows

from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame, build_neighbor_index, farthest_point_sampling, knn_rows
from dpcdenoise.graph import SparseGraph
from dpcdenoise.matching import match_patches, patch_variations, prepare_reference
from dpcdenoise.optimize import (
    SolverError,
    _metric_gradient_from_terms,
    denoise_frame,
    learn_metric,
)
from dpcdenoise.patches import all_relative_coords, build_patches, sq_dists
from dpcdenoise.stgraph import (
    SpatialEdges,
    initial_spatial_weights,
    point_features,
    spatial_connectivity,
    weighted_spatial_graph,
)

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


class TestSqDists:
    @PROPERTY
    @given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 7), st.integers(1, 7),
           st.sampled_from([0, 2, 3]), st.integers(0, 2**32 - 1))
    def test_matches_summed_difference_tensor(self, batch, s, t, grid, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(*batch, s, 3))
        b = rng.normal(size=(*batch, t, 3))
        if grid:
            a, b = np.round(a * grid) / grid, np.round(b * grid) / grid
        diff = a[..., :, None, :] - b[..., None, :, :]
        want = np.sum(diff * diff, axis=-1)
        got = sq_dists(a, b)
        assert got.shape == want.shape
        assert bits(got) == bits(want)


class TestSpatialConnectivity:
    @PROPERTY
    @given(clouds(min_points=4), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_matches_per_block_oracle(self, cloud, k, seed):
        pts, rng = cloud
        n = len(pts)
        k = min(k, n - 1)
        m = int(rng.integers(2, n + 1))
        k_s = int(rng.integers(1, m))
        ps = build_patches(Frame(pts), m, k, seed)
        got = spatial_connectivity(ps, pts, k_s)
        want = oracles.spatial_connectivity(ps, pts, k_s)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_ties_and_mutual_nearest_rows(self):
        # A 3-level grid with duplicated points gives argmin ties between
        # patches; the centers of adjacent patches are always mutually
        # nearest rows, so both directions name their edge.
        rng = np.random.default_rng(5)
        pts = np.round(rng.uniform(0, 1, (60, 3)) * 2) / 2
        ps = build_patches(Frame(pts), 30, 6, seed=7)
        rel = all_relative_coords(ps, pts)
        cost = sq_dists(rel[:, None], rel[None, :])             # (30, 30, 7, 7)
        assert np.any(np.sum(cost == cost.min(axis=3, keepdims=True), axis=3) > 1)
        got = spatial_connectivity(ps, pts, 5)
        assert np.array_equal(got, oracles.spatial_connectivity(ps, pts, 5))
        assert np.all(got[:, 0] < got[:, 1])
        assert np.all(np.diff(got[:, 0] * len(ps) * 7 + got[:, 1]) > 0)


class TestMetricGram:
    @PROPERTY
    @given(st.integers(1, 20000), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_three_operand_einsum(self, e, seed, sparse):
        rng = np.random.default_rng(seed)
        diffs = rng.normal(size=(e, 6))
        terms = rng.exponential(size=e)
        if sparse:
            diffs[:, rng.integers(6)] = 0.0
            terms[rng.random(e) < 0.5] = 0.0
        factor = rng.normal(size=(6, 6))
        want = -2.0 * factor @ oracles.metric_gram(diffs, terms)
        assert bits(_metric_gradient_from_terms(factor, diffs, terms)) == bits(want)


@st.composite
def row_edges(draw):
    """Patches over few points, sorted distinct row edges, point features and row offsets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    size = draw(st.integers(1, n))
    m = draw(st.integers(1 if size > 1 else 2, 6))
    members = np.array([rng.permutation(n)[:size] for _ in range(m)])
    lo, hi = np.triu_indices(m * size, 1)
    keep = np.sort(rng.choice(lo.size, int(rng.integers(1, lo.size + 1)), replace=False))
    rows = np.column_stack([lo[keep], hi[keep]])
    pts = rng.uniform(0.0, 1.0, (n, 3))
    if draw(st.booleans()):
        pts = np.round(pts * 2) / 2
    feats = point_features(pts, unit_normals(rng, n))
    offsets = rng.normal(0.0, 0.3, (m * size, 3))
    return members, rows, feats, offsets, rng


class TestPointPairs:
    @PROPERTY
    @given(row_edges())
    def test_pair_weights_equal_per_edge_weights(self, drawn):
        members, rows, feats, _, rng = drawn
        edges = SpatialEdges.group(rows, members)
        row_feats = feats[members.ravel()]
        factor = rng.normal(0.0, 0.5, (6, 6))
        metric = factor.T @ factor
        pairs = (
            (initial_spatial_weights(edges, feats), oracles.row_edge_weights(rows, row_feats)),
            (weighted_spatial_graph(edges, feats, metric),
             oracles.row_edge_weights(rows, row_feats, metric)),
        )
        for got, want in pairs:
            assert got.node_count == want.node_count
            assert np.array_equal(got.edge_i, want.edge_i)
            assert np.array_equal(got.edge_j, want.edge_j)
            assert bits(got.weights) == bits(want.weights)

    @PROPERTY
    @given(row_edges(), st.sampled_from([1e-5, 1e-3]))
    def test_compressed_metric_learning_matches_per_edge(self, drawn, step):
        members, rows, feats, offsets, _ = drawn
        edges = SpatialEdges.group(rows, members)
        row_feats = feats[members.ravel()]
        gap = offsets[rows[:, 0]] - offsets[rows[:, 1]]
        dsq = np.sum(gap * gap, axis=1)
        per_edge = learn_metric(row_feats[rows[:, 0]] - row_feats[rows[:, 1]], dsq, 5.0,
                                pg_step=step, pg_max_iters=20)
        compressed = learn_metric(edges.differences(feats), edges.pair_sums(dsq), 5.0,
                                  pg_step=step, pg_max_iters=20)
        assert edges.points.shape[0] <= rows.shape[0]
        assert np.all(edges.points[:, 0] <= edges.points[:, 1])
        assert compressed.objectives[-1] == pytest.approx(per_edge.objectives[-1],
                                                          rel=1e-12, abs=1e-300)
        assert np.max(np.abs(compressed.metric - per_edge.metric)) <= 1e-12


class TestFarthestPointSampling:
    @PROPERTY
    @given(clouds(min_points=1), st.integers(0, 2**32 - 1))
    def test_matches_row_sum_loop(self, cloud, seed):
        pts, rng = cloud
        m = int(rng.integers(1, len(pts) + 1))
        got = farthest_point_sampling(Frame(pts), m, seed)
        assert got.tolist() == oracles.farthest_point_sampling(pts, m, seed).tolist()


class TestFromEdges:
    @PROPERTY
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_unsorted_input_matches_sorted_fast_path(self, n, seed):
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        keep = np.sort(rng.choice(lo.size, int(rng.integers(1, lo.size + 1)), replace=False))
        lo, hi = lo[keep], hi[keep]
        w = rng.uniform(0, 2, lo.size)
        fast = SparseGraph.from_edges(n, lo, hi, w)
        order = rng.permutation(lo.size)
        swap = rng.random(lo.size) < 0.5
        i = np.where(swap, hi, lo)[order]
        j = np.where(swap, lo, hi)[order]
        slow = SparseGraph.from_edges(n, i, j, w[order])
        for a, b in ((fast.edge_i, slow.edge_i), (fast.edge_j, slow.edge_j)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert bits(fast.weights) == bits(slow.weights) == bits(w)

    def test_fast_path_owns_its_weights(self):
        w = np.array([1.0, 2.0])
        graph = SparseGraph.from_edges(3, [0, 1], [1, 2], w)
        w[0] = 5.0
        assert graph.weights.tolist() == [1.0, 2.0]
        assert not graph.weights.flags.writeable

    @pytest.mark.parametrize("i, j", [([0, 0], [1, 1]), ([1, 0], [0, 1]), ([0, 2, 0], [1, 0, 1])])
    def test_duplicates_rejected_sorted_or_not(self, i, j):
        with pytest.raises(ValueError, match="duplicate edges"):
            SparseGraph.from_edges(3, i, j, np.ones(len(i)))
