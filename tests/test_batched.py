"""The batched patch passes and array kernels against their oracles.

Results must be bit for bit equal where the arithmetic is unchanged. The
spatial graph folded onto point pairs sums per pair instead of per row
edge, so it must match the row-level oracles to 1e-12 relative.

Inputs are drawn to hit the edge cases of the batched code: coordinates
on a coarse grid (ties at the k-NN boundary, at exactly d == epsilon and
between nearest rows of adjacent patches), duplicate points, members
without a neighbor inside epsilon, k = 1 patches and fully clumped
patches. Spatial edges are drawn over few points, so many row edges join
the same point pair, in either order; the fold drops the row edges that
join a point with itself.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import oracles
from oracles import brute_knn, variation_rows
from test_acceptance import (
    E2E_AMPLITUDE,
    E2E_CONFIG,
    E2E_NOISE_SEED,
    E2E_PHASE_STEP,
    E2E_POINTS,
    E2E_SYNTH_SEED,
)

from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame, NeighborIndex, knn_rows
from dpcdenoise.graph import CsrMatrix, SparseGraph, combinatorial_laplacian
from dpcdenoise.matching import match_patches, patch_variations, prepare_reference
from dpcdenoise.metrics import add_gaussian_noise
from dpcdenoise.optimize import (
    SolverError,
    _metric_gradient_from_terms,
    _point_system,
    denoise_frame,
    learn_metric,
    objective,
)
from dpcdenoise import stgraph
from dpcdenoise.patches import PATCH_BLOCK, all_relative_coords, build_patches, sq_dists
from dpcdenoise.stgraph import (
    FOLD_CHUNK,
    SLOT_BLOCK,
    SpatialEdges,
    spatial_connectivity,
    weighted_spatial_graph,
)
from dpcdenoise.synthetic import SyntheticSpec, generate_sequence

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
        index = NeighborIndex.from_points(pts)
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
        index = NeighborIndex.from_points(np.eye(3))
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
        config = DenoiseConfig(k=5, k_s=3, xi=3, k_plane=6, outer_max_iters=1)
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
        prev_ps = build_patches(prev, k)
        curr_ps = build_patches(curr, k)
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
        eps, rows, variations = oracle_patches(curr.positions, curr.normals, curr_ps.members, 5.0)
        for l, idx in enumerate(curr_ps.members):
            cand = brute_knn(prev.positions, curr.positions[idx[0]], min(xi, len(prev_ps)))
            gaps = ref_var[cand] - variations[l]
            dists = np.sqrt(np.sum(gaps * gaps, axis=1))
            best = int(cand[np.lexsort((cand, dists))[0]])
            rel_t = curr.positions[idx] - curr.positions[idx[0]]
            rel_m = reference.rel[best]
            coord = np.sum((rel_t[:, None] - rel_m[None]) ** 2, axis=2)
            if 0 < alpha < 1:
                # The blend divides the coordinate term by the target radius squared.
                coord = coord / eps[l] ** 2
            cost = (alpha * np.sum((rows[l][:, None] - ref_rows[best][None]) ** 2, axis=2)
                    + (1 - alpha) * coord)
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


def assert_folds(edges, rows, members, anchor_rows):
    """``edges`` is the fold of the oracle's row edges: same pairs and counts, and
    offsets and spread equal to 1e-12 relative."""
    points, counts, offsets, spread = oracles.fold_rows(rows, members, anchor_rows)
    assert edges.points.dtype == points.dtype and np.array_equal(edges.points, points)
    assert np.array_equal(edges.counts, counts)
    assert len(edges) == int(edges.counts.sum()) == rows.shape[0]
    scale = max(1.0, float(np.max(np.abs(anchor_rows))))
    np.testing.assert_allclose(edges.offsets, offsets, rtol=1e-12, atol=1e-15 * scale)
    np.testing.assert_allclose(edges.spread, spread, rtol=1e-12, atol=1e-15 * scale**2)


def anchors_of(patchset, pts):
    return np.repeat(pts, patchset.k + 1, axis=0)


def assert_bit_equal(edges, want):
    """``edges`` equals the full-length fold ``want`` in every value and dtype."""
    for got, expected in zip((edges.points, edges.counts, edges.offsets, edges.spread), want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestSpatialConnectivity:
    @PROPERTY
    @given(clouds(min_points=4), st.integers(1, 8))
    def test_matches_per_block_oracle(self, cloud, k):
        pts, rng = cloud
        k = min(k, len(pts) - 1)
        k_s = int(rng.integers(1, k + 1))
        ps = build_patches(Frame(pts), k)
        edges = spatial_connectivity(ps, pts, k_s)
        rows = oracles.spatial_connectivity(ps, pts, k_s)
        assert_folds(edges, rows, ps.members, anchors_of(ps, pts))

    @PROPERTY
    @given(clouds(min_points=4), st.integers(1, 8))
    def test_no_self_pairs(self, cloud, k):
        # Every pair joins two distinct points, lower first, and len() counts
        # the row edges between two rows of distinct points only.
        pts, rng = cloud
        k = min(k, len(pts) - 1)
        k_s = int(rng.integers(1, k + 1))
        ps = build_patches(Frame(pts), k)
        edges = spatial_connectivity(ps, pts, k_s)
        assert np.all(edges.points[:, 0] < edges.points[:, 1])
        every = oracles.spatial_connectivity(ps, pts, k_s, keep_self=True)
        flat = ps.members.ravel()
        assert len(edges) == np.count_nonzero(flat[every[:, 0]] != flat[every[:, 1]])

    @PROPERTY
    @given(clouds(min_points=4), st.integers(1, 8), st.none() | st.integers(1, 8))
    def test_adjacency_with_every_point_a_center(self, cloud, k, k_s):
        # The patches' own rows give the adjacent centers that a query over
        # the centers gives, ties included; grids and duplicates make ties.
        # A k_s of None draws k_s == k.
        pts, _ = cloud
        n = len(pts)
        k = min(k, n - 1)
        k_s = min(k if k_s is None else k_s, k)
        ps = build_patches(Frame(pts), k)
        want = {(min(l, j), max(l, j)) for l in range(n)
                for j in brute_knn(pts, pts[l], k_s, exclude=l).tolist()}
        got = stgraph._adjacent_patches(ps, k_s)
        assert sorted(map(tuple, got.tolist())) == sorted(want)

    @PROPERTY
    @given(clouds(min_points=4), st.integers(1, 8),
           st.sampled_from([1, 2, 3, SLOT_BLOCK]), st.sampled_from([1, 2, 3, PATCH_BLOCK]),
           st.sampled_from([1, 2, 5, FOLD_CHUNK]))
    def test_bit_equal_to_full_length_fold(self, cloud, k, slot_block, block, chunk):
        # Small blocks and chunks put seams inside every instance: filter
        # blocks, key blocks, and pairs whose row edges span several chunks.
        pts, rng = cloud
        k = min(k, len(pts) - 1)
        k_s = int(rng.integers(1, k + 1))
        ps = build_patches(Frame(pts), k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stgraph, "SLOT_BLOCK", slot_block)
            patch.setattr(stgraph, "PATCH_BLOCK", block)
            patch.setattr(stgraph, "FOLD_CHUNK", chunk)
            edges = spatial_connectivity(ps, pts, k_s)
        assert_bit_equal(edges, oracles.folded_connectivity(ps, pts, k_s))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 8]))
    def test_bit_equal_across_block_and_chunk_seams(self, seed, grid):
        # Enough adjacent patch pairs and row edges for several filter and
        # key blocks and fold chunks at the library's own sizes.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (800, 3))
        if grid:
            pts = np.round(pts * grid) / grid
        pts[rng.choice(800, 40, replace=False)] = pts[rng.choice(800, 40)]
        k = 15
        ps = build_patches(Frame(pts), k)
        edges = spatial_connectivity(ps, pts, 8)
        # A patch pair emits at most 2 (k + 1) row edges.
        assert len(edges) > max(3 * FOLD_CHUNK, 2 * (k + 1) * 3 * max(SLOT_BLOCK, PATCH_BLOCK))
        assert_bit_equal(edges, oracles.folded_connectivity(ps, pts, 8))

    def test_ties_and_mutual_nearest_rows(self):
        # A 3-level grid with duplicated points gives argmin ties between
        # patches; the centers of adjacent patches are always mutually
        # nearest rows, so both directions name their edge.
        rng = np.random.default_rng(5)
        pts = np.round(rng.uniform(0, 1, (60, 3)) * 2) / 2
        ps = build_patches(Frame(pts), 6)
        rel = all_relative_coords(ps, pts)
        cost = sq_dists(rel[:, None], rel[None, :])             # (60, 60, 7, 7)
        assert np.any(np.sum(cost == cost.min(axis=3, keepdims=True), axis=3) > 1)
        edges = spatial_connectivity(ps, pts, 5)
        assert_folds(edges, oracles.spatial_connectivity(ps, pts, 5), ps.members,
                     anchors_of(ps, pts))
        assert np.all(edges.points[:, 0] < edges.points[:, 1])
        assert np.all(np.diff(edges.points[:, 0] * 60 + edges.points[:, 1]) > 0)
        # Duplicated points put one point in two rows that are nearest rows;
        # those row edges are dropped.
        every = oracles.spatial_connectivity(ps, pts, 5, keep_self=True)
        flat = ps.members.ravel()
        assert np.any(flat[every[:, 0]] == flat[every[:, 1]])


def argmin_slots(rel, adj):
    """``_nearest_slots``'s maps and one-way count from the full float64 cost tensor."""
    cost = sq_dists(rel[adj[:, 0]], rel[adj[:, 1]])
    nm, nl = np.argmin(cost, axis=2), np.argmin(cost, axis=1)
    return nm, nl, np.count_nonzero(np.take_along_axis(nm, nl, axis=1) != np.arange(rel.shape[1]))


def slot_instance(pts, k, k_s):
    """Relative coordinates and adjacent patch pairs of ``pts``, as ``spatial_connectivity`` builds them."""
    ps = build_patches(Frame(pts), k)
    return all_relative_coords(ps, pts), stgraph._adjacent_patches(ps, k_s)


def assert_slots_exact(got, rel, adj):
    nm, nl, one_way = argmin_slots(rel, adj)
    assert got[0].dtype == np.min_scalar_type(rel.shape[1]) and got[1].dtype == got[0].dtype
    assert np.array_equal(got[0], nm) and np.array_equal(got[1], nl)
    assert got[2] == one_way


class TestNearestSlots:
    """The float32 filter with exact recheck against np.argmin over the float64 tensor."""

    @settings(max_examples=150, deadline=None)
    @given(clouds(min_points=4), st.integers(1, 8),
           st.booleans(), st.sampled_from([1.0, 1e-30, 1e30, 1e-160, 1e160, "offset"]),
           st.sampled_from([1, 2, 3, SLOT_BLOCK]))
    def test_filter_is_sound(self, cloud, k, zero_radius, scale, block):
        # Grids and duplicates give exact ties; k + 1 copies of one point
        # give zero-radius patches, as every point is a center. The offset
        # cancels in the relative coordinates. The scales probe float32's
        # range, and at 1e-160 and 1e160 float64's squares underflow or
        # overflow (the scales apply to the relative coordinates, since the
        # neighbor index rejects points at 1e160).
        pts, rng = cloud
        n = len(pts)
        k = min(k, n - 1)
        if zero_radius:
            pts[rng.choice(n, k + 1, replace=False)] = pts[0]
        rel, adj = slot_instance(pts + 1e6 if scale == "offset" else pts, k,
                                 int(rng.integers(1, k + 1)))
        if scale != "offset":
            rel = rel * scale
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(stgraph, "SLOT_BLOCK", block)
                got = stgraph._nearest_slots(rel, adj)
            assert_slots_exact(got, rel, adj)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 4]))
    def test_wide_patches_use_uint16_slots(self, seed, grid):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (300, 3))
        if grid:
            pts = np.round(pts * grid) / grid
        rel, adj = slot_instance(pts, 279, 3)
        # Eight of the patch pairs: the float64 oracle over all of them would
        # take hundreds of MB.
        adj = adj[np.sort(rng.choice(adj.shape[0], 8, replace=False))]
        got = stgraph._nearest_slots(rel, adj)
        assert got[0].dtype == np.uint16
        assert_slots_exact(got, rel, adj)

    def test_ties_take_the_exact_path(self):
        rng = np.random.default_rng(5)
        pts = np.round(rng.uniform(0, 1, (60, 3)) * 2) / 2
        rel, adj = slot_instance(pts, 6, 5)
        got = stgraph._nearest_slots(rel, adj)
        assert_slots_exact(got, rel, adj)
        assert got[3] > 0

    def test_non_finite_rows_match_argmin(self):
        # Frames are finite, but relative coordinates can overflow; np.argmin
        # takes the first NaN of a row.
        rng = np.random.default_rng(3)
        rel = rng.normal(size=(12, 5, 3))
        rel[2, 3, 0] = np.nan
        rel[5, 1, 2] = np.inf
        rel[7, 0] = -np.inf
        adj = np.array([(l, m) for l in range(12) for m in range(l + 1, 12)])
        with np.errstate(invalid="ignore"):
            got = stgraph._nearest_slots(rel, adj)
            assert_slots_exact(got, rel, adj)

    def test_exact_path_is_rare_on_the_acceptance_instance(self):
        cfg = DenoiseConfig(**E2E_CONFIG)
        spec = SyntheticSpec("sinusoid-sheet", E2E_POINTS, 1, amplitude=E2E_AMPLITUDE,
                             phase_step=E2E_PHASE_STEP, seed=E2E_SYNTH_SEED)
        clean = generate_sequence(spec).frames[0]
        sigma = 0.02 * float(np.linalg.norm(np.ptp(clean.positions, axis=0)))
        frame = add_gaussian_noise(clean, sigma, seed=E2E_NOISE_SEED)
        rel, adj = slot_instance(frame.positions, cfg.k, cfg.k_s)
        got = stgraph._nearest_slots(rel, adj)
        assert_slots_exact(got, rel, adj)
        assert got[3] < 0.01 * 2 * got[0].size


@st.composite
def spatial_instances(draw):
    """A patch layout over a drawn cloud, its folded spatial edges and the oracle's row edges."""
    pts, rng = draw(clouds(min_points=4, max_points=30))
    n = len(pts)
    k = min(draw(st.sampled_from([1, 2, 4, 7])), n - 1)
    ps = build_patches(Frame(pts), k)
    k_s = int(rng.integers(1, k + 1))
    edges = spatial_connectivity(ps, pts, k_s)
    rows = oracles.spatial_connectivity(ps, pts, k_s)
    pair_weights = rng.uniform(0.0, 1.0, edges.points.shape[0])
    pair_weights[rng.random(pair_weights.size) < 0.2] = 0.0
    return pts, ps, edges, rows, pair_weights, rng


def assert_sums_match(got, want, pts):
    """Sums of squared residuals agree to 1e-12 relative. A residual that cancels
    to zero row by row comes out of the fold as rounding of the coordinates
    (about 1e-32 at unit scale), hence the absolute floor."""
    floor = 1e-24 * max(1.0, float(np.max(np.abs(pts)))) ** 2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=floor)


def rel_max_error(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestFoldedSpatialTerm:
    @PROPERTY
    @given(spatial_instances(), st.booleans())
    def test_system_matches_dense_row_oracle(self, drawn, temporal):
        pts, ps, edges, rows, pair_weights, rng = drawn
        members = ps.members
        anchors = anchors_of(ps, pts)
        u_hat = pts + rng.normal(0.0, 0.05, pts.shape)
        prev = rng.normal(0.0, 0.1, anchors.shape) if temporal else None
        w_rows = np.repeat(rng.uniform(0, 1, len(ps)), ps.k + 1) if temporal else None
        lam1, lam2 = rng.uniform(0.1, 2.0, 2)
        a, b = _point_system(u_hat, members, anchors, prev, w_rows, edges, pair_weights,
                             lam1, lam2)
        lap = oracles.row_laplacian(rows, members, pair_weights)
        a_want, b_want = oracles.build_system(u_hat, members, anchors, prev, w_rows, lap,
                                              lam1, lam2)
        assert a.shape == (len(pts), len(pts))
        assert a.nnz == len(pts) + 2 * edges.points.shape[0]
        assert rel_max_error(a.toarray(), a_want) <= 1e-12
        assert rel_max_error(b, b_want) <= 1e-12

    @PROPERTY
    @given(spatial_instances(), st.booleans())
    def test_row_oracle_system_ignores_self_edges(self, drawn, temporal):
        # A row edge between two rows of one point adds nothing to A or b,
        # whatever it weighs: S^T L S and S^T L C see e_a - e_a = 0.
        pts, ps, edges, rows, pair_weights, rng = drawn
        members = ps.members
        anchors = anchors_of(ps, pts)
        every = oracles.spatial_connectivity(ps, pts, int(rng.integers(1, len(ps))),
                                             keep_self=True)
        flat = members.ravel()
        same = flat[every[:, 0]] == flat[every[:, 1]]
        weights = rng.uniform(0.0, 1.0, every.shape[0])
        u_hat = pts + rng.normal(0.0, 0.05, pts.shape)
        prev = rng.normal(0.0, 0.1, anchors.shape) if temporal else None
        w_rows = np.repeat(rng.uniform(0, 1, len(ps)), ps.k + 1) if temporal else None
        systems = []
        for keep in (np.ones_like(same), ~same):
            graph = SparseGraph.from_edges(members.size, every[keep, 0], every[keep, 1],
                                           weights[keep])
            systems.append(oracles.build_system(u_hat, members, anchors, prev, w_rows,
                                                combinatorial_laplacian(graph), 0.5, 0.7))
        (a_all, b_all), (a_other, b_other) = systems
        assert rel_max_error(a_all, a_other) <= 1e-12
        assert rel_max_error(b_all, b_other) <= 1e-12

    @PROPERTY
    @given(spatial_instances())
    def test_objective_and_dsq_match_per_edge_sums(self, drawn):
        pts, ps, edges, rows, pair_weights, rng = drawn
        members = ps.members
        anchors = anchors_of(ps, pts)
        u = pts + rng.normal(0.0, 0.05, pts.shape)
        p = u[members.ravel()] - anchors
        gap = p[rows[:, 0]] - p[rows[:, 1]]
        per_edge = np.sum(gap * gap, axis=1)
        _, inverse = oracles.group_rows(rows, members)
        want_dsq = np.bincount(inverse, weights=per_edge, minlength=edges.points.shape[0])
        assert_sums_match(edges.residuals(u), want_dsq, u)
        got = objective(u, u, members, anchors, None, None, edges, pair_weights, 0.0, 1.0)
        assert_sums_match(got.spatial, np.sum(pair_weights[inverse] * per_edge), u)
        assert got.total == got.spatial


def magnitudes(rng, size, decades):
    """Signed values spread over ``decades`` powers of ten around 1, with exact +0.0
    and -0.0 among them."""
    out = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-decades / 2, decades / 2, size)
    zero = rng.random(size) < 0.15
    out[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return out


@st.composite
def csr_systems(draw):
    """An n x n matrix as shuffled (rows, cols, vals) entries, and a finite x.

    Every row holds at least one entry, the diagonal or a random column, and
    the off-diagonal part may be empty (no pairs); a clump row joins one
    point to every other. Values span either 2 decades, where the sum of a
    row depends on the order of its terms, or 200, where terms of one row
    differ by up to 1e200 yet no product or sum overflows.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    diagonal = draw(st.sampled_from(["all", "some", "none"]))
    mask[np.diag_indices(n)] = diagonal == "all" or (diagonal == "some" and rng.random(n) < 0.5)
    if draw(st.booleans()):
        mask[rng.integers(n)] = True
    empty = np.flatnonzero(~mask.any(axis=1))
    mask[empty, rng.integers(n, size=empty.size)] = True
    rows, cols = np.nonzero(mask)
    order = rng.permutation(rows.size)
    decades = draw(st.sampled_from([2.0, 200.0]))
    return (n, rows[order], cols[order], magnitudes(rng, rows.size, decades),
            magnitudes(rng, n, decades))


def summation_bound(n, rows, cols, vals, x):
    """Per row, 2 gamma_d sum_j |fl(a_ij x_j)| with gamma_d = d u / (1 - d u) and d the
    row's entry count: two sums of the same d rounded products, each added in
    any order, differ by at most this much."""
    u = 2.0 ** -53
    d = np.bincount(rows, minlength=n) * u
    magnitude = scipy.sparse.csr_matrix((np.abs(vals), (rows, cols)), shape=(n, n)) @ np.abs(x)
    return 2.0 * d / (1.0 - d) * magnitude


class TestCsrMatrix:
    """The sparse matrix of the point system and the Laplacians against scipy's CSR matrix."""

    @PROPERTY
    @given(csr_systems())
    def test_product_matches_scipy_csr_within_summation_bound(self, drawn):
        # Both an (n,) vector and an (n, 3) block, whose columns are bounded one by one.
        n, rows, cols, vals, x = drawn
        a = CsrMatrix.from_entries(n, rows, cols, vals)
        reference = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        assert a.shape == (n, n) and a.nnz == rows.size
        got = a @ x
        assert np.all(np.abs(got - reference @ x) <= summation_bound(n, rows, cols, vals, x))
        block = np.column_stack([x, x[::-1], -2.0 * x])
        got, want = a @ block, reference @ block
        assert got.shape == (n, 3)
        for col in range(3):
            bound = summation_bound(n, rows, cols, vals, block[:, col])
            assert np.all(np.abs(got[:, col] - want[:, col]) <= bound)

    @pytest.mark.parametrize("rows, cols, message", [
        ([0, 1, 0], [1, 1, 1], "duplicate entry"),
        ([0, 3], [0, 1], "out of range"),
        ([0, 1], [-1, 1], "out of range"),
    ])
    def test_rejects_bad_entries(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            CsrMatrix.from_entries(3, rows, cols, np.ones(len(rows)))

    def test_rejects_a_row_with_no_entry(self):
        # Row 1 is empty; np.add.reduceat would give it row 2's first term.
        with pytest.raises(ValueError, match="row with no entry"):
            CsrMatrix.from_entries(3, [0, 2, 2], [0, 0, 2], np.ones(3))

    def test_memory_is_linear_in_entries_on_a_clump_frame(self):
        # A ring frame whose point 0 also pairs with every other point: its
        # row holds n entries, over 10x the mean row degree. Traced from
        # before the system is built, the peak of a product holds the
        # matrix (16 B per entry for cols and vals, 8 B per row for starts),
        # the right-hand side and x (32 B per row), and the product's terms
        # (8 B per entry) and output (8 B per row): 24 B per entry and 48 B
        # per row, plus 4 KiB for the Python objects around them. Rows padded
        # to the clump row's width would need n * n * 16 B = 23 MB here,
        # about 25x that.
        n, reach = 1200, 12
        ring = np.column_stack([np.repeat(np.arange(n), reach),
                                (np.arange(n)[:, None] + np.arange(1, reach + 1)).ravel() % n])
        star = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
        points = np.unique(np.sort(np.concatenate([ring, star]), axis=1), axis=0)
        pairs = points.shape[0]
        rng = np.random.default_rng(11)
        edges = SpatialEdges(points=points, counts=rng.integers(1, 4, pairs),
                             offsets=rng.normal(0.0, 0.01, (pairs, 3)), spread=np.zeros(pairs))
        u_hat = rng.uniform(0.0, 1.0, (n, 3))
        entries = n + 2 * pairs
        assert n >= 10 * entries / n
        tracemalloc.start()
        try:
            a, b = _point_system(u_hat, np.arange(n)[:, None], u_hat, None, None, edges,
                                 rng.uniform(0.0, 1.0, pairs), 0.0, 0.5)
            x = b[:, 0].copy()
            tracemalloc.reset_peak()
            y = a @ x
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.nnz == entries
        assert peak <= 24 * entries + 48 * n + 4096
        want = scipy.sparse.csr_matrix(a.toarray()) @ x
        rows = np.repeat(np.arange(n), np.diff(np.append(a.starts, entries)))
        assert np.all(np.abs(y - want) <= summation_bound(n, rows, a.cols, a.vals, x))


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
    """Patches over few points, sorted distinct row edges between rows of
    distinct points, point features (unit normals) and positions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    size = draw(st.integers(1, n))
    m = draw(st.integers(1 if size > 1 else 2, 6))
    members = np.array([rng.permutation(n)[:size] for _ in range(m)])
    lo, hi = np.triu_indices(m * size, 1)
    keep = np.sort(rng.choice(lo.size, int(rng.integers(1, lo.size + 1)), replace=False))
    rows = np.column_stack([lo[keep], hi[keep]])
    flat = members.ravel()
    rows = rows[flat[rows[:, 0]] != flat[rows[:, 1]]]
    assume(rows.size)
    pts = rng.uniform(0.0, 1.0, (n, 3))
    if draw(st.booleans()):
        pts = np.round(pts * 2) / 2
    feats = unit_normals(rng, n)
    return members, rows, feats, pts, rng


def folded(rows, members, pts):
    """The oracle fold of arbitrary row edges, with each patch anchored at its first member."""
    anchors = np.repeat(pts[members[:, 0]], members.shape[1], axis=0)
    points, counts, offsets, spread = oracles.fold_rows(rows, members, anchors)
    return SpatialEdges(points=points, counts=counts, offsets=offsets, spread=spread), anchors


class TestPointPairs:
    @PROPERTY
    @given(row_edges())
    def test_pair_weights_equal_per_edge_weights(self, drawn):
        members, rows, feats, pts, _ = drawn
        edges, _ = folded(rows, members, pts)
        _, inverse = oracles.group_rows(rows, members)
        got = weighted_spatial_graph(edges, feats, 1.0)
        want = oracles.row_edge_weights(rows, feats[members.ravel()])
        assert got.shape == (edges.points.shape[0],)
        assert np.array_equal(rows[:, 0], want.edge_i)
        assert np.array_equal(rows[:, 1], want.edge_j)
        assert bits(got[inverse]) == bits(want.weights)

    @PROPERTY
    @given(row_edges(), st.sampled_from([1e-5, 1e-3]))
    def test_compressed_metric_learning_matches_per_edge(self, drawn, step):
        members, rows, feats, pts, _ = drawn
        edges, anchors = folded(rows, members, pts)
        row_feats = feats[members.ravel()]
        p = pts[members.ravel()] - anchors
        gap = p[rows[:, 0]] - p[rows[:, 1]]
        dsq = np.sum(gap * gap, axis=1)
        per_edge = learn_metric(row_feats[rows[:, 0]] - row_feats[rows[:, 1]], dsq, 5.0,
                                pg_step=step, pg_max_iters=20)
        residuals = edges.residuals(pts)
        assert_sums_match(residuals, np.bincount(oracles.group_rows(rows, members)[1],
                                                 weights=dsq), pts)
        pair_diffs = feats[edges.points[:, 0]] - feats[edges.points[:, 1]]
        compressed = learn_metric(pair_diffs, residuals, 5.0,
                                  pg_step=step, pg_max_iters=20)
        assert edges.points.shape[0] <= rows.shape[0]
        assert np.all(edges.points[:, 0] < edges.points[:, 1])
        assert_sums_match(compressed.objectives[-1], per_edge.objectives[-1], pts)
        assert np.max(np.abs(compressed.metric - per_edge.metric)) <= 1e-12


class TestFromEdges:
    @PROPERTY
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_unsorted_input_matches_sorted_input(self, n, seed):
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        keep = np.sort(rng.choice(lo.size, int(rng.integers(1, lo.size + 1)), replace=False))
        lo, hi = lo[keep], hi[keep]
        w = rng.uniform(0, 2, lo.size)
        ordered = SparseGraph.from_edges(n, lo, hi, w)
        order = rng.permutation(lo.size)
        swap = rng.random(lo.size) < 0.5
        i = np.where(swap, hi, lo)[order]
        j = np.where(swap, lo, hi)[order]
        slow = SparseGraph.from_edges(n, i, j, w[order])
        for a, b in ((ordered.edge_i, slow.edge_i), (ordered.edge_j, slow.edge_j)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert bits(ordered.weights) == bits(slow.weights) == bits(w)

    def test_graph_owns_its_weights(self):
        w = np.array([1.0, 2.0])
        graph = SparseGraph.from_edges(3, [0, 1], [1, 2], w)
        w[0] = 5.0
        assert graph.weights.tolist() == [1.0, 2.0]
        assert not graph.weights.flags.writeable

    @pytest.mark.parametrize("i, j", [([0, 0], [1, 1]), ([1, 0], [0, 1]), ([0, 2, 0], [1, 0, 1])])
    def test_duplicates_rejected_sorted_or_not(self, i, j):
        with pytest.raises(ValueError, match="duplicate edges"):
            SparseGraph.from_edges(3, i, j, np.ones(len(i)))
