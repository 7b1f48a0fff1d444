import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_knn, random_rotation

import dpcdenoise.geometry as geometry
from dpcdenoise.geometry import (
    MAX_COORDINATE,
    Frame,
    Sequence,
    _orient,
    estimate_normals,
    knn_rows,
    without,
)


def knn_except(pts, queries, k, exclude=None):
    """``knn_rows``, leaving out each row's stored point ``exclude`` if given."""
    if exclude is None:
        return knn_rows(pts, queries, k)
    return without(knn_rows(pts, queries, k + 1), exclude)


def nearest(pts, query, k, exclude=None):
    """knn_rows for one query row, leaving out stored point ``exclude`` if given."""
    rows = np.asarray(query, dtype=np.float64).reshape(1, 3)
    return knn_except(pts, rows, k, None if exclude is None else [exclude])[0]


def orient(frame, k_plane):
    """The frame's normals passed through _orient over the rows estimate_normals fits."""
    return _orient(frame.normals, knn_rows(frame.positions, frame.positions, k_plane + 1))


def random_cloud(n, seed, scale=1.0):
    return np.random.default_rng(seed).uniform(0, scale, (n, 3))


class TestFrame:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Frame(np.empty((0, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Frame([[0.0, 0.0, np.nan]])

    def test_rejects_non_unit_normals(self):
        with pytest.raises(ValueError, match="unit"):
            Frame([[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 2.0]])

    def test_positions_read_only(self):
        f = Frame([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            f.positions[0, 0] = 5.0

    def test_frame_owns_its_arrays(self):
        # The caller's arrays stay writable, and later writes to them, or to
        # the base of a slice, do not reach the frame.
        rng = np.random.default_rng(0)
        pts = rng.random((10, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (10, 1))
        kept = pts.copy()
        f = Frame(pts, nrm)
        pts[0] = 1.0
        nrm[0] = (1.0, 0.0, 0.0)
        assert np.array_equal(f.positions, kept)
        assert f.normals[0].tolist() == [0.0, 0.0, 1.0]
        big = rng.random((20, 3))
        f = Frame(big[5:15])
        kept = big[5:15].copy()
        big[5] = 7.0
        assert np.array_equal(f.positions, kept)
        assert not f.positions.flags.writeable

    def test_sequence_requires_increasing_indices(self):
        a = Frame([[0.0, 0.0, 0.0]], frame_index=1)
        b = Frame([[1.0, 0.0, 0.0]], frame_index=1)
        with pytest.raises(ValueError, match="increasing"):
            Sequence((a, b))


class TestKnn:
    def test_singleton_cloud_has_no_neighbors(self):
        with pytest.raises(ValueError, match="k too large"):
            nearest(np.zeros((1, 3)), [0.0, 0.0, 0.0], 1, exclude=0)

    def test_query_at_existing_point_includes_it(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert nearest(pts, [0.0, 0.0, 0.0], 1).tolist() == [0]

    def test_collinear_example(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert nearest(pts, pts[2], 1, exclude=2).tolist() == [1]

    def test_tie_break_unit_square(self):
        corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        # (1,0,0) and (0,1,0) tie at distance 1; the lower index wins.
        assert nearest(corners, [0.0, 0.0, 0.0], 2).tolist() == [0, 1]
        assert nearest(corners, [0.0, 0.0, 0.0], 3).tolist() == [0, 1, 2]

    def test_k_equals_n_returns_all_sorted(self):
        pts = random_cloud(20, 3)
        q = np.array([0.5, 0.5, 0.5])
        assert nearest(pts, q, 20).tolist() == brute_knn(pts, q, 20).tolist()

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(2, 120))
            pts = rng.uniform(-1, 1, (n, 3))
            q = rng.uniform(-1, 1, 3)
            k = int(rng.integers(1, n + 1))
            assert nearest(pts, q, k).tolist() == brute_knn(pts, q, k).tolist()

    def test_matches_brute_force_with_exact_ties(self):
        # Grid points produce many exactly equal distances.
        g = np.arange(4, dtype=float)
        pts = np.array([(x, y, z) for x in g for y in g for z in g])
        for qi in (0, 21, 37, 63):
            for k in (1, 5, 17):
                got = nearest(pts, pts[qi], k, exclude=qi)
                want = brute_knn(pts, pts[qi], k, exclude=qi)
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("points, query", [
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]], [3.0, 1.0, 0.0]),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [np.nan, 0.0, 0.0]),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [np.inf, 0.0, 0.0]),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1e200, 0.0, 0.0]),
    ])
    def test_rejects_nonfinite_or_out_of_range_coordinates(self, points, query):
        # A NaN distance ranks anywhere, and at 1e200 both squared distances
        # overflow to inf and tie, so point 0 would rank before the nearer point 1.
        with pytest.raises(ValueError, match=re.escape(f"at most {MAX_COORDINATE:g}")):
            knn_rows(np.array(points), np.array([query]), 1)

    def test_knn_per_point_against_brute_force_500(self):
        pts = random_cloud(500, 7)
        rows = np.arange(0, 500, 37)
        got = knn_except(pts, pts[rows], 5, rows)
        for r, i in enumerate(rows):
            assert got[r].tolist() == brute_knn(pts, pts[i], 5, exclude=i).tolist()

def brute_rows(pts, queries, k, exclude=None):
    rows = [brute_knn(pts, q, k, None if exclude is None else exclude[r])
            for r, q in enumerate(queries)]
    return np.array(rows, dtype=np.int64).reshape(len(queries), k)


@st.composite
def hostile_clouds(draw):
    """Clouds that stress a cell grid, at scales where squares underflow or nearly overflow."""
    kind = draw(st.sampled_from(["uniform", "duplicates", "voxel", "clump", "collinear", "coplanar"]))
    n = draw(st.integers(2, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    if kind == "duplicates":
        pts = pts[rng.integers(0, max(1, n // 4), n)]
    elif kind == "voxel":
        pts = np.round(pts * 4) / 4
    elif kind == "clump":
        # A dense clump in one cell, plus far outliers.
        far = rng.random(n) < 0.1
        pts[~far] = pts[0] + rng.uniform(0.0, 1e-6, (int(np.sum(~far)), 3))
        pts[far] *= 1e4
    elif kind == "collinear":
        pts = np.outer(rng.uniform(-1.0, 1.0, n), rng.normal(size=3)) + rng.normal(size=3)
    elif kind == "coplanar":
        pts[:, 1] = 0.25
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-170, 1e148]))
    return pts * scale, rng


class TestGridKnn:
    """knn_rows against the brute-force oracle with small query budgets.

    A small ``QUERY_BUDGET`` sends even these clouds through the cell grid,
    in blocks down to one row, and through every doubling of the cell edge.
    """

    @settings(max_examples=150, deadline=None)
    @given(hostile_clouds(), st.integers(1, 40), st.booleans(), st.sampled_from([16, 256, 1 << 16]))
    def test_matches_brute_force(self, cloud, k, stored, budget):
        pts, rng = cloud
        n = len(pts)
        if stored:
            exclude = rng.choice(n, size=min(n, 10), replace=False)
            queries, k = pts[exclude], min(k, n - 1)
        else:
            exclude, k = None, min(k, n)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            reach = np.max(hi - lo) + np.max(np.abs(pts))
            # Around the cloud, and far outside its bounding box, up to the
            # largest coordinate knn_rows accepts.
            queries = np.clip(np.vstack([rng.uniform(lo - reach, hi + reach, (6, 3)),
                                         pts[:2] + 100.0 * reach, lo - 1e3 * reach]),
                              -MAX_COORDINATE, MAX_COORDINATE)
        # Within that bound no squared distance overflows, at scale 1e148 too.
        with mock.patch.object(geometry, "QUERY_BUDGET", budget), np.errstate(over="raise"):
            got = knn_except(pts, queries, k, exclude)
            want = brute_rows(pts, queries, k, exclude)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("budget", [16, 1 << 16])
    def test_k_equals_n(self, budget):
        pts = np.round(random_cloud(200, 4) * 3) / 3
        queries = np.vstack([pts[:5], random_cloud(5, 5, 3.0)])
        with mock.patch.object(geometry, "QUERY_BUDGET", budget):
            got = knn_rows(pts, queries, 200)
        assert got.tolist() == brute_rows(pts, queries, 200).tolist()

    @pytest.mark.parametrize("budget", [16, 1 << 16])
    def test_equal_roots_of_unequal_squares_rank_by_index(self, budget):
        # The squared distances 1 + 2**-52 and 1 differ, but both roots round
        # to 1.0: the distances tie, so point 0, whose square is larger, comes
        # first. Ranking by squares would put point 1 first.
        pts = np.vstack([[1.0, 2.0**-26, 0.0], [1.0, 0.0, 0.0], random_cloud(300, 6) + 2.0])
        query = np.zeros((1, 3))
        assert brute_knn(pts, query[0], 2).tolist() == [0, 1]
        with mock.patch.object(geometry, "QUERY_BUDGET", budget):
            assert knn_rows(pts, query, 1).tolist() == [[0]]
            assert knn_rows(pts, query, 3).tolist() == [brute_knn(pts, query[0], 3).tolist()]

    def test_squares_that_underflow_rank_by_index(self):
        # Gaps near 1e-170 square to zero, so every distance is 0 and rows
        # follow the point index, however far apart the cells are.
        pts = random_cloud(300, 7, 1e-170)
        rows = np.arange(0, 300, 29)
        with mock.patch.object(geometry, "QUERY_BUDGET", 16):
            got = knn_except(pts, pts[rows], 5, rows)
        assert got.tolist() == brute_rows(pts, pts[rows], 5, rows).tolist()

    def test_crowded_cell_keeps_blocks_bounded(self):
        # Half the points share one tiny clump, so each of their rows has
        # over 3000 candidates: one block of every row would hold 6000 x 3000
        # squared distances (144 MB). Rows per block shrink with the
        # candidates instead.
        rng = np.random.default_rng(9)
        pts = np.vstack([rng.uniform(0.0, 1e-6, (3000, 3)), rng.uniform(0.0, 1.0, (3000, 3))])
        tracemalloc.start()
        try:
            rows = knn_rows(pts, pts, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 8 * 2**20
        for r in (0, 1, 2999, 3000, 5999):
            assert rows[r].tolist() == brute_knn(pts, pts[r], 8).tolist()


class TestEstimateNormals:
    def test_plane_gives_unit_z(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 1, (100, 2)), np.zeros(100)])
        out, degenerate = estimate_normals(Frame(pts), 10)
        assert degenerate == 0
        assert np.allclose(np.abs(out.normals[:, 2]), 1.0, atol=1e-9)

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(6000, 3))
        pts = 2.0 * v / np.linalg.norm(v, axis=1, keepdims=True)
        out, _ = estimate_normals(Frame(pts), 12)
        radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cos = np.abs(np.einsum("ij,ij->i", out.normals, radial))
        assert np.all(cos >= np.cos(np.deg2rad(5.0)))

    def test_k_plane_too_small(self):
        with pytest.raises(ValueError, match="k_plane"):
            estimate_normals(Frame(random_cloud(10, 2)), 2)

    def test_degenerate_line_falls_back_to_up(self):
        pts = np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)])
        out, degenerate = estimate_normals(Frame(pts), 4)
        assert degenerate == 10
        assert np.allclose(out.normals, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("grid", [0, 3])
    def test_shared_index_and_orientation_rows(self, grid):
        # The fit's neighbor rows also orient the normals: orienting the result
        # again over the same rows changes nothing, with or without a given
        # neighbor table, of which only the first k_plane + 1 columns count.
        pts = random_cloud(80, 6)
        if grid:
            pts = np.round(pts * grid) / grid + random_cloud(80, 7, 1e-3)
        frame = Frame(pts)
        alone, degenerate = estimate_normals(frame, 8)
        table = knn_rows(pts, pts, 13)
        shared, shared_degenerate = estimate_normals(frame, 8, table)
        assert degenerate == shared_degenerate
        assert np.array_equal(alone.normals, shared.normals)
        assert np.array_equal(orient(alone, 8), alone.normals)

    def test_neighbor_table_of_other_shape_rejected(self):
        pts = random_cloud(20, 8)
        frame = Frame(pts)
        for table in (knn_rows(pts, pts, 6), knn_rows(pts, pts[:19], 7)):
            with pytest.raises(ValueError, match="does not fit"):
                estimate_normals(frame, 6, table)


class TestOrientNormals:
    def test_plane_all_up(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(0, 1, (50, 2)), np.zeros(50)])
        signs = rng.choice([-1.0, 1.0], size=50)
        normals = np.column_stack([np.zeros(50), np.zeros(50), signs])
        out = orient(Frame(pts, normals), 8)
        assert np.array_equal(out, np.tile((0.0, 0.0, 1.0), (50, 1)))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, (60, 3))
        frame, _ = estimate_normals(Frame(pts), 8)
        once = frame.with_normals(orient(frame, 8))
        assert np.array_equal(orient(once, 8), once.normals)

    def test_invariant_to_input_sign_flips(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, (80, 3))
        frame, _ = estimate_normals(Frame(pts), 8)
        flips = rng.choice([-1.0, 1.0], size=(80, 1))
        flipped = Frame(pts, frame.normals * flips)
        assert np.array_equal(orient(frame, 8), orient(flipped, 8))

    def test_noisy_plane_across_z_gets_one_sign(self):
        # The plane x = 0 has normals +-x. A rule that signs each normal by
        # its n_z, which here is noise, would split them.
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.normal(0.0, 0.01, 300), rng.uniform(0, 1, (300, 2))])
        frame, _ = estimate_normals(Frame(pts), 8)
        signs = np.sign(frame.normals[:, 0])
        assert np.all(signs == signs[0])

    def test_turning_the_normals_turns_the_result(self):
        # A flattened cloud with randomly signed normals: orienting turned
        # normals gives the turned orientation exactly, up to one sign for
        # the whole frame, which the frame's axis may take either way.
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, (200, 3)) * (1.0, 1.0, 0.2)
        frame, _ = estimate_normals(Frame(pts), 8)
        normals = frame.normals * rng.choice([-1.0, 1.0], size=(200, 1))
        nbr = knn_rows(pts, pts, 9)
        for _ in range(5):
            turn = random_rotation(rng)
            got = _orient(normals @ turn.T, nbr)
            want = _orient(normals, nbr) @ turn.T
            assert np.array_equal(got, want) or np.array_equal(got, -want)
