import re

import numpy as np
import pytest
from oracles import brute_knn, relative_coords

from dpcdenoise.geometry import MAX_COORDINATE, Frame, knn_rows
from dpcdenoise.patches import PatchSet, build_patches, patch_epsilons, sq_dists


class TestBuildPatches:
    def test_single_patch_covers_cloud(self):
        # At k = n - 1 every patch holds the whole cloud, its center first.
        pts = np.random.default_rng(0).uniform(0, 1, (12, 3))
        ps = build_patches(Frame(pts), 11)
        assert len(ps) == 12
        for center, row in enumerate(ps.members):
            assert row[0] == center
            assert sorted(row.tolist()) == list(range(12))

    def test_members_match_brute_force_knn(self):
        pts = np.random.default_rng(1).uniform(0, 1, (60, 3))
        ps = build_patches(Frame(pts), 7)
        for row in ps.members:
            center = row[0]
            want = brute_knn(pts, pts[center], 7, exclude=center)
            assert row[1:].tolist() == want.tolist()

    def test_given_index_changes_nothing(self):
        # A neighbor table over the points gives the members a query of the
        # points gives; a table that does not fit is rejected.
        pts = np.random.default_rng(3).uniform(0, 1, (60, 3))
        frame = Frame(pts)
        alone = build_patches(frame, 7)
        shared = build_patches(frame, 7, neighbors=knn_rows(pts, pts, 12))
        assert np.array_equal(alone.members, shared.members)
        for table in (knn_rows(pts, pts, 7), knn_rows(pts, pts[:59], 8)):
            with pytest.raises(ValueError, match="does not fit"):
                build_patches(frame, 7, neighbors=table)

    def test_every_point_a_center_needs_no_sampling(self):
        # Patch l is centered on point l: there are as many patches as points.
        pts = np.random.default_rng(4).uniform(0, 1, (40, 3))
        ps = build_patches(Frame(pts), 6)
        assert np.array_equal(ps.members[:, 0], np.arange(40))
        for center, row in enumerate(ps.members):
            assert row[1:].tolist() == brute_knn(pts, pts[center], 6, exclude=center).tolist()

    def test_k_too_large(self):
        pts = np.random.default_rng(2).uniform(0, 1, (5, 3))
        with pytest.raises(ValueError):
            build_patches(Frame(pts), 5)

    def test_coordinates_whose_squares_overflow_are_rejected(self):
        # Near 1e160 squared distances overflow to inf, and every neighbor
        # would tie at an infinite distance.
        pts = np.random.default_rng(8).uniform(0, 1, (40, 3)) * 1e160
        with pytest.raises(ValueError, match=re.escape(f"at most {MAX_COORDINATE:g}")):
            build_patches(Frame(pts), 4)

    def test_coordinates_below_the_bound_build(self):
        pts = np.random.default_rng(8).uniform(0, 1, (40, 3))
        big = build_patches(Frame(pts * 1e150), 4)
        assert np.array_equal(big.members, build_patches(Frame(pts), 4).members)


def moved(ps, positions):
    """The patch set ``ps`` with its members over a frame of other positions."""
    return PatchSet(members=ps.members, k=ps.k, frame=Frame(positions))


class TestRelativeCoords:
    def test_row_zero_is_origin(self):
        pts = np.random.default_rng(4).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 6)
        assert np.array_equal(ps.rel[:, 0], np.zeros((30, 3)))

    def test_rel_is_read_only_and_gathered_from_the_frame(self):
        pts = np.random.default_rng(3).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 6)
        assert ps.rel.shape == (30, 7, 3) and not ps.rel.flags.writeable
        want = pts[ps.members] - pts[ps.members[:, :1]]
        assert ps.rel.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            ps.rel[0, 1] = 0.0

    def test_translation_invariance(self):
        pts = np.random.default_rng(5).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 6)
        rel_shift = moved(ps, pts + np.array([5.0, -3.0, 2.0])).rel
        assert np.allclose(ps.rel, rel_shift, atol=1e-12)

    def test_rotation_equivariance(self):
        pts = np.random.default_rng(6).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 5)
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        rel_rot = moved(ps, pts @ rot.T).rel
        assert np.allclose(rel_rot, ps.rel @ rot.T, atol=1e-12)

    def test_two_point_example(self):
        pts = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        ps = PatchSet(members=np.array([[0, 1], [1, 0]]), k=1, frame=Frame(pts))
        assert np.array_equal(
            ps.rel,
            [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]],
        )

    def test_rel_matches_per_patch(self):
        pts = np.random.default_rng(7).uniform(0, 1, (40, 3))
        ps = build_patches(Frame(pts), 5)
        for l in range(40):
            assert np.array_equal(ps.rel[l], relative_coords(ps.members[l], pts))


def epsilon(points, c):
    """The graph radius of one patch of the (s, 3) member ``points``."""
    return float(patch_epsilons(np.sqrt(sq_dists(points, points))[None], c)[0])


class TestPatchEpsilon:
    def test_two_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert epsilon(pts, 5.0) == pytest.approx(5.0)

    def test_regular_grid(self):
        h = 0.2
        pts = np.column_stack([np.arange(6) * h, np.zeros(6), np.zeros(6)])
        assert epsilon(pts, 5.0) == pytest.approx(5.0 * h)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, (25, 3))
        sub = pts[np.concatenate([[3], np.setdiff1d(np.arange(25), [3])[:10]])]
        d = np.sqrt(np.sum((sub[:, None] - sub[None]) ** 2, axis=2))
        np.fill_diagonal(d, np.inf)
        want = 5.0 * np.mean(d.min(axis=1))
        assert epsilon(sub, 5.0) == pytest.approx(want, abs=1e-12)


class TestPatchInvariants:
    def test_patch_l_is_centered_on_point_l(self):
        pts = np.random.default_rng(9).uniform(0, 1, (3, 3))
        PatchSet(members=np.array([[0, 1], [1, 0], [2, 1]]), k=1, frame=Frame(pts))
        for members in ([[0, 1], [2, 0], [1, 0]], [[0, 1], [1, 0]]):
            with pytest.raises(ValueError, match="patch l must be centered on point l"):
                PatchSet(members=np.array(members), k=1, frame=Frame(pts))

    def test_a_repeated_member_is_rejected(self):
        # A repeat would stand at distance 0 from itself, and patch_epsilons
        # would take that as its patch's nearest-member distance.
        pts = np.random.default_rng(9).uniform(0, 1, (3, 3))
        PatchSet(members=np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]]), k=2, frame=Frame(pts))
        with pytest.raises(ValueError, match="a patch holds a member twice"):
            PatchSet(members=np.array([[0, 1, 1], [1, 0, 0], [2, 1, 1]]), k=2, frame=Frame(pts))
