import re

import numpy as np
import pytest
from oracles import brute_knn, relative_coords

from dpcdenoise.geometry import MAX_COORDINATE, Frame, NeighborIndex, knn_rows
from dpcdenoise.patches import Patch, PatchSet, all_relative_coords, build_patches, patch_epsilon


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
        index = NeighborIndex.from_points(pts)
        shared = build_patches(frame, 7, neighbors=knn_rows(index, pts, 12))
        assert np.array_equal(alone.members, shared.members)
        for table in (knn_rows(index, pts, 7), knn_rows(index, pts[:59], 8)):
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


class TestRelativeCoords:
    def test_row_zero_is_origin(self):
        pts = np.random.default_rng(4).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 6)
        assert np.array_equal(all_relative_coords(ps, pts)[:, 0], np.zeros((30, 3)))

    def test_translation_invariance(self):
        pts = np.random.default_rng(5).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 6)
        rel = all_relative_coords(ps, pts)
        rel_shift = all_relative_coords(ps, pts + np.array([5.0, -3.0, 2.0]))
        assert np.allclose(rel, rel_shift, atol=1e-12)

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
        rel = all_relative_coords(ps, pts)
        rel_rot = all_relative_coords(ps, pts @ rot.T)
        assert np.allclose(rel_rot, rel @ rot.T, atol=1e-12)

    def test_two_point_example(self):
        pts = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        ps = PatchSet(members=np.array([[0, 1], [1, 0]]), k=1, frame=Frame(pts))
        assert np.array_equal(
            all_relative_coords(ps, pts),
            [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]],
        )

    def test_all_relative_coords_matches_per_patch(self):
        pts = np.random.default_rng(7).uniform(0, 1, (40, 3))
        ps = build_patches(Frame(pts), 5)
        rel = all_relative_coords(ps, pts)
        for l in range(40):
            assert np.array_equal(rel[l], relative_coords(ps.patch(l), pts))


class TestPatchEpsilon:
    def test_two_points(self):
        patch = Patch(0, np.array([0, 1]))
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert patch_epsilon(patch, pts, 5.0) == pytest.approx(5.0)

    def test_regular_grid(self):
        h = 0.2
        pts = np.column_stack([np.arange(6) * h, np.zeros(6), np.zeros(6)])
        patch = Patch(0, np.arange(6))
        assert patch_epsilon(patch, pts, 5.0) == pytest.approx(5.0 * h)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, (25, 3))
        patch = Patch(3, np.concatenate([[3], np.setdiff1d(np.arange(25), [3])[:10]]))
        sub = pts[patch.member_indices]
        d = np.sqrt(np.sum((sub[:, None] - sub[None]) ** 2, axis=2))
        np.fill_diagonal(d, np.inf)
        want = 5.0 * np.mean(d.min(axis=1))
        assert patch_epsilon(patch, pts, 5.0) == pytest.approx(want, abs=1e-12)

    def test_needs_two_members(self):
        patch = Patch(0, np.array([0]))
        with pytest.raises(ValueError, match="two members"):
            patch_epsilon(patch, np.zeros((1, 3)), 5.0)


class TestPatchInvariants:
    def test_center_is_member_zero(self):
        with pytest.raises(ValueError, match="center"):
            Patch(1, np.array([0, 1]))

    def test_no_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Patch(0, np.array([0, 1, 1]))

    def test_patch_l_is_centered_on_point_l(self):
        pts = np.random.default_rng(9).uniform(0, 1, (3, 3))
        PatchSet(members=np.array([[0, 1], [1, 0], [2, 1]]), k=1, frame=Frame(pts))
        for members in ([[0, 1], [2, 0], [1, 0]], [[0, 1], [1, 0]]):
            with pytest.raises(ValueError, match="patch l must be centered on point l"):
                PatchSet(members=np.array(members), k=1, frame=Frame(pts))
