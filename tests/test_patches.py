import re

import numpy as np
import pytest
from oracles import brute_knn, relative_coords

from dpcdenoise.geometry import MAX_COORDINATE, Frame, NeighborIndex, knn_rows
from dpcdenoise.patches import Patch, PatchSet, all_relative_coords, build_patches, patch_epsilon


class TestBuildPatches:
    def test_single_patch_covers_cloud(self):
        pts = np.random.default_rng(0).uniform(0, 1, (12, 3))
        ps = build_patches(Frame(pts), 1, 11, seed=4)
        assert len(ps) == 1
        assert sorted(ps.members[0].tolist()) == list(range(12))

    def test_members_match_brute_force_knn(self):
        pts = np.random.default_rng(1).uniform(0, 1, (60, 3))
        ps = build_patches(Frame(pts), 20, 7, seed=2)
        for row in ps.members:
            center = row[0]
            want = brute_knn(pts, pts[center], 7, exclude=center)
            assert row[1:].tolist() == want.tolist()

    def test_given_index_changes_nothing(self):
        # A neighbor table over the points gives the members a query of the
        # centers gives; a table that does not fit is rejected.
        pts = np.random.default_rng(3).uniform(0, 1, (60, 3))
        frame = Frame(pts)
        alone = build_patches(frame, 20, 7, seed=2)
        index = NeighborIndex.from_points(pts)
        shared = build_patches(frame, 20, 7, seed=2, neighbors=knn_rows(index, pts, 12))
        assert np.array_equal(alone.members, shared.members)
        for table in (knn_rows(index, pts, 7), knn_rows(index, pts[:59], 8)):
            with pytest.raises(ValueError, match="does not fit"):
                build_patches(frame, 20, 7, seed=2, neighbors=table)

    def test_every_point_a_center_needs_no_sampling(self, monkeypatch):
        # With as many patches as points, patch l is centered on point l.
        import dpcdenoise.patches as patches

        def sample(*args):
            raise AssertionError("farthest_point_sampling called")

        monkeypatch.setattr(patches, "farthest_point_sampling", sample)
        pts = np.random.default_rng(4).uniform(0, 1, (40, 3))
        ps = build_patches(Frame(pts), 40, 6, seed=3)
        assert np.array_equal(ps.center_indices, np.arange(40))
        for center, row in enumerate(ps.members):
            assert row[1:].tolist() == brute_knn(pts, pts[center], 6, exclude=center).tolist()

    def test_k_too_large(self):
        pts = np.random.default_rng(2).uniform(0, 1, (5, 3))
        with pytest.raises(ValueError):
            build_patches(Frame(pts), 2, 5, seed=0)

    def test_coordinates_whose_squares_overflow_are_rejected(self):
        # Near 1e160 squared distances overflow to inf, and every neighbor
        # would tie at an infinite distance.
        pts = np.random.default_rng(8).uniform(0, 1, (40, 3)) * 1e160
        with pytest.raises(ValueError, match=re.escape(f"at most {MAX_COORDINATE:g}")):
            build_patches(Frame(pts), 10, 4, seed=0)

    def test_coordinates_below_the_bound_build(self):
        pts = np.random.default_rng(8).uniform(0, 1, (40, 3))
        big = build_patches(Frame(pts * 1e150), 10, 4, seed=0)
        assert np.array_equal(big.members, build_patches(Frame(pts), 10, 4, seed=0).members)

    def test_centers_cover_cloud_like_greedy_oracle(self):
        # FPS greedy max-min: the coverage radius equals the oracle's.
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (150, 3))
        ps = build_patches(Frame(pts), 30, 5, seed=11)
        centers = ps.center_indices
        first = centers[0]
        chosen = [int(first)]
        min_sq = np.sum((pts - pts[first]) ** 2, axis=1)
        for _ in range(29):
            nxt = int(np.argmax(min_sq))
            chosen.append(nxt)
            min_sq = np.minimum(min_sq, np.sum((pts - pts[nxt]) ** 2, axis=1))
        assert centers.tolist() == chosen


class TestRelativeCoords:
    def test_row_zero_is_origin(self):
        pts = np.random.default_rng(4).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 5, 6, seed=1)
        assert np.array_equal(all_relative_coords(ps, pts)[:, 0], np.zeros((5, 3)))

    def test_translation_invariance(self):
        pts = np.random.default_rng(5).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 5, 6, seed=1)
        rel = all_relative_coords(ps, pts)
        rel_shift = all_relative_coords(ps, pts + np.array([5.0, -3.0, 2.0]))
        assert np.allclose(rel, rel_shift, atol=1e-12)

    def test_rotation_equivariance(self):
        pts = np.random.default_rng(6).uniform(0, 1, (30, 3))
        ps = build_patches(Frame(pts), 4, 5, seed=2)
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
        ps = PatchSet(members=np.array([[0, 1]]), k=1, frame=Frame(pts))
        assert np.array_equal(
            all_relative_coords(ps, pts), [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]
        )

    def test_all_relative_coords_matches_per_patch(self):
        pts = np.random.default_rng(7).uniform(0, 1, (40, 3))
        ps = build_patches(Frame(pts), 8, 5, seed=3)
        rel = all_relative_coords(ps, pts)
        for l in range(8):
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
