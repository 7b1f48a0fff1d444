import math

import numpy as np
import pytest
from oracles import sample_gaussian_bump

from dpcdenoise.geometry import Frame
from dpcdenoise.metrics import add_gaussian_noise, gpsnr, mse_index, mse_nn
from dpcdenoise.synthetic import SyntheticSpec, generate_sequence


def random_frame(n, seed, scale=1.0):
    return Frame(np.random.default_rng(seed).uniform(0, scale, (n, 3)))


class TestAddGaussianNoise:
    def test_sigma_zero_identity(self):
        f = random_frame(20, 0)
        out = add_gaussian_noise(f, 0.0, seed=1)
        assert np.array_equal(out.positions, f.positions)

    def test_drops_normals(self):
        f = Frame([[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 1.0]])
        assert add_gaussian_noise(f, 0.1, seed=0).normals is None

    def test_deterministic_per_seed(self):
        f = random_frame(50, 2)
        a = add_gaussian_noise(f, 0.1, seed=9)
        b = add_gaussian_noise(f, 0.1, seed=9)
        assert np.array_equal(a.positions, b.positions)

    def test_empirical_std_sigma_02(self):
        f = random_frame(10_000, 3)
        out = add_gaussian_noise(f, 0.2, seed=4)
        delta = out.positions - f.positions
        for axis in range(3):
            assert 0.19 <= np.std(delta[:, axis]) <= 0.21

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            add_gaussian_noise(random_frame(3, 5), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        # nan fails both sigma < 0 and sigma > 0, so an unchecked nan adds no noise.
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            add_gaussian_noise(random_frame(3, 5), sigma, seed=0)


class TestMseNn:
    def test_identical_zero(self):
        f = random_frame(30, 6)
        assert mse_nn(f, f) == 0.0

    def test_two_single_points(self):
        a = Frame([[0.0, 0.0, 0.0]])
        b = Frame([[2.0, 0.0, 0.0]])
        assert mse_nn(a, b) == pytest.approx(4.0)

    def test_symmetric(self):
        a, b = random_frame(40, 7), random_frame(35, 8)
        assert mse_nn(a, b) == pytest.approx(mse_nn(b, a), rel=1e-15)

    def test_matches_brute_force(self):
        a, b = random_frame(25, 9), random_frame(30, 10)
        d_ab = np.min(
            np.sum((a.positions[:, None] - b.positions[None]) ** 2, axis=2), axis=1
        )
        d_ba = np.min(
            np.sum((b.positions[:, None] - a.positions[None]) ** 2, axis=2), axis=1
        )
        want = 0.5 * (d_ab.mean() + d_ba.mean())
        assert mse_nn(a, b) == pytest.approx(want, rel=1e-12)


class TestMseIndex:
    def test_identical_zero(self):
        f = random_frame(10, 11)
        assert mse_index(f, f) == 0.0

    def test_single_offset_point(self):
        pts = np.zeros((4, 3))
        pts[:, 0] = np.arange(4) * 10.0
        shifted = pts.copy()
        shifted[2] += (1.0, 0.0, 0.0)
        assert mse_index(Frame(pts), Frame(shifted)) == pytest.approx(1.0 / 4.0)

    def test_matches_mse_nn_when_well_separated(self):
        pts = np.zeros((5, 3))
        pts[:, 0] = np.arange(5) * 100.0
        jitter = np.random.default_rng(12).normal(0, 0.01, (5, 3))
        a, b = Frame(pts), Frame(pts + jitter)
        assert mse_index(a, b) == pytest.approx(mse_nn(a, b), rel=1e-12)

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="cardinality"):
            mse_index(random_frame(3, 13), random_frame(4, 14))


class TestGpsnr:
    def _plane(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(0, 1, (n, 2)), np.zeros(n)])
        normals = np.tile((0.0, 0.0, 1.0), (n, 1))
        return Frame(pts, normals)

    def test_identical_is_infinite(self):
        ref = self._plane(50, 0)
        assert gpsnr(Frame(ref.positions), ref) == math.inf

    def test_normal_offset_analytic(self):
        ref = self._plane(200, 1)
        delta = 0.05
        test = Frame(ref.positions + np.array([0.0, 0.0, delta]))
        want = 10.0 * math.log10(25.0 / delta**2)
        assert gpsnr(test, ref, peak=5.0) == pytest.approx(want, rel=1e-12)

    def test_tangential_offset_scores_higher(self):
        ref = self._plane(2000, 2)
        shift = 0.05
        tangential = Frame(ref.positions + np.array([shift, 0.0, 0.0]))
        normal = Frame(ref.positions + np.array([0.0, 0.0, shift]))
        assert gpsnr(tangential, ref) > gpsnr(normal, ref) + 20.0

    def test_translation_invariance_of_pair(self):
        ref = self._plane(100, 3)
        test = Frame(ref.positions + np.random.default_rng(4).normal(0, 0.01, (100, 3)))
        t = np.array([3.0, -2.0, 7.0])
        moved_ref = Frame(ref.positions + t, ref.normals)
        moved_test = Frame(test.positions + t)
        assert gpsnr(test, ref) == pytest.approx(gpsnr(moved_test, moved_ref), rel=1e-9)

    def test_requires_reference_normals(self):
        with pytest.raises(ValueError, match="normals"):
            gpsnr(random_frame(5, 5), random_frame(5, 6))

    @pytest.mark.parametrize("peak", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_peak_that_is_not_finite_and_positive(self, peak):
        ref = self._plane(50, 5)
        with pytest.raises(ValueError, match="peak must be finite and > 0"):
            gpsnr(Frame(ref.positions + 0.01), ref, peak)


class TestGenerateSequence:
    def test_plane_normals_are_up(self):
        seq = generate_sequence(SyntheticSpec("plane", 50, 3, amplitude=0.2, phase_step=0.3, seed=1))
        for frame in seq:
            assert np.array_equal(frame.normals, np.tile((0.0, 0.0, 1.0), (50, 1)))

    def test_zero_amplitude_same_surface_different_samples(self):
        seq = generate_sequence(SyntheticSpec("sinusoid-sheet", 100, 2, amplitude=0.0, phase_step=0.5, seed=2))
        a, b = seq.frames
        assert not np.array_equal(a.positions, b.positions)
        assert np.allclose(a.positions[:, 2], 0.0)
        assert np.allclose(b.positions[:, 2], 0.0)

    def test_sphere_cap_normals_radial(self):
        seq = generate_sequence(SyntheticSpec("sphere-cap", 200, 1, amplitude=0.0, seed=3))
        f = seq.frames[0]
        radial = f.positions / np.linalg.norm(f.positions, axis=1, keepdims=True)
        assert np.allclose(f.normals, radial, atol=1e-12)

    def test_bit_reproducible(self):
        spec = SyntheticSpec("sinusoid-sheet", 64, 3, amplitude=0.1, phase_step=0.2, seed=4)
        a = generate_sequence(spec)
        b = generate_sequence(spec)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.positions, fb.positions)
            assert np.array_equal(fa.normals, fb.normals)

    def test_sinusoid_normals_match_gradient(self):
        spec = SyntheticSpec("sinusoid-sheet", 500, 1, amplitude=0.2, phase_step=0.0, seed=5)
        f = generate_sequence(spec).frames[0]
        x, y = f.positions[:, 0], f.positions[:, 1]
        dzdx = 0.2 * 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
        dzdy = 0.2 * 2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        n = np.column_stack([-dzdx, -dzdy, np.ones_like(x)])
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        assert np.allclose(f.normals, n, atol=1e-12)


class TestGaussianBump:
    def test_zero_height_is_plane(self):
        pts, normals = sample_gaussian_bump(100, 0.0, seed=1)
        assert np.allclose(pts[:, 2], 0.0)
        assert np.allclose(normals, [0.0, 0.0, 1.0])

    def test_normals_match_analytic_gradient(self):
        h, w = 0.8, 0.3
        pts, normals = sample_gaussian_bump(200, h, width=w, seed=2)
        x, y = pts[:, 0], pts[:, 1]
        bell = np.exp(-(x**2 + y**2) / (2 * w**2))
        grad = np.column_stack([x * h * bell / w**2, y * h * bell / w**2, np.ones_like(x)])
        grad /= np.linalg.norm(grad, axis=1, keepdims=True)
        assert np.allclose(normals, grad, atol=1e-12)

    def test_deterministic(self):
        a = sample_gaussian_bump(50, 0.5, seed=3)
        b = sample_gaussian_bump(50, 0.5, seed=3)
        assert np.array_equal(a[0], b[0])
