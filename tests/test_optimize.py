import numpy as np
import pytest
from oracles import build_system, lp_oracle, random_solve_instance

from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame, estimate_normals
from dpcdenoise.graph import combinatorial_laplacian
from dpcdenoise.optimize import (
    SolverError,
    denoise_frame,
    denoise_sequence,
    learn_metric,
    metric_gradient,
    metric_objective,
    objective,
    project_metric_factor,
    solve_point_cloud,
    solve_temporal_weights,
)
from dpcdenoise.stgraph import initial_spatial_weights, row_features, spatial_connectivity
from dpcdenoise.synthetic import SyntheticSpec, generate_sequence


random_instance = random_solve_instance


class TestObjective:
    def test_zero_when_u_equals_uhat_and_lambdas_zero(self):
        rng = np.random.default_rng(0)
        pts, members, anchors, prev, w, lap = random_instance(rng, 20)
        out = objective(pts, pts, members, anchors, prev, w, lap, 0.0, 0.0)
        assert out.fidelity == 0.0
        assert out.total == 0.0

    def test_zero_weights_kill_temporal_term(self):
        rng = np.random.default_rng(1)
        pts, members, anchors, prev, w, lap = random_instance(rng, 20)
        out = objective(pts, pts + 0.1, members, anchors, prev, np.zeros_like(w), lap, 3.0, 0.0)
        assert out.temporal == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(12, 30))
            pts, members, anchors, prev, w, lap = random_instance(rng, n)
            u = pts + rng.normal(0, 0.05, pts.shape)
            lam1, lam2 = rng.uniform(0, 2, 2)
            got = objective(u, pts, members, anchors, prev, w, lap, lam1, lam2)
            p = u[members.ravel()] - anchors
            fid = np.sum((u - pts) ** 2)
            temporal = np.sum(w * np.sum((p - prev) ** 2, axis=1))
            spatial = np.trace(p.T @ lap.toarray() @ p)
            assert got.fidelity == pytest.approx(fid, rel=1e-12)
            assert got.temporal == pytest.approx(temporal, rel=1e-12)
            assert got.spatial == pytest.approx(spatial, rel=1e-9)
            assert got.total == pytest.approx(fid + lam1 * temporal + lam2 * spatial, rel=1e-9)


class TestSolvePointCloud:
    def test_zero_lambdas_bit_exact_identity(self):
        rng = np.random.default_rng(3)
        pts, members, anchors, prev, w, lap = random_instance(rng, 25)
        out = solve_point_cloud(pts, members, anchors, prev, w, lap, 0.0, 0.0)
        assert np.array_equal(out, pts)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n = int(rng.integers(10, 61))
            pts, members, anchors, prev, w, lap = random_instance(rng, n)
            u_hat = pts + rng.normal(0, 0.05, pts.shape)
            lam1, lam2 = rng.uniform(0.1, 2, 2)
            got = solve_point_cloud(u_hat, members, anchors, prev, w, lap, lam1, lam2,
                                    cg_tol=1e-12, cg_max_iters=2000)
            a, b = build_system(u_hat, members, anchors, prev, w, lap, lam1, lam2)
            want = np.linalg.solve(a, b)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        pts, members, anchors, prev, w, lap = random_instance(rng, 40)
        u_hat = pts + rng.normal(0, 0.1, pts.shape)
        got = solve_point_cloud(u_hat, members, anchors, prev, w, lap, 1.0, 1.0,
                                cg_tol=1e-8, cg_max_iters=500)
        a, b = build_system(u_hat, members, anchors, prev, w, lap, 1.0, 1.0)
        for col in range(3):
            res = np.linalg.norm(b[:, col] - a @ got[:, col])
            assert res <= 1e-8 * np.linalg.norm(b[:, col])

    def test_system_matrix_smallest_eigenvalue_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(10, 61))
            pts, members, anchors, prev, w, lap = random_instance(rng, n)
            a, _ = build_system(pts, members, anchors, prev, w, lap, 1.3, 0.7)
            assert np.linalg.eigvalsh(a).min() >= 1.0 - 1e-9

    def test_failure_carries_residual(self):
        rng = np.random.default_rng(7)
        pts, members, anchors, prev, w, lap = random_instance(rng, 30)
        u_hat = pts + rng.normal(0, 0.1, pts.shape)
        with pytest.raises(SolverError) as err:
            solve_point_cloud(u_hat, members, anchors, prev, w, lap, 1.0, 5.0,
                              cg_tol=1e-14, cg_max_iters=1)
        assert err.value.residual is not None
        assert err.value.residual > 1e-14

    def test_update_never_increases_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(12, 40))
            pts, members, anchors, prev, w, lap = random_instance(rng, n)
            u_hat = pts + rng.normal(0, 0.1, pts.shape)
            lam1, lam2 = rng.uniform(0.1, 2, 2)
            star = solve_point_cloud(u_hat, members, anchors, prev, w, lap, lam1, lam2,
                                     cg_tol=1e-12, cg_max_iters=2000)
            before = objective(u_hat, u_hat, members, anchors, prev, w, lap, lam1, lam2)
            after = objective(star, u_hat, members, anchors, prev, w, lap, lam1, lam2)
            assert after.total <= before.total + 1e-9


class TestSolveTemporalWeights:
    def test_integer_floor_example(self):
        w = solve_temporal_weights(np.array([3.0, 1.0, 2.0]), 2.0)
        assert w.tolist() == [0.0, 1.0, 1.0]
        assert w @ np.array([3.0, 1.0, 2.0]) == 3.0

    def test_fractional_floor_example(self):
        w = solve_temporal_weights(np.array([3.0, 1.0, 2.0]), 1.5)
        assert w.tolist() == [0.0, 1.0, 0.5]
        assert w @ np.array([3.0, 1.0, 2.0]) == 2.0

    def test_floor_equals_m_forces_all_ones(self):
        w = solve_temporal_weights(np.array([5.0, 0.1, 2.0, 9.0]), 4.0)
        assert w.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_temporal_weights(np.array([1.0, 2.0]), 2.5)

    def test_ties_go_to_lower_index(self):
        w = solve_temporal_weights(np.array([2.0, 1.0, 1.0, 1.0]), 2.0)
        assert w.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_matches_vertex_oracle_exactly(self):
        # Dyadic rationals keep float arithmetic exact.
        rng = np.random.default_rng(9)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            d = rng.integers(0, 33, m) / 16.0
            mprime = float(rng.integers(1, 4 * m + 1)) / 4.0
            got = solve_temporal_weights(d, mprime)
            want_val, _ = lp_oracle(d, mprime)
            assert got.sum() >= mprime - 1e-12
            assert np.all((got >= 0) & (got <= 1))
            assert float(got @ d) == want_val


class TestLearnMetric:
    def _pairs(self, rng, e=40, dim=6):
        diffs = rng.normal(0, 0.5, (e, dim))
        dsq = rng.uniform(0, 0.2, e)
        return diffs, dsq

    def test_zero_differences_leave_factor_at_init(self):
        diffs = np.zeros((10, 6))
        dsq = np.ones(10)
        fit = learn_metric(diffs, dsq, trace_bound=5.0)
        assert np.allclose(fit.factor, (5.0 / 6.0) * np.eye(6))

    def test_objective_monotone_nonincreasing(self):
        rng = np.random.default_rng(10)
        diffs, dsq = self._pairs(rng)
        fit = learn_metric(diffs, dsq, 5.0, pg_step=1e-3, pg_max_iters=60)
        objs = np.array(fit.objectives)
        assert np.all(np.diff(objs) <= 0)

    def test_result_is_symmetric_psd(self):
        rng = np.random.default_rng(11)
        diffs, dsq = self._pairs(rng)
        fit = learn_metric(diffs, dsq, 5.0)
        assert np.allclose(fit.metric, fit.metric.T)
        assert np.linalg.eigvalsh(fit.metric).min() >= -1e-12

    def test_iterates_satisfy_constraints(self):
        rng = np.random.default_rng(12)
        diffs, dsq = self._pairs(rng, e=60)
        r = (5.0 / 6.0) * np.eye(6)
        for _ in range(25):
            r = project_metric_factor(r - 1e-3 * metric_gradient(r, diffs, dsq), 5.0)
            assert np.trace(r) <= 5.0 + 1e-12
            assert np.all(np.diagonal(r) >= 0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            diffs, dsq = self._pairs(rng, e=25)
            r = project_metric_factor(rng.normal(0, 0.3, (6, 6)), 5.0)
            grad = metric_gradient(r, diffs, dsq)
            h = 1e-6
            for idx in [(0, 0), (1, 3), (4, 2), (5, 5)]:
                e = np.zeros((6, 6))
                e[idx] = h
                fd = (metric_objective(r + e, diffs, dsq)
                      - metric_objective(r - e, diffs, dsq)) / (2 * h)
                if abs(fd) > 1e-10:
                    assert grad[idx] == pytest.approx(fd, rel=1e-4)

    def test_three_increases_abort_with_trace(self, monkeypatch):
        # Gradient steps on this objective never increase it for sane
        # inputs (it is bounded below and descent directions inflate the
        # factor), so drive the guard directly: a rigged objective that
        # rises after the first evaluation must abort after 3 strikes.
        import dpcdenoise.optimize as opt

        calls = {"n": 0}

        def rigged(factor, diffs, dsq):
            calls["n"] += 1
            return np.full(diffs.shape[0], float(calls["n"]))

        monkeypatch.setattr(opt, "_metric_terms", rigged)
        rng = np.random.default_rng(14)
        diffs = rng.normal(0, 1.0, (10, 6))
        dsq = rng.uniform(0.1, 1.0, 10)
        with pytest.raises(SolverError, match="step size") as err:
            opt.learn_metric(diffs, dsq, 5.0, pg_step=1e-3, pg_max_iters=50)
        assert err.value.trace is not None
        assert calls["n"] == 4  # init + three rejected candidates

    def test_non_finite_candidate_counts_as_increase(self, monkeypatch):
        import dpcdenoise.optimize as opt

        rng = np.random.default_rng(15)
        diffs = rng.normal(0, 1.0, (10, 6))
        dsq = rng.uniform(0.1, 1.0, 10)
        real = opt._metric_terms
        calls = {"n": 0}

        def first_finite_then_nan(factor, d, q):
            calls["n"] += 1
            if calls["n"] == 1:
                return real(factor, d, q)
            return np.full(d.shape[0], np.nan)

        monkeypatch.setattr(opt, "_metric_terms", first_finite_then_nan)
        with pytest.raises(SolverError, match="step size"):
            opt.learn_metric(diffs, dsq, 5.0, pg_step=1e-3, pg_max_iters=50)

    def test_projection_examples(self):
        r = np.diag([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
        out = project_metric_factor(r, 3.0)
        assert np.trace(out) == pytest.approx(3.0)
        r2 = np.eye(6)
        r2[0, 0] = -1.0
        out2 = project_metric_factor(r2, 10.0)
        assert out2[0, 0] == 0.0
        assert np.trace(out2) == pytest.approx(5.0)


def small_sequence(n_frames=2, n_points=120, amplitude=0.1, seed=5):
    spec = SyntheticSpec("sinusoid-sheet", n_points, n_frames,
                         amplitude=amplitude, phase_step=0.03, seed=seed)
    return generate_sequence(spec)


def small_config(**kw):
    base = dict(k=10, patch_fraction=0.5, k_s=4, xi=4, outer_max_iters=3,
                seed=2, lambda1=0.5, lambda2=0.1)
    base.update(kw)
    return DenoiseConfig(**base)


class TestDenoiseFrame:
    def test_zero_lambdas_identity_after_one_iteration(self):
        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions)
        out, report = denoise_frame(noisy, None, small_config(lambda1=0.0, lambda2=0.0))
        assert np.array_equal(out.positions, noisy.positions)
        assert len(report.objective_trace) == 1
        assert report.objective_trace[0].total == 0.0

    def test_grid_plane_is_fixed_point(self):
        # Constructed symmetric instance: interior patches of a regular
        # grid all share the same relative layout, so corresponding rows
        # agree exactly and the spatial gradient vanishes at the input.
        from dpcdenoise.patches import PatchSet
        from dpcdenoise.geometry import build_neighbor_index, knn_point

        g = np.arange(12, dtype=float)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(144)])
        frame = Frame(pts)
        index = build_neighbor_index(frame)
        interior = [i for i, p in enumerate(pts)
                    if 2 <= p[0] <= 9 and 2 <= p[1] <= 9]
        members = np.array([[i, *knn_point(index, i, 4)] for i in interior])
        ps = PatchSet(members=members, k=4, frame=frame)
        pairs = spatial_connectivity(ps, pts, 4)
        normals = np.tile((0.0, 0.0, 1.0), (144, 1))
        lap = combinatorial_laplacian(
            initial_spatial_weights(pairs, row_features(ps, pts, normals))
        )
        anchors = np.repeat(pts[members[:, 0]], 5, axis=0)
        out = solve_point_cloud(pts, members, anchors, None, None, lap, 0.0, 0.5,
                                cg_tol=1e-10, cg_max_iters=500)
        assert np.max(np.abs(out - pts)) < 1e-6

    def test_accepted_objective_trace_non_increasing(self):
        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions +
                      np.random.default_rng(3).normal(0, 0.01, (120, 3)))
        _, report = denoise_frame(noisy, None, small_config(outer_max_iters=6))
        totals = [o.total for o in report.objective_trace]
        accepted = totals[: report.best_iteration + 1]
        assert all(b <= a + 1e-12 for a, b in zip(accepted, accepted[1:]))

    def test_lambda1_zero_ignores_reference_content(self):
        seq = small_sequence(2)
        noisy = Frame(seq.frames[1].positions, frame_index=1)
        ref_a, _ = estimate_normals(Frame(seq.frames[0].positions, frame_index=0), 8)
        other = np.random.default_rng(7).uniform(0, 1, (80, 3))
        ref_b, _ = estimate_normals(Frame(other, frame_index=0), 8)
        cfg = small_config(lambda1=0.0)
        out_a, _ = denoise_frame(noisy, ref_a, cfg)
        out_b, _ = denoise_frame(noisy, ref_b, cfg)
        assert np.array_equal(out_a.positions, out_b.positions)

    @pytest.mark.parametrize("kind", ["identity", "zeros", "random"])
    def test_reference_rows_follow_point_map(self, kind, monkeypatch):
        # The temporal term compares patch row (l, i) with row point_map[l, i]
        # of the matched reference patch matched[l].
        import dpcdenoise.optimize as opt

        seq = small_sequence(2)
        cfg = small_config(outer_max_iters=1)
        ref_frame, _ = estimate_normals(seq.frames[0], cfg.k_plane)
        rng = np.random.default_rng(21)
        seen = {}

        def match(frame, patchset, reference, *args):
            matched, distance, point_map = real_match(frame, patchset, reference, *args)
            if kind == "zeros":
                point_map = np.zeros_like(point_map)
            elif kind == "random":
                point_map = rng.integers(0, point_map.shape[1], point_map.shape)
            else:
                point_map = np.tile(np.arange(point_map.shape[1]), (len(matched), 1))
            seen.update(rel=reference.rel, matched=matched, point_map=point_map)
            return matched, distance, point_map

        def solve(u_hat, members, anchor_rows, prev_aligned, *args):
            seen["prev_aligned"] = prev_aligned
            return real_solve(u_hat, members, anchor_rows, prev_aligned, *args)

        real_match, real_solve = opt.match_patches, opt.solve_point_cloud
        monkeypatch.setattr(opt, "match_patches", match)
        monkeypatch.setattr(opt, "solve_point_cloud", solve)
        denoise_frame(Frame(seq.frames[1].positions, frame_index=1), ref_frame, cfg)
        size = seen["point_map"].shape[1]
        for l, (best, pm) in enumerate(zip(seen["matched"], seen["point_map"])):
            got = seen["prev_aligned"][l * size : (l + 1) * size]
            assert np.array_equal(got, seen["rel"][best][pm])
        if kind == "zeros":
            assert np.array_equal(seen["prev_aligned"], np.zeros_like(seen["prev_aligned"]))

    def test_reports_solver_error_with_iteration(self):
        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions +
                      np.random.default_rng(4).normal(0, 0.02, (120, 3)))
        with pytest.raises(SolverError) as err:
            denoise_frame(noisy, None, small_config(cg_tol=1e-15, cg_max_iters=1,
                                                    lambda2=2.0))
        assert err.value.iteration is not None


class TestDenoiseSequence:
    def test_single_frame_equals_denoise_frame(self):
        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions +
                      np.random.default_rng(5).normal(0, 0.01, (120, 3)))
        cfg = small_config()
        alone, _ = denoise_frame(noisy, None, cfg)
        from dpcdenoise.geometry import Sequence
        out, reports = denoise_sequence(Sequence((noisy,)), cfg)
        assert np.array_equal(out.frames[0].positions, alone.positions)
        assert len(reports) == 1

    def test_temporal_term_invariant_to_frame_translation(self):
        # Relative coordinates cancel a rigid translation of the whole
        # frame, so the temporal consistency value is unchanged.
        rng = np.random.default_rng(20)
        pts, members, anchors, prev, w, lap = random_instance(rng, 25)
        u = pts + rng.normal(0, 0.05, pts.shape)
        a = objective(u, pts, members, anchors, prev, w, lap, 1.0, 0.0)
        shift = np.array([4.0, -2.0, 9.0])
        k1 = members.shape[1]
        anchors_shifted = np.repeat((u + shift)[members[:, 0]], k1, axis=0)
        anchors_now = np.repeat(u[members[:, 0]], k1, axis=0)
        before = objective(u, pts, members, anchors_now, prev, w, lap, 1.0, 0.0)
        after = objective(u + shift, pts + shift, members, anchors_shifted, prev, w, lap, 1.0, 0.0)
        assert after.temporal == pytest.approx(before.temporal, rel=1e-9)
        assert a.fidelity == pytest.approx(after.fidelity, rel=1e-9)

    def test_later_frames_have_temporal_component(self):
        seq = small_sequence(3)
        rng = np.random.default_rng(6)
        from dpcdenoise.geometry import Sequence
        noisy = Sequence(tuple(
            Frame(f.positions + rng.normal(0, 0.01, (120, 3)), frame_index=t)
            for t, f in enumerate(seq)
        ))
        out, reports = denoise_sequence(noisy, small_config(lambda1=1.0))
        assert len(out) == len(noisy)
        assert all(len(o) == len(n) for o, n in zip(out, noisy))
        assert all(o.temporal == 0.0 for o in reports[0].objective_trace)
        for rep in reports[1:]:
            assert any(o.temporal > 0.0 for o in rep.objective_trace)
