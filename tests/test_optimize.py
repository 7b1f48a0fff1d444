import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    build_system,
    dense_objective,
    lp_oracle,
    mean_nearest_distance,
    random_solve_instance,
    row_form,
)

from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame, Sequence, estimate_normals
from dpcdenoise.metrics import add_gaussian_noise, mse_nn
from dpcdenoise.optimize import (
    SolverError,
    _edge_weight_summary,
    _point_system,
    denoise_frame,
    denoise_sequence,
    learn_metric,
    metric_gradient,
    metric_objective,
    project_metric_factor,
    solve_point_cloud,
    solve_temporal_weights,
)
from dpcdenoise.stgraph import (
    SpatialEdges,
    spatial_connectivity,
    weighted_spatial_graph,
)
from dpcdenoise.synthetic import SyntheticSpec, generate_sequence


random_instance = random_solve_instance


class TestSolvePointCloud:
    def test_zero_lambdas_bit_exact_identity(self):
        rng = np.random.default_rng(3)
        pts, ps, prev, w, edges, pw, lap = random_instance(rng, 25)
        out, _, _ = solve_point_cloud(pts, ps, prev, w, edges, pw, 0.0, 0.0)
        assert np.array_equal(out, pts)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n = int(rng.integers(10, 61))
            pts, ps, prev, w, edges, pw, lap = random_instance(rng, n)
            u_hat = pts + rng.normal(0, 0.05, pts.shape)
            lam1, lam2 = rng.uniform(0.1, 2, 2)
            got, _, _ = solve_point_cloud(u_hat, ps, prev, w, edges, pw, lam1, lam2,
                                          cg_tol=1e-12, cg_max_iters=2000)
            a, b = build_system(u_hat, *row_form(ps, prev, w), lap, lam1, lam2)
            want = np.linalg.solve(a, b)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        pts, ps, prev, w, edges, pw, lap = random_instance(rng, 40)
        u_hat = pts + rng.normal(0, 0.1, pts.shape)
        got, _, _ = solve_point_cloud(u_hat, ps, prev, w, edges, pw, 1.0, 1.0,
                                      cg_tol=1e-8, cg_max_iters=500)
        a, b = build_system(u_hat, *row_form(ps, prev, w), lap, 1.0, 1.0)
        for col in range(3):
            res = np.linalg.norm(b[:, col] - a @ got[:, col])
            assert res <= 1e-8 * np.linalg.norm(b[:, col])

    def test_system_matrix_smallest_eigenvalue_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(10, 61))
            pts, ps, prev, w, edges, pw, lap = random_instance(rng, n)
            a, _ = _point_system(pts, ps, prev, w, edges, pw, 1.3, 0.7)
            assert np.linalg.eigvalsh(a @ np.eye(n)).min() >= 1.0 - 1e-9

    def test_failure_carries_residual(self):
        rng = np.random.default_rng(7)
        pts, ps, prev, w, edges, pw, lap = random_instance(rng, 30)
        u_hat = pts + rng.normal(0, 0.1, pts.shape)
        with pytest.raises(SolverError) as err:
            solve_point_cloud(u_hat, ps, prev, w, edges, pw, 1.0, 5.0,
                              cg_tol=1e-14, cg_max_iters=1)
        assert err.value.residual is not None
        assert err.value.residual > 1e-14

    def test_update_never_increases_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(12, 40))
            pts, ps, prev, w, edges, pw, lap = random_instance(rng, n)
            u_hat = pts + rng.normal(0, 0.1, pts.shape)
            lam1, lam2 = rng.uniform(0.1, 2, 2)
            star, _, _ = solve_point_cloud(u_hat, ps, prev, w, edges, pw, lam1, lam2,
                                           cg_tol=1e-12, cg_max_iters=2000)
            rows = row_form(ps, prev, w)
            before = dense_objective(u_hat, u_hat, *rows, lap, lam1, lam2)
            after = dense_objective(star, u_hat, *rows, lap, lam1, lam2)
            assert after <= before + 1e-9

    @pytest.mark.parametrize("case, message", [
        ("patch set of another size", "one patch per point"),
        ("prev_rel misshapen", "both fit the patch set"),
        ("patch_weights misshapen", "both fit the patch set"),
        ("patch_weights without prev_rel", "both fit the patch set"),
    ])
    def test_rejects_a_patch_set_or_temporal_arrays_that_do_not_fit(self, case, message):
        rng = np.random.default_rng(9)
        pts, ps, prev, w, _, _, _ = random_instance(rng, 20)
        temporal = {"patch set of another size": (random_instance(rng, 21)[1], None, None),
                    "prev_rel misshapen": (ps, prev[:, 1:], w),
                    "patch_weights misshapen": (ps, prev, w[1:]),
                    "patch_weights without prev_rel": (ps, None, w)}[case]
        with pytest.raises(ValueError, match=message):
            solve_point_cloud(pts, *temporal, None, None, 1.0, 0.0)


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


class TestBlockUpdatesOnOneGraph:
    """No block update raises the objective it minimises, on its own fixed graph.

    The point solve has ``TestSolvePointCloud::test_update_never_increases_objective``.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
    def test_weight_program_never_raises_its_objective(self, m, share, seed):
        # The closed form is at most w0 . d for any feasible start w0.
        rng = np.random.default_rng(seed)
        d = rng.exponential(size=m) * (rng.random(m) < 0.8)
        mprime = share * m
        w0 = rng.uniform(0.0, 1.0, m)
        if w0.sum() < mprime:
            w0 += (1.0 - w0) * (mprime - w0.sum()) / (m - w0.sum())
        w = solve_temporal_weights(d, mprime)
        assert np.all((w >= 0) & (w <= 1)) and w.sum() >= mprime - 1e-12
        assert w @ d <= w0 @ d + 1e-12 * (1.0 + w0 @ d)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.sampled_from([1e-5, 1e-3, 1e-1]), st.floats(0.5, 10.0),
           st.integers(0, 2**32 - 1))
    def test_metric_learning_never_raises_its_objective(self, e, step, bound, seed):
        # Every accepted step lowers the objective from the initial factor;
        # a step that would raise it is rejected, or the call aborts.
        rng = np.random.default_rng(seed)
        diffs = rng.normal(0.0, rng.uniform(0.01, 2.0), (e, 6))
        dsq = rng.exponential(size=e)
        try:
            fit = learn_metric(diffs, dsq, bound, pg_step=step, pg_max_iters=30)
        except SolverError:
            return
        objs = np.array(fit.objectives)
        assert objs[0] == metric_objective((bound / 6) * np.eye(6), diffs, dsq)
        assert np.all(np.diff(objs) <= 0)
        assert objs[-1] == metric_objective(fit.factor, diffs, dsq)


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

    def test_overshooting_step_is_halved_and_converges(self, monkeypatch):
        # From R = (5/6) I, a step of 5 grows R[0, 0] so far that the trace
        # projection zeroes R[1, 1], and the second pair's term jumps from
        # about 0.002 to about 0.5: the first candidate is rejected. Half the
        # step decreases the objective, and the call then stops on pg_tol.
        import dpcdenoise.optimize as opt

        candidates = {"n": 0}
        real = opt.project_metric_factor

        def counting(factor, trace_bound):
            candidates["n"] += 1
            return real(factor, trace_bound)

        monkeypatch.setattr(opt, "project_metric_factor", counting)
        diffs = np.zeros((2, 6))
        diffs[0, 0], diffs[1, 1] = 1.0, 3.0
        dsq = np.array([1.0, 1.0])
        fit = opt.learn_metric(diffs, dsq, 5.0, pg_step=5.0, pg_max_iters=100, pg_tol=1e-3)
        objs = np.array(fit.objectives)
        assert candidates["n"] == len(objs)  # every candidate accepted but one
        assert len(objs) - 1 < 100 and objs[-2] - objs[-1] < 1e-3
        assert np.all(np.diff(objs) < 0) and objs[-1] < 0.02 * objs[0]

    @pytest.mark.parametrize("where, value", [("diffs", np.nan), ("diffs", np.inf),
                                              ("dsq", np.nan), ("dsq", -1.0)])
    def test_rejects_non_finite_or_negative_input(self, where, value):
        rng = np.random.default_rng(16)
        diffs, dsq = self._pairs(rng, e=10)
        (diffs if where == "diffs" else dsq).flat[0] = value
        with pytest.raises(ValueError, match="finite|>= 0"):
            learn_metric(diffs, dsq, 5.0)

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

    def test_projection_bounds_off_diagonal_entries(self):
        # A valid diagonal does not bound R: off-diagonal entries of 10 give
        # tr(R^T R) = 300 for the bound 5. The result has diagonal >= 0,
        # tr(R) <= 5 and ||R||_F <= 5, so tr(R^T R) <= 25.
        r = np.full((6, 6), 10.0)
        np.fill_diagonal(r, [0.5, 0.0, 1.0, 0.2, 0.3, 0.1])
        out = project_metric_factor(r, 5.0)
        assert np.all(np.diagonal(out) >= 0.0)
        assert np.trace(out) <= 5.0
        assert np.linalg.norm(out) <= 5.0 * (1 + 1e-15)
        assert np.trace(out.T @ out) <= 25.0 * (1 + 1e-15)
        assert np.linalg.norm(out) == pytest.approx(5.0, rel=1e-15)
        # The same direction, only shorter.
        np.testing.assert_allclose(out * np.linalg.norm(r) / 5.0, r, rtol=1e-14)

    def test_projection_keeps_a_factor_inside_the_set(self):
        rng = np.random.default_rng(21)
        r = rng.normal(0.0, 0.3, (6, 6))
        np.fill_diagonal(r, np.abs(np.diagonal(r)))
        assert np.trace(r) <= 5.0 and np.linalg.norm(r) <= 5.0
        out = project_metric_factor(r, 5.0)
        assert out is not r
        assert out.tobytes() == r.tobytes()


def small_sequence(n_frames=2, n_points=120, amplitude=0.1, seed=5):
    spec = SyntheticSpec("sinusoid-sheet", n_points, n_frames,
                         amplitude=amplitude, phase_step=0.03, seed=seed)
    return generate_sequence(spec)


def small_config(**kw):
    base = dict(k=10, k_s=4, xi=4, outer_max_iters=3, lambda1=0.5, lambda2=0.1)
    base.update(kw)
    return DenoiseConfig(**base)


class TestDenoiseFrame:
    def test_zero_lambdas_identity_after_one_iteration(self):
        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions)
        out, report = denoise_frame(noisy, None, small_config(lambda1=0.0, lambda2=0.0))
        assert np.array_equal(out.positions, noisy.positions)
        assert report.diagnostics["largest_move"] == [0.0]
        assert report.diagnostics["stop_reason"] == "tol"

    def test_grid_plane_is_fixed_point(self):
        # Constructed symmetric instance: on an evenly spaced grid line in
        # the plane z = 0, with k_s = 1, every row edge joins two rows of
        # equal relative coordinates or two rows of one point (and is
        # dropped), so the spatial gradient vanishes at the input.
        from dpcdenoise.patches import build_patches

        pts = np.column_stack([np.arange(12, dtype=float), np.zeros(12), np.zeros(12)])
        ps = build_patches(Frame(pts), 4)
        edges = spatial_connectivity(ps, 1)
        rows = oracles.spatial_connectivity(ps, 1)
        p = pts[ps.members.ravel()] - np.repeat(pts, 5, axis=0)
        assert len(edges) == rows.shape[0] > 12
        assert np.all(p[rows[:, 0]] == p[rows[:, 1]])
        normals = np.tile((0.0, 0.0, 1.0), (12, 1))
        pw = weighted_spatial_graph(edges, normals, 1.0)
        out, _, _ = solve_point_cloud(pts, ps, None, None, edges, pw, 0.0, 0.5,
                                      cg_tol=1e-10, cg_max_iters=500)
        assert np.max(np.abs(out - pts)) < 1e-6

    def test_rising_total_runs_to_cap_and_returns_last_iterate(self, monkeypatch):
        # Each pass's total is a sum over its own patches, matches and graph,
        # so the loop compares no totals across passes. Here the total, taken
        # densely over each pass's row graph, rises from pass 4 to pass 5,
        # and the loop still runs to the cap and returns the last iterate.
        import dpcdenoise.optimize as opt

        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions +
                      np.random.default_rng(4).normal(0, 0.01, (120, 3)))
        cfg = small_config(outer_max_iters=6)
        iterates = [noisy.positions]
        totals = []
        real_solve = opt.solve_point_cloud

        def solve(*args):
            result = real_solve(*args)
            u_hat, ps, prev, w, edges, pw, lam1, lam2 = args[:8]
            assert np.array_equal(ps.frame.positions, iterates[-1])
            rows = oracles.spatial_connectivity(ps, cfg.k_s)
            lap = oracles.row_laplacian(rows, ps.members, pw)
            totals.append(dense_objective(result[0], u_hat, *row_form(ps, prev, w), lap,
                                          lam1, lam2))
            iterates.append(result[0])
            return result

        monkeypatch.setattr(opt, "solve_point_cloud", solve)
        out, report = denoise_frame(noisy, None, cfg)
        assert totals[4] > totals[3]
        assert report.diagnostics["stop_reason"] == "max_iters"
        assert len(totals) == len(iterates) - 1 == 6
        assert np.array_equal(out.positions, iterates[-1])
        moves = [float(np.max(np.linalg.norm(b - a, axis=1)))
                 for a, b in zip(iterates, iterates[1:])]
        np.testing.assert_allclose(report.diagnostics["largest_move"], moves, rtol=1e-15)
        assert "best_iteration" not in report.to_dict()

    def test_spacing_is_the_mean_nearest_neighbour_distance_of_the_input(self):
        # Member 1 of each first-pass patch gives the brute-force mean, bit
        # for bit, also where exact duplicates put the duplicate there, and
        # on 4 points, the fewest that normals can be estimated on.
        pts = small_sequence(1).frames[0].positions.copy()
        pts[60:70] = pts[:10]
        for cloud in (pts, pts[:4]):
            _, report = denoise_frame(Frame(cloud), None, small_config(outer_max_iters=1))
            assert report.diagnostics["spacing"] == mean_nearest_distance(cloud)
        with pytest.raises(ValueError, match="frame too small to estimate normals"):
            denoise_frame(Frame(pts[:2]), None, small_config(outer_max_iters=1))

    def test_frame_of_duplicated_points_is_rejected(self, monkeypatch):
        # Every point has an exact duplicate, so the spacing is 0 and each
        # move over it would be 0 / 0. The frame is rejected before a solve,
        # with or without a reference.
        import dpcdenoise.optimize as opt

        def solve(*args):
            raise AssertionError("solve_point_cloud called")

        monkeypatch.setattr(opt, "solve_point_cloud", solve)
        seq = small_sequence(2)
        for previous, frame in ((None, seq.frames[0]), (seq.frames[0], seq.frames[1])):
            pts = frame.positions
            noisy = Frame(np.concatenate([pts, pts]), frame_index=frame.frame_index)
            with pytest.raises(ValueError, match="every point coincides with another point"):
                denoise_frame(noisy, previous, small_config())

    def test_reference_of_duplicated_points_is_rejected(self):
        # A reference frame whose every point has an exact duplicate has no
        # spacing to size a clumped patch by, and the error names that frame.
        seq = small_sequence(2)
        first = seq.frames[0]
        previous = Frame(np.concatenate([first.positions, first.positions]),
                         np.concatenate([first.normals, first.normals]), frame_index=0)
        noisy = Frame(seq.frames[1].positions, frame_index=1)
        with pytest.raises(ValueError, match="^reference frame 0: every point coincides with "
                                             "another point: no spacing$"):
            denoise_frame(noisy, previous, small_config())

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

    def test_reference_reuses_previous_normals(self, monkeypatch):
        # A denoised frame carries the normals estimate_normals would compute
        # again from its positions, so reusing them saves one estimation per
        # frame and changes no output.
        import dpcdenoise.optimize as opt

        seq = small_sequence(2)
        rng = np.random.default_rng(8)
        cfg = small_config(outer_max_iters=2)
        prev, _ = denoise_frame(Frame(seq.frames[0].positions + rng.normal(0, 0.01, (120, 3))),
                                None, cfg)
        noisy = Frame(seq.frames[1].positions + rng.normal(0, 0.01, (120, 3)), frame_index=1)
        calls = []
        real_estimate = opt.estimate_normals

        def estimate(frame, k_plane, neighbors=None):
            calls.append(frame)
            return real_estimate(frame, k_plane, neighbors)

        monkeypatch.setattr(opt, "estimate_normals", estimate)
        reused, _ = denoise_frame(noisy, prev, cfg)
        reused_calls = len(calls)
        estimated, _ = denoise_frame(noisy, Frame(prev.positions, None, prev.frame_index), cfg)
        assert len(calls) - reused_calls == reused_calls + 1
        assert np.array_equal(reused.positions, estimated.positions)
        assert np.array_equal(reused.normals, estimated.normals)

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

        def match(patchset, reference, *args):
            matched, distance, point_map = real_match(patchset, reference, *args)
            if kind == "zeros":
                point_map = np.zeros_like(point_map)
            elif kind == "random":
                point_map = rng.integers(0, point_map.shape[1], point_map.shape)
            else:
                point_map = np.tile(np.arange(point_map.shape[1]), (len(matched), 1))
            seen.update(rel=reference.patchset.rel, matched=matched, point_map=point_map)
            return matched, distance, point_map

        def solve(u_hat, patchset, prev_rel, *args):
            seen["prev_rel"] = prev_rel
            return real_solve(u_hat, patchset, prev_rel, *args)

        real_match, real_solve = opt.match_patches, opt.solve_point_cloud
        monkeypatch.setattr(opt, "match_patches", match)
        monkeypatch.setattr(opt, "solve_point_cloud", solve)
        denoise_frame(Frame(seq.frames[1].positions, frame_index=1), ref_frame, cfg)
        assert seen["prev_rel"].shape == seen["point_map"].shape + (3,)
        for l, (best, pm) in enumerate(zip(seen["matched"], seen["point_map"])):
            assert np.array_equal(seen["prev_rel"][l], seen["rel"][best][pm])
        if kind == "zeros":
            assert np.array_equal(seen["prev_rel"], np.zeros_like(seen["prev_rel"]))

    def test_match_diagnostics_per_pass(self, monkeypatch):
        # Per pass with a reference: the p50 and p95 of the match distances,
        # each one of the distances, and the patches weighing exactly 0 and 1.
        # The first pass weighs a patch exp(-distance), so it weighs 1 exactly
        # where its distance is 0; later passes solve the weight program.
        import dpcdenoise.optimize as opt

        seq = small_sequence(2)
        cfg = small_config(outer_max_iters=3, outer_tol=1e-12)
        ref_frame, _ = estimate_normals(seq.frames[0], cfg.k_plane)
        distances = []

        def match(*args):
            matched, distance, point_map = real_match(*args)
            distances.append(distance)
            return matched, distance, point_map

        real_match = opt.match_patches
        monkeypatch.setattr(opt, "match_patches", match)
        _, report = denoise_frame(Frame(seq.frames[1].positions, frame_index=1), ref_frame, cfg)
        diag = report.diagnostics
        assert len(diag["match_dist"]) == len(diag["patch_weights"]) == len(distances) == 3
        for quantiles, distance in zip(diag["match_dist"], distances):
            assert quantiles["p50"] in distance and quantiles["p95"] in distance
            assert quantiles["p50"] <= quantiles["p95"] <= distance.max()
            assert np.mean(distance <= quantiles["p50"]) >= 0.5
        first = diag["patch_weights"][0]
        assert first == {"zero": int(np.sum(np.exp(-distances[0]) == 0)),
                         "one": int(np.sum(distances[0] == 0))}
        for weights in diag["patch_weights"][1:]:
            assert weights["one"] >= int(cfg.mprime_fraction * 120)
            assert weights["zero"] + weights["one"] <= 120

        _, alone = denoise_frame(Frame(seq.frames[0].positions), None, cfg)
        assert alone.diagnostics["match_dist"] == alone.diagnostics["patch_weights"] == []

    def test_one_neighbor_index_per_iteration(self, monkeypatch):
        # Each outer iteration makes one neighbor table over the points, as
        # wide as the wider of the normals' and the patches' rows (shared by
        # the normals, their orientation, the patches and their adjacency);
        # the final normals add one more table.
        import dpcdenoise.geometry as geometry

        queries = []
        real_nearest = geometry._nearest

        def nearest(points, rows, want):
            queries.append((len(points), len(rows), want))
            return real_nearest(points, rows, want)

        monkeypatch.setattr(geometry, "_nearest", nearest)
        seq = small_sequence(1)
        cfg = small_config(outer_max_iters=2)
        _, report = denoise_frame(Frame(seq.frames[0].positions), None, cfg)
        assert len(report.diagnostics["largest_move"]) == 2
        table = (120, 120, max(cfg.k, cfg.k_plane) + 1)
        assert queries == [table, table, (120, 120, cfg.k_plane + 1)]
        diag = report.diagnostics
        assert len(diag["spatial_edges"]) == len(diag["spatial_pairs"]) == 2
        assert all(0 < p < e for p, e in zip(diag["spatial_pairs"], diag["spatial_edges"]))
        # Only the graph's size is reported per pass; its metric is fixed, not learned.
        assert set(diag) == {"stop_reason", "spacing", "degenerate_normals", "largest_move",
                             "normal_move", "tangent_move", "spatial_edges", "spatial_pairs",
                             "edge_weights", "cg_iters", "cg_residual", "match_dist",
                             "patch_weights"}

    def test_every_point_a_center_needs_no_center_query(self, monkeypatch):
        # With every point a patch center, the patches' rows, which come from
        # the table, also give the adjacent centers, for k_s < k and k_s == k.
        # For k_s > k a patch has k adjacent patches, and still no query runs.
        import dpcdenoise.geometry as geometry

        queries = []
        real_nearest = geometry._nearest

        def nearest(points, rows, want):
            queries.append((len(points), len(rows), want))
            return real_nearest(points, rows, want)

        monkeypatch.setattr(geometry, "_nearest", nearest)
        seq = small_sequence(1)
        for k_s in (4, 10, 12):
            queries.clear()
            cfg = small_config(outer_max_iters=2, k_s=k_s)
            denoise_frame(Frame(seq.frames[0].positions), None, cfg)
            table = (120, 120, max(cfg.k, cfg.k_plane) + 1)
            assert queries == [table, table, (120, 120, cfg.k_plane + 1)], k_s

    def test_cg_gets_point_sized_systems_only(self, monkeypatch):
        # The spatial term is assembled over points: each point solve builds
        # one n x n system with graph.laplacian, and every system handed to
        # CG stores exactly its diagonal and one entry per pair on each side
        # of it; no row-graph Laplacian is built.
        import dpcdenoise.optimize as opt

        pairs, built, solves, systems = [], [], [], []
        real_connectivity, real_cg = opt.spatial_connectivity, opt._conjugate_gradient
        real_laplacian, real_solve = opt.laplacian, opt.solve_point_cloud

        def connectivity(*args):
            edges = real_connectivity(*args)
            pairs.append(edges.points.shape[0])
            return edges

        def laplacian(n, *args):
            built.append(n)
            return real_laplacian(n, *args)

        def solve(*args, **kwargs):
            before = len(built)
            result = real_solve(*args, **kwargs)
            solves.append(len(built) - before)
            return result

        def cg(a, b, *args):
            systems.append((a.starts.size, a.cols.size, pairs[-1]))
            return real_cg(a, b, *args)

        monkeypatch.setattr(opt, "spatial_connectivity", connectivity)
        monkeypatch.setattr(opt, "laplacian", laplacian)
        monkeypatch.setattr(opt, "solve_point_cloud", solve)
        monkeypatch.setattr(opt, "_conjugate_gradient", cg)
        seq = small_sequence(2)
        rng = np.random.default_rng(9)
        noisy = [Frame(f.positions + rng.normal(0, 0.01, (120, 3)), frame_index=t)
                 for t, f in enumerate(seq)]
        cfg = small_config(outer_max_iters=2)
        prev, _ = denoise_frame(noisy[0], None, cfg)
        denoise_frame(noisy[1], prev, cfg)
        assert solves == [1] * 2 * 2 and built == [120] * 2 * 2
        assert len(systems) == 2 * 2 * 3
        for rows, entries, pair_count in systems:
            assert rows == 120
            assert entries == 120 + 2 * pair_count

    def test_cg_diagnostics_match_a_counting_operator(self, monkeypatch):
        # Per pass and axis, cg_iters is the number of products CG made with
        # A, and cg_residual the true relative residual of the axis it returned.
        import dpcdenoise.optimize as opt

        calls = []
        real_cg = opt._conjugate_gradient

        class Counting:
            def __init__(self, a):
                self.a, self.products = a, 0

            def __matmul__(self, x):
                self.products += 1
                return self.a @ x

        def cg(a, b, *args):
            counting = Counting(a)
            result = real_cg(counting, b, *args)
            r = b - a @ result[0]
            calls.append((counting.products, np.sqrt(np.sum(r * r)) / np.sqrt(np.sum(b * b))))
            return result

        monkeypatch.setattr(opt, "_conjugate_gradient", cg)
        seq = small_sequence(2)
        rng = np.random.default_rng(9)
        noisy = [Frame(f.positions + rng.normal(0, 0.01, (120, 3)), frame_index=t)
                 for t, f in enumerate(seq)]
        cfg = small_config(outer_max_iters=2)
        prev, first = denoise_frame(noisy[0], None, cfg)
        _, second = denoise_frame(noisy[1], prev, cfg)
        got = [(count, residual)
               for report in (first, second)
               for counts, residuals in zip(report.diagnostics["cg_iters"],
                                            report.diagnostics["cg_residual"])
               for count, residual in zip(counts, residuals)]
        assert got == calls
        assert len(got) == 2 * 2 * 3
        assert all(count > 1 and 0.0 < residual <= cfg.cg_tol for count, residual in got)

    def test_stop_reason_and_edge_weight_diagnostics(self):
        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions +
                      np.random.default_rng(3).normal(0, 0.01, (120, 3)))
        _, capped = denoise_frame(noisy, None, small_config(outer_max_iters=2))
        assert capped.diagnostics["stop_reason"] == "max_iters"
        weights = capped.diagnostics["edge_weights"]
        assert len(weights) == 2
        for entry in weights:
            assert 0.0 <= entry["p5"] <= entry["p50"] <= entry["p95"] <= 1.0
            assert entry["underflow_share"] == 0.0
        # outer_tol counts input spacings: set between the two passes' moves,
        # it stops the loop after the second pass.
        moves = np.array(capped.diagnostics["largest_move"]) / capped.diagnostics["spacing"]
        assert moves[1] < moves[0]
        tol = 0.5 * (moves[0] + moves[1])
        _, loose = denoise_frame(noisy, None, small_config(outer_max_iters=4, outer_tol=tol))
        assert loose.diagnostics["stop_reason"] == "tol"
        assert len(loose.diagnostics["largest_move"]) == 2
        assert loose.diagnostics["largest_move"] == capped.diagnostics["largest_move"]
        # A pass that moves no point stops the loop as tol.
        _, still = denoise_frame(noisy, None, small_config(lambda1=0.0, lambda2=0.0))
        assert still.diagnostics["stop_reason"] == "tol"
        assert still.diagnostics["largest_move"] == [0.0]
        assert still.diagnostics["edge_weights"] == []

    def test_edge_weight_summary_counts_every_row_edge(self):
        # A pair's weight counts once per row edge: 8 of the 10 edges weigh 0.9.
        edges = SpatialEdges(points=np.array([[0, 1], [0, 2], [1, 2]]),
                             counts=np.array([1, 1, 8]), offsets=np.zeros((3, 3)))
        summary = _edge_weight_summary(edges, np.array([1e-13, 0.5, 0.9]))
        assert summary == {"p5": 1e-13, "p50": 0.9, "p95": 0.9, "underflow_share": 0.1}
        rng = np.random.default_rng(17)
        for _ in range(200):
            pairs = int(rng.integers(1, 30))
            counts = rng.integers(1, 40, pairs)
            weights = np.where(rng.random(pairs) < 0.2, 0.0, rng.random(pairs))
            edges = SpatialEdges(points=np.zeros((pairs, 2), dtype=np.int64), counts=counts,
                                 offsets=np.zeros((pairs, 3)))
            summary = _edge_weight_summary(edges, weights)
            rows = np.repeat(weights, counts)
            for key, q in (("p5", 0.05), ("p50", 0.5), ("p95", 0.95)):
                assert summary[key] == np.quantile(rows, q, method="inverted_cdf")
            assert summary["underflow_share"] == np.mean(rows < 1e-12)

    def test_reports_solver_error_with_iteration(self):
        seq = small_sequence(1)
        noisy = Frame(seq.frames[0].positions +
                      np.random.default_rng(4).normal(0, 0.02, (120, 3)))
        with pytest.raises(SolverError) as err:
            denoise_frame(noisy, None, small_config(cg_tol=1e-15, cg_max_iters=1,
                                                    lambda2=2.0))
        assert err.value.iteration is not None


class TestDenoiseSequence:
    @pytest.mark.parametrize("spec", [
        SyntheticSpec("sinusoid-sheet", 400, 2, amplitude=0.05, phase_step=0.005, seed=1),
        SyntheticSpec("sphere-cap", 400, 1, seed=1),
    ], ids=["sheet", "cap"])
    def test_defaults_lower_the_error_of_every_frame(self, spec):
        # DenoiseConfig() as it stands, on noise of 2 % of the first frame's
        # bounding-box diagonal, seeded per frame as the noise command seeds it.
        clean = generate_sequence(spec)
        sigma = 0.02 * float(np.linalg.norm(np.ptp(clean.frames[0].positions, axis=0)))
        noisy = Sequence(tuple(add_gaussian_noise(frame, sigma, seed=1 + t)
                               for t, frame in enumerate(clean.frames)))
        out, _ = denoise_sequence(noisy, DenoiseConfig())
        for got, before, truth in zip(out.frames, noisy.frames, clean.frames):
            assert mse_nn(got, truth) < mse_nn(before, truth)

    def test_spatial_kernel_is_fixed_and_never_learned(self, monkeypatch):
        # Every pass weighs its pairs by exp(-(trace_bound / 3)^2 ||dn||^2) on
        # the normals it hands the kernel, and metric learning never runs.
        import dpcdenoise.optimize as opt

        def learn(*args, **kwargs):
            raise AssertionError("learn_metric called")

        graphs = []
        real_weigh = opt.weighted_spatial_graph

        def weigh(edges, normals, scale):
            graphs.append((edges, np.array(normals)))
            return real_weigh(edges, normals, scale)

        monkeypatch.setattr(opt, "learn_metric", learn)
        monkeypatch.setattr(opt, "weighted_spatial_graph", weigh)
        rng = np.random.default_rng(8)
        noisy = Sequence(tuple(Frame(f.positions + rng.normal(0, 0.01, (120, 3)), frame_index=t)
                               for t, f in enumerate(small_sequence(2))))
        _, reports = denoise_sequence(noisy, small_config(trace_bound=4.0))
        summaries = [entry for rep in reports for entry in rep.diagnostics["edge_weights"]]
        assert len(summaries) == len(graphs) == sum(len(rep.diagnostics["largest_move"])
                                                    for rep in reports)
        for summary, (edges, normals) in zip(summaries, graphs):
            dn = normals[edges.points[:, 0]] - normals[edges.points[:, 1]]
            weights = np.exp(-(4.0 / 3.0) ** 2 * np.sum(dn * dn, axis=1))
            assert summary == pytest.approx(_edge_weight_summary(edges, weights), rel=1e-12)

    @pytest.mark.parametrize("sizes", [(40, 400), (400, 40), (400, 25, 400)],
                             ids=["grow", "shrink", "dip"])
    def test_frames_of_unequal_size(self, sizes, monkeypatch):
        # A temporal pass builds patches of min(k, n_prev - 1, n_cur - 1) + 1
        # members on the reference and on the current frame alike, so every
        # patch has a counterpart of its size; k = 50 exceeds the smaller frames.
        import dpcdenoise.optimize as opt

        built = []
        real_build = opt.build_patches

        def build(frame, k, neighbors=None):
            built.append((len(frame), k))
            return real_build(frame, k, neighbors)

        monkeypatch.setattr(opt, "build_patches", build)
        noisy = Sequence(tuple(
            Frame(add_gaussian_noise(small_sequence(1, n, seed=t).frames[0], 0.01, t).positions,
                  frame_index=t)
            for t, n in enumerate(sizes)))
        cfg = small_config(k=50, outer_max_iters=2)
        out, reports = denoise_sequence(noisy, cfg)
        assert [len(frame) for frame in out] == list(sizes)
        want = []
        for t, (n, report) in enumerate(zip(sizes, reports)):
            prev = sizes[t - 1] if t else n
            k = min(cfg.k, n - 1, prev - 1)
            passes = len(report.diagnostics["largest_move"])
            want += ([(prev, k)] if t else []) + [(n, k)] * passes
        assert built == want

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
        # frame, so the temporal term is unchanged and the point update it
        # drives moves with the frame.
        rng = np.random.default_rng(20)
        from dpcdenoise.patches import PatchSet

        pts, ps, prev, w, edges, pw, lap = random_instance(rng, 25)
        u_hat = pts + rng.normal(0, 0.05, pts.shape)
        shift = np.array([4.0, -2.0, 9.0])
        shifted = PatchSet(ps.members, ps.k, Frame(ps.frame.positions + shift))
        here, _, _ = solve_point_cloud(u_hat, ps, prev, w, None, None, 1.0, 0.0,
                                       cg_tol=1e-12, cg_max_iters=2000)
        moved, _, _ = solve_point_cloud(u_hat + shift, shifted, prev, w, None,
                                        None, 1.0, 0.0, cg_tol=1e-12, cg_max_iters=2000)
        assert np.max(np.abs(here - u_hat)) > 1e-3
        np.testing.assert_allclose(moved - shift, here, rtol=0, atol=1e-9)

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
        # Frame 0 matches nothing. Every pass of a later frame matches its
        # patches, and some patch weighs more than 0 at a nonzero distance.
        assert reports[0].diagnostics["match_dist"] == []
        assert reports[0].diagnostics["patch_weights"] == []
        for rep in reports[1:]:
            diag = rep.diagnostics
            assert len(diag["match_dist"]) == len(diag["patch_weights"]) \
                == len(diag["largest_move"])
            for dist, weights in zip(diag["match_dist"], diag["patch_weights"]):
                assert dist["p95"] > 0.0
                assert weights["zero"] < 120


def scaled(noisy, scale):
    return Sequence(tuple(Frame(scale * f.positions, frame_index=f.frame_index) for f in noisy))


def scale_instance(kind, seed):
    """A noisy 3-frame sheet matched with xi > 1 and alpha = 0.5, or one noisy cap frame."""
    if kind == "sheet":
        seq, sigma = small_sequence(3, seed=seed), 0.02
    else:
        seq = generate_sequence(SyntheticSpec("sphere-cap", 150, 1, seed=seed))
        sigma = 0.03
    rng = np.random.default_rng(seed)
    noisy = Sequence(tuple(Frame(f.positions + rng.normal(0, sigma, f.positions.shape),
                                 frame_index=t) for t, f in enumerate(seq)))
    return noisy, small_config(xi=3, alpha=0.5)


class TestScaleEquivariance:
    """Denoising commutes with a scale of the input.

    A power-of-two scale is exact in float64, and every stage then scales
    exactly: the spatial kernel weighs unit normals with a fixed metric,
    and the matching blend divides coordinates by the patch radius. So the
    outputs are bit-equal.
    """

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["sheet", "cap"]), st.sampled_from([-10, 10]),
           st.integers(0, 2**16))
    def test_power_of_two_scale_is_bit_exact(self, kind, k, seed):
        noisy, cfg = scale_instance(kind, seed)
        base, _ = denoise_sequence(noisy, cfg)
        out, reports = denoise_sequence(scaled(noisy, 2.0**k), cfg)
        for a, b in zip(out, base):
            assert np.array_equal(a.positions, 2.0**k * b.positions)
            assert np.array_equal(a.normals, b.normals)
        if k > 0:
            for rep in reports:
                assert all(e["underflow_share"] == 0.0 for e in rep.diagnostics["edge_weights"])

    @pytest.mark.parametrize("kind", ["sheet", "cap"])
    def test_scale_by_1000_keeps_frame_0(self, kind):
        # 1000 is not a power of two, so rounding differs; frame 0 has no
        # temporal matching and stays within rounding of the unit-scale output.
        noisy, cfg = scale_instance(kind, 3)
        base, _ = denoise_sequence(noisy, cfg)
        out, reports = denoise_sequence(scaled(noisy, 1000.0), cfg)
        spacing = reports[0].diagnostics["spacing"] / 1000.0
        gap = np.max(np.abs(out.frames[0].positions / 1000.0 - base.frames[0].positions))
        assert gap <= 1e-8 * spacing
        assert reports[0].diagnostics["edge_weights"][-1]["underflow_share"] == 0.0


class TestPoseEquivariance:
    """Denoising one frame commutes with a rigid motion of the input.

    Normals are signed by the frame's own normal axis and a vote of their
    neighbours, not by a coordinate axis, so a turned and moved frame gives
    the turned and moved output, within the point solve's tolerance.
    """

    @pytest.mark.parametrize("kind", ["sphere-cap", "sphere"])
    def test_turned_and_moved_frame_gives_the_turned_output(self, kind):
        if kind == "sphere":
            clean = oracles.sample_unit_sphere(500, seed=2)
        else:
            clean = generate_sequence(SyntheticSpec(kind, 500, 1, seed=2)).frames[0].positions
        diag = float(np.linalg.norm(np.ptp(clean, axis=0)))
        noisy = clean + np.random.default_rng(3).normal(0.0, 0.01 * diag, clean.shape)
        cfg = DenoiseConfig(k=20, k_s=8, outer_max_iters=2)
        (base,), _ = denoise_sequence(Sequence((Frame(noisy),)), cfg)
        rng = np.random.default_rng(4)
        for _ in range(3):
            turn, shift = oracles.random_rotation(rng), rng.uniform(-1.0, 1.0, 3)
            (out,), _ = denoise_sequence(Sequence((Frame(noisy @ turn.T + shift),)), cfg)
            back = (out.positions - shift) @ turn
            assert np.max(np.abs(back - base.positions)) <= 1e-6 * diag
