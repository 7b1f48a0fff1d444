"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 7 drives the full pipeline through the CLI into a shared tmp
directory; criterion 8 repeats that run in subprocesses at different
thread counts and compares output bytes.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import (
    build_system,
    dense_adjacency,
    dense_laplacians,
    lp_oracle,
    random_graph,
    random_solve_instance,
    row_form,
    sample_gaussian_bump,
)

from dpcdenoise.cli import cli_main
from dpcdenoise.geometry import Frame, estimate_normals
from dpcdenoise.graph import laplacian
from dpcdenoise.io import read_point_cloud
from dpcdenoise.matching import (
    _variation_rows,
    match_patches,
    member_variations,
    patch_distance,
    prepare_reference,
)
from dpcdenoise.metrics import mse_nn
from dpcdenoise.optimize import (
    learn_metric,
    metric_gradient,
    metric_objective,
    project_metric_factor,
    solve_point_cloud,
    solve_temporal_weights,
)
from dpcdenoise.patches import build_patches

# Calibrated end-to-end configuration for the 2000-point, 2%-of-diagonal
# noise instance. Slow deformation and collocated temporal matching
# (xi=1, alpha=0) carry the temporal gain; one patch per point makes the
# spatial consensus strong enough to anneal at this noise level.
E2E_POINTS = 2000
E2E_FRAMES = 3
E2E_AMPLITUDE = 0.05
E2E_PHASE_STEP = 0.005
E2E_SYNTH_SEED = 7
E2E_NOISE_SEED = 11
E2E_CONFIG = {
    "k": 30,
    "patch_fraction": 1.0,
    "k_s": 10,
    "xi": 1,
    "alpha": 0.0,
    "lambda1": 0.5,
    "lambda2": 0.1,
    "mprime_fraction": 0.6,
    "outer_max_iters": 8,
    "outer_tol": 1e-6,
    "pg_step": 1e-5,
    "pg_max_iters": 20,
    "seed": 3,
}
E2E_MIN_REDUCTION = 0.30


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\n[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def plane_frame(n, seed, transform=None):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0.0, 1.0, (n, 2)), np.zeros(n)])
    if transform is not None:
        rot, shift = transform
        pts = pts @ rot.T + shift
    frame, _ = estimate_normals(Frame(pts), 12)
    return frame


def test_criterion_1_property1_plane():
    start = time.perf_counter()
    frame_a = plane_frame(400, seed=1)
    frame_b = plane_frame(400, seed=2)
    patches_a = build_patches(frame_a, 30)
    patches_b = build_patches(frame_b, 30)
    reference = prepare_reference(patches_a)
    matches = match_patches(patches_b, reference, xi=10)
    worst_same = max(matches[1])

    theta = 0.8
    rot = np.array(
        [
            [np.cos(theta), 0.0, np.sin(theta)],
            [0.0, 1.0, 0.0],
            [-np.sin(theta), 0.0, np.cos(theta)],
        ]
    )
    frame_c = plane_frame(400, seed=3, transform=(rot, np.array([2.0, -1.0, 0.5])))
    patches_c = build_patches(frame_c, 30)
    matches_rigid = match_patches(patches_c, reference, xi=10)
    worst_rigid = max(matches_rigid[1])
    elapsed = time.perf_counter() - start

    ok = worst_same <= 1e-9 and worst_rigid <= 1e-6 and elapsed < 5.0
    report(1, "static-plane matching distance", ok,
           f"max same-plane {worst_same:.2e} (<=1e-9), "
           f"max rigid {worst_rigid:.2e} (<=1e-6), {elapsed:.1f}s (<5s)")


def test_criterion_2_property2_ordering():
    start = time.perf_counter()
    wins = 0
    trials = 20
    for t in range(trials):
        variations = []
        for kind_seed, height in ((100 + t, 0.0), (200 + t, 0.0), (300 + t, 0.35), (400 + t, 1.1)):
            pts, _ = sample_gaussian_bump(120, height, seed=kind_seed)
            frame, _ = estimate_normals(Frame(pts), 10)
            variations.append(
                member_variations(frame.positions[None], frame.normals[None], 5.0)[2][0])
        d_flat = patch_distance(variations[0], variations[1])
        d_gentle = patch_distance(variations[0], variations[2])
        d_sharp = patch_distance(variations[0], variations[3])
        if d_flat < d_gentle < d_sharp:
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins >= 19 and elapsed < 10.0
    report(2, "curvature ordering", ok, f"{wins}/20 ordered (>=19), {elapsed:.1f}s (<10s)")


def test_criterion_3_lp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    failures = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        d = rng.integers(0, 33, m) / 16.0   # dyadic: float arithmetic is exact
        mprime = float(rng.integers(1, 4 * m + 1)) / 4.0
        got = solve_temporal_weights(d, mprime)
        oracle_val, _ = lp_oracle(d, mprime)
        feasible = got.sum() >= mprime - 1e-12 and np.all((got >= 0) & (got <= 1))
        if not feasible or float(got @ d) != oracle_val:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    report(3, "temporal-weight LP vs vertex oracle", ok,
           f"{200 - failures}/200 exact, {elapsed:.1f}s (<5s)")


def test_criterion_4_linear_solve_oracle():
    rng = np.random.default_rng(43)
    max_err = 0.0
    max_res = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 61))
        pts, ps, prev, w, edges, pw, lap = random_solve_instance(rng, n)
        u_hat = pts + rng.normal(0, 0.1, pts.shape)
        lam1, lam2 = rng.uniform(0.1, 2.0, 2)
        got, _, _ = solve_point_cloud(u_hat, ps, prev, w, edges, pw, lam1, lam2,
                                      cg_tol=1e-8, cg_max_iters=1000)
        a, b = build_system(u_hat, *row_form(ps, prev, w), lap, lam1, lam2)
        max_err = max(max_err, float(np.max(np.abs(got - np.linalg.solve(a, b)))))
        for col in range(3):
            res = np.linalg.norm(b[:, col] - a @ got[:, col]) / np.linalg.norm(b[:, col])
            max_res = max(max_res, float(res))
    pts, ps, prev, w, edges, pw, lap = random_solve_instance(rng, 30)
    identity, _, _ = solve_point_cloud(pts, ps, prev, w, edges, pw, 0.0, 0.0)
    bit_exact = np.array_equal(identity, pts)
    ok = max_err < 1e-6 and max_res <= 1e-8 and bit_exact
    report(4, "point solve vs dense oracle", ok,
           f"max |diff| {max_err:.2e} (<1e-6), max rel residual {max_res:.2e} (<=1e-8), "
           f"lambda=0 bit-exact {bit_exact}")


def test_criterion_5_metric_learning():
    rng = np.random.default_rng(44)
    worst_rel = 0.0
    for _ in range(20):
        diffs = rng.normal(0, 0.5, (25, 6))
        dsq = rng.uniform(0, 0.2, 25)
        r = project_metric_factor(rng.normal(0, 0.3, (6, 6)), 5.0)
        grad = metric_gradient(r, diffs, dsq)
        fd = np.zeros((6, 6))
        h = 1e-6
        for i in range(6):
            for j in range(6):
                e = np.zeros((6, 6))
                e[i, j] = h
                fd[i, j] = (metric_objective(r + e, diffs, dsq)
                            - metric_objective(r - e, diffs, dsq)) / (2 * h)
        worst_rel = max(worst_rel, np.linalg.norm(grad - fd) / np.linalg.norm(fd))

    diffs = rng.normal(0, 0.5, (60, 6))
    dsq = rng.uniform(0, 0.3, 60)
    fit = learn_metric(diffs, dsq, 5.0, pg_step=1e-3, pg_max_iters=80)
    monotone = bool(np.all(np.diff(fit.objectives) <= 0))

    constraints_ok = True
    r = (5.0 / 6.0) * np.eye(6)
    for _ in range(40):
        r = project_metric_factor(r - 1e-3 * metric_gradient(r, diffs, dsq), 5.0)
        if np.trace(r) > 5.0 + 1e-12 or np.any(np.diagonal(r) < 0):
            constraints_ok = False
    ok = worst_rel < 1e-4 and monotone and constraints_ok
    report(5, "metric-learning gradient and descent", ok,
           f"max FD rel err {worst_rel:.2e} (<1e-4), monotone {monotone}, "
           f"constraints {constraints_ok}")


def unit_graph_distances(n, i, j):
    """A (1, n, n) distance array that puts the edges (i, j), and only them, closer than 1."""
    dist = np.full((1, n, n), 2.0)
    dist[0, i, j] = dist[0, j, i] = 0.0
    return dist


def test_criterion_6_laplacian_suite():
    # The point solve's builder, graph.laplacian with a zero diagonal, on
    # weighted graphs; and the variation kernel's random-walk Laplacian,
    # matching._variation_rows at epsilon 1, on the same graphs with unit
    # weights, as the pipeline runs it.
    rng = np.random.default_rng(45)
    eps = np.ones(1)
    row_sum_ok = True
    psd_ok = True
    agree_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 30))
        i, j, w = random_graph(rng, n)
        lap = laplacian(n, i, j, w, np.zeros(n))
        ones = np.ones(n)
        constant = _variation_rows(unit_graph_distances(n, i, j), np.ones((1, n, 3)), eps)
        if np.max(np.abs(lap @ ones)) > 1e-12 or np.max(np.abs(constant)) > 1e-12:
            row_sum_ok = False
        for _ in range(10):
            x = rng.normal(size=n)
            if x @ (lap @ x) < -1e-10:
                psd_ok = False
    # Isolated nodes: rows stay zero.
    sig = rng.normal(size=(4, 3))
    iso = _variation_rows(unit_graph_distances(4, [0], [1]), sig[None], eps)[0]
    iso_ok = np.array_equal(iso[2], np.zeros(3)) and np.array_equal(iso[3], np.zeros(3))
    for _ in range(30):
        n = int(rng.integers(2, 51))
        i, j, w = random_graph(rng, n)
        lap_d, _ = dense_laplacians(dense_adjacency(n, i, j, w))
        _, rw_d = dense_laplacians(dense_adjacency(n, i, j, 1.0))
        # Each entry of A @ I adds one stored value to zeros, so it is exact.
        if np.max(np.abs(laplacian(n, i, j, w, np.zeros(n)) @ np.eye(n) - lap_d)) > 1e-12:
            agree_ok = False
        rw = _variation_rows(unit_graph_distances(n, i, j), np.eye(n)[None], eps)[0]
        if np.max(np.abs(rw - rw_d)) > 1e-12:
            agree_ok = False
    ok = row_sum_ok and psd_ok and iso_ok and agree_ok
    report(6, "Laplacian operator suite", ok,
           f"row sums {row_sum_ok}, PSD {psd_ok}, isolated rows {iso_ok}, "
           f"sparse=dense {agree_ok}")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Synth -> noise -> denoise (temporal and per-frame) through the CLI."""
    root = tmp_path_factory.mktemp("e2e")
    clean_dir, noisy_dir = root / "clean", root / "noisy"
    denoised_dir, solo_dir = root / "denoised", root / "solo"

    assert cli_main([
        "synth", "--kind", "sinusoid-sheet", "--points", str(E2E_POINTS),
        "--frames", str(E2E_FRAMES), "--amplitude", str(E2E_AMPLITUDE),
        "--phase-step", str(E2E_PHASE_STEP), "--seed", str(E2E_SYNTH_SEED),
        "--out-dir", str(clean_dir),
    ]) == 0
    clean_files = sorted(clean_dir.glob("*.ply"))
    first = read_point_cloud(clean_files[0])
    diag = float(np.linalg.norm(first.positions.max(0) - first.positions.min(0)))
    sigma = 0.02 * diag

    assert cli_main([
        "noise", "--sigma", str(sigma), "--seed", str(E2E_NOISE_SEED),
        "--out-dir", str(noisy_dir), *[str(p) for p in clean_files],
    ]) == 0
    noisy_files = sorted(noisy_dir.glob("*.ply"))

    config_path = root / "acceptance.cfg"
    config_path.write_text(
        "".join(f"{key} = {value}\n" for key, value in E2E_CONFIG.items())
    )
    denoise_args = ["denoise", "--config", str(config_path),
                    *[str(p) for p in noisy_files]]

    start = time.perf_counter()
    assert cli_main(denoise_args + ["--out-dir", str(denoised_dir)]) == 0
    assert cli_main(denoise_args + ["--out-dir", str(solo_dir), "--lambda1", "0"]) == 0
    elapsed = time.perf_counter() - start

    return {
        "root": root,
        "clean": clean_files,
        "noisy": noisy_files,
        "denoised": sorted(denoised_dir.glob("*.ply")),
        "solo": sorted(solo_dir.glob("*.ply")),
        "config_path": config_path,
        "denoise_args": denoise_args,
        "elapsed": elapsed,
        "sigma": sigma,
    }


def test_criterion_7_end_to_end(pipeline_run):
    clean = [read_point_cloud(p) for p in pipeline_run["clean"]]
    noisy = [read_point_cloud(p) for p in pipeline_run["noisy"]]
    denoised = [read_point_cloud(p) for p in pipeline_run["denoised"]]
    solo = [read_point_cloud(p) for p in pipeline_run["solo"]]

    reductions = []
    beats_solo = []
    for t in range(E2E_FRAMES):
        base = mse_nn(noisy[t], clean[t])
        ours = mse_nn(denoised[t], clean[t])
        reductions.append(1.0 - ours / base)
        if t >= 1:
            beats_solo.append(ours <= mse_nn(solo[t], clean[t]))
    elapsed = pipeline_run["elapsed"]
    ok = (
        all(r >= E2E_MIN_REDUCTION for r in reductions)
        and all(beats_solo)
        and elapsed < 300.0
    )
    report(7, "end-to-end denoising", ok,
           "reductions " + " ".join(f"{100 * r:.0f}%" for r in reductions)
           + f" (>= {100 * E2E_MIN_REDUCTION:.0f}%), frames 2-3 <= per-frame "
           + f"{beats_solo}, {elapsed:.0f}s (<300s)")


def test_criterion_8_determinism_across_threads(pipeline_run):
    root = pipeline_run["root"]
    reruns = {}
    for threads in ("1", "4"):
        out_dir = root / f"rerun_t{threads}"
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        cmd = [sys.executable, "-m", "dpcdenoise.cli",
               *pipeline_run["denoise_args"], "--out-dir", str(out_dir)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reruns[threads] = sorted(out_dir.glob("*.ply"))

    identical = True
    for reference in (pipeline_run["denoised"],):
        for threads, files in reruns.items():
            for ref_path, new_path in zip(reference, files):
                if ref_path.read_bytes() != new_path.read_bytes():
                    identical = False
    report(8, "bit-identical reruns across thread counts", identical,
           "outputs byte-equal across OMP_NUM_THREADS in {1, 4}")
