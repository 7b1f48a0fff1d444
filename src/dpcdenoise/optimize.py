"""Alternating minimization: point update, temporal weights, metric learning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .config import DenoiseConfig
from .geometry import Frame, Sequence, estimate_normals
from .graph import combinatorial_laplacian
from .matching import match_patches, prepare_reference
from .metrics import FrameMetrics
from .patches import all_relative_coords, build_patches
from .stgraph import (
    TemporalWeights,
    initial_spatial_weights,
    row_features,
    spatial_connectivity,
    temporal_weight_init,
    weighted_spatial_graph,
)


class SolverError(RuntimeError):
    """A numerical solver failed to meet its contract."""

    def __init__(self, message: str, *, residual: float | None = None,
                 trace: float | None = None, iteration: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.trace = trace
        self.iteration = iteration


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The three terms of the denoising objective and their weighted sum."""

    fidelity: float
    temporal: float
    spatial: float
    total: float


def _psum(values: np.ndarray) -> float:
    # Pairwise summation; deterministic regardless of BLAS threading.
    return float(np.sum(values))


def _selection_operator(members: np.ndarray, n_points: int) -> sp.csr_matrix:
    """Sparse row-selection operator mapping points to patch rows."""
    flat = members.ravel()
    rows = np.arange(flat.size)
    data = np.ones(flat.size)
    return sp.csr_matrix((data, (rows, flat)), shape=(flat.size, n_points))


def objective(
    u: np.ndarray,
    u_hat: np.ndarray,
    members: np.ndarray,
    anchor_rows: np.ndarray,
    prev_aligned: Optional[np.ndarray],
    w_rows: Optional[np.ndarray],
    laplacian: Optional[sp.spmatrix],
    lambda1: float,
    lambda2: float,
) -> ObjectiveBreakdown:
    """Evaluate the denoising objective at ``u``.

    Patch rows are ``u`` gathered by ``members`` minus ``anchor_rows``
    (the center coordinates fixed when the patches were built); the
    temporal term weighs row differences to the aligned reference rows,
    and the spatial term is the Laplacian quadratic form.
    """
    u = np.asarray(u, dtype=np.float64)
    u_hat = np.asarray(u_hat, dtype=np.float64)
    if u.shape != u_hat.shape:
        raise ValueError("u and u_hat must have the same shape")
    flat = members.ravel()
    p = u[flat] - anchor_rows
    if p.shape != anchor_rows.shape:
        raise ValueError("anchor rows do not match the patch layout")
    fidelity = _psum((u - u_hat) ** 2)
    temporal = 0.0
    if w_rows is not None and prev_aligned is not None:
        if prev_aligned.shape != p.shape or w_rows.shape[0] != p.shape[0]:
            raise ValueError("temporal term dimensions do not match")
        temporal = _psum(w_rows * np.sum((p - prev_aligned) ** 2, axis=1))
    spatial = 0.0
    if laplacian is not None:
        if laplacian.shape[0] != p.shape[0]:
            raise ValueError("laplacian size does not match the patch layout")
        spatial = _psum(p * (laplacian @ p))
    total = fidelity + lambda1 * temporal + lambda2 * spatial
    return ObjectiveBreakdown(fidelity=fidelity, temporal=temporal, spatial=spatial, total=total)


def _conjugate_gradient(a: sp.spmatrix, b: np.ndarray, x0: np.ndarray,
                        tol: float, max_iters: int) -> np.ndarray:
    """CG for an SPD system, terminating on true relative residual <= tol."""
    b_norm = np.sqrt(_psum(b * b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    x = x0.copy()
    r = b - a @ x
    if np.sqrt(_psum(r * r)) <= tol * b_norm:
        return x0.copy()
    p = r.copy()
    rs = _psum(r * r)
    for it in range(max_iters):
        ap = a @ p
        alpha = rs / _psum(p * ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = _psum(r * r)
        if np.sqrt(rs_new) <= tol * b_norm:
            # Recurrence residuals drift; confirm against the true residual.
            true_r = b - a @ x
            true_norm = np.sqrt(_psum(true_r * true_r))
            if true_norm <= tol * b_norm:
                return x
            r = true_r
            rs_new = true_norm * true_norm
            p = r.copy()
            rs = rs_new
            continue
        p = r + (rs_new / rs) * p
        rs = rs_new
    achieved = np.sqrt(_psum((b - a @ x) ** 2)) / b_norm
    raise SolverError(
        f"conjugate gradient failed to reach tolerance {tol:g} "
        f"(achieved relative residual {achieved:.3e} after {max_iters} iterations)",
        residual=float(achieved),
    )


def solve_point_cloud(
    u_hat: np.ndarray,
    members: np.ndarray,
    anchor_rows: np.ndarray,
    prev_aligned: Optional[np.ndarray],
    w_rows: Optional[np.ndarray],
    laplacian: Optional[sp.spmatrix],
    lambda1: float,
    lambda2: float,
    cg_tol: float = 1e-8,
    cg_max_iters: int = 500,
) -> np.ndarray:
    """Closed-form point update, solved per coordinate by conjugate gradient.

    Solves (I + l1 S^T W S + l2 S^T L S) U = U_hat + l1 S^T W (C + P_ref)
    + l2 S^T L C, where S selects patch rows and C holds the fixed
    anchor centers. The system matrix is SPD with smallest eigenvalue
    at least 1, so CG converges unconditionally.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    n = u_hat.shape[0]
    s = _selection_operator(members, n)
    a = sp.identity(n, format="csr")
    b = u_hat.copy()
    if lambda1 > 0 and w_rows is not None and prev_aligned is not None:
        flat = members.ravel()
        diag = np.bincount(flat, weights=w_rows, minlength=n)
        a = a + sp.diags(lambda1 * diag)
        b = b + lambda1 * (s.T @ (w_rows[:, None] * (anchor_rows + prev_aligned)))
    if lambda2 > 0 and laplacian is not None:
        a = a + lambda2 * (s.T @ (laplacian @ s))
        b = b + lambda2 * (s.T @ (laplacian @ anchor_rows))
    a = a.tocsr()
    out = np.empty_like(u_hat)
    for col in range(u_hat.shape[1]):
        out[:, col] = _conjugate_gradient(a, b[:, col], u_hat[:, col], cg_tol, cg_max_iters)
    return out


def solve_temporal_weights(d: np.ndarray, mprime: float) -> np.ndarray:
    """Minimize w.d subject to 0 <= w <= 1 and sum(w) >= mprime.

    The constraint set has fractional-knapsack structure, so the
    optimum is closed form: give weight 1 to the floor(mprime) smallest
    entries of d, the fractional remainder to the next smallest, and 0
    to the rest; ties go to the lower patch index.
    """
    d = np.asarray(d, dtype=np.float64).ravel()
    if d.size < 1:
        raise ValueError("need at least one patch difference")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("patch differences must be finite and >= 0")
    m = d.size
    if not 0.0 < mprime <= m:
        raise ValueError("infeasible weight floor: need 0 < mprime <= m")
    order = np.argsort(d, kind="stable")
    w = np.zeros(m)
    nfull = int(np.floor(mprime))
    w[order[:nfull]] = 1.0
    remainder = mprime - nfull
    if remainder > 0 and nfull < m:
        w[order[nfull]] = remainder
    return w


def _metric_terms(factor: np.ndarray, diffs: np.ndarray, dsq: np.ndarray) -> np.ndarray:
    rx = diffs @ factor.T
    return np.exp(-np.einsum("ei,ei->e", rx, rx)) * dsq


def metric_objective(factor: np.ndarray, diffs: np.ndarray, dsq: np.ndarray) -> float:
    """Sum over pairs of exp(-||R df||^2) * d."""
    return _psum(_metric_terms(factor, diffs, dsq))


def _metric_gradient_from_terms(factor: np.ndarray, diffs: np.ndarray,
                                terms: np.ndarray) -> np.ndarray:
    # Fixed-order contraction: a BLAS matmul would split the pair axis
    # across threads and make the reduction order thread-count-dependent.
    gram = np.einsum("ei,e,ej->ij", diffs, terms, diffs, optimize=False)
    return -2.0 * factor @ gram


def metric_gradient(factor: np.ndarray, diffs: np.ndarray, dsq: np.ndarray) -> np.ndarray:
    """Gradient of :func:`metric_objective` with respect to the factor R."""
    return _metric_gradient_from_terms(factor, diffs, _metric_terms(factor, diffs, dsq))


def project_metric_factor(factor: np.ndarray, bound: float) -> np.ndarray:
    """Project onto {tr(R) <= bound, diagonal >= 0}.

    Negative diagonal entries are clamped to zero; if the trace still
    exceeds the bound, the diagonal is scaled down to meet it.
    Off-diagonal entries are untouched.
    """
    r = np.array(factor, dtype=np.float64)
    diag = np.diagonal(r).copy()
    if np.all(diag >= 0) and diag.sum() <= bound:
        return r
    diag = np.maximum(diag, 0.0)
    total = diag.sum()
    if total > bound:
        diag *= bound / total
    np.fill_diagonal(r, diag)
    return r


@dataclass(frozen=True)
class MetricFit:
    """Result of metric learning: M = R^T R plus the iteration history."""

    metric: np.ndarray
    factor: np.ndarray
    objectives: tuple


def learn_metric(
    diffs: np.ndarray,
    dsq: np.ndarray,
    trace_bound: float,
    pg_step: float = 1e-3,
    pg_max_iters: int = 100,
    pg_tol: float = 1e-6,
) -> MetricFit:
    """Learn a Mahalanobis metric by projected proximal gradient descent.

    Works on the factorization M = R^T R so the result is PSD by
    construction; iterates are projected onto {tr(R) <= trace_bound,
    diagonal >= 0}. Candidates that increase the objective are rejected;
    three consecutive rejections abort with a step-size error.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    dsq = np.asarray(dsq, dtype=np.float64).ravel()
    if diffs.ndim != 2 or diffs.shape[0] < 1:
        raise ValueError("need at least one feature-difference pair")
    if dsq.shape[0] != diffs.shape[0]:
        raise ValueError("dsq must have one entry per pair")
    if trace_bound <= 0:
        raise ValueError("trace_bound must be > 0")
    dim = diffs.shape[1]
    r = (trace_bound / dim) * np.eye(dim)
    terms = _metric_terms(r, diffs, dsq)
    f_cur = _psum(terms)
    objs = [f_cur]
    strikes = 0
    for _ in range(pg_max_iters):
        grad = _metric_gradient_from_terms(r, diffs, terms)
        candidate = project_metric_factor(r - pg_step * grad, trace_bound)
        cand_terms = _metric_terms(candidate, diffs, dsq)
        f_new = _psum(cand_terms)
        if not np.isfinite(f_new) or f_new > f_cur:
            strikes += 1
            if strikes >= 3:
                raise SolverError(
                    "step size too large: metric objective increased three times in a row",
                    trace=float(np.trace(r)),
                )
            continue
        strikes = 0
        decrease = f_cur - f_new
        r, f_cur, terms = candidate, f_new, cand_terms
        objs.append(f_cur)
        if decrease < pg_tol:
            break
    return MetricFit(metric=r.T @ r, factor=r, objectives=tuple(objs))


def _fps_seed(base_seed: int, frame_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, frame_index)).generate_state(1)[0])


def _build_reference(previous: Frame, config: DenoiseConfig, k_eff: int):
    prev_frame, _ = estimate_normals(previous, min(config.k_plane, len(previous) - 1))
    m_prev = config.patch_count(len(previous))
    patchset = build_patches(prev_frame, m_prev, k_eff, _fps_seed(config.seed, previous.frame_index))
    return prepare_reference(prev_frame, patchset, config.c)


def denoise_frame(
    noisy: Frame,
    previous: Optional[Frame],
    config: DenoiseConfig,
) -> tuple[Frame, FrameMetrics]:
    """Denoise one frame against the previously denoised frame.

    Runs the alternating loop: rebuild patches on the current estimate,
    match them temporally, refresh the spatio-temporal graph (closed
    forms on the first pass, the weight program and metric learning
    afterwards), and solve for the points. Stops when the objective
    stops improving and returns the iterate with the lowest recorded
    objective, with freshly estimated normals.
    """
    n = len(noisy)
    k_plane_eff = min(config.k_plane, n - 1)
    if k_plane_eff < 3:
        raise ValueError("frame too small to estimate normals")
    k_eff = min(config.k, n - 1)
    lam1 = config.lambda1 if previous is not None else 0.0
    reference = None
    if lam1 > 0:
        k_eff = min(k_eff, len(previous) - 1)
        reference = _build_reference(previous, config, k_eff)
    m = config.patch_count(n)
    k_s_eff = min(config.k_s, m - 1)
    mprime = config.weight_floor(m)
    fps_seed = _fps_seed(config.seed, noisy.frame_index)
    lam2 = config.lambda2

    u = np.array(noisy.positions)
    u_hat = noisy.positions
    trace: list[ObjectiveBreakdown] = []
    diagnostics: dict = {"degenerate_normals": [], "metric_trace": [], "factor_trace": []}
    best_total = np.inf
    best_u = u
    best_it = -1
    prev_total = None

    for it in range(config.outer_max_iters):
        est, degen = estimate_normals(Frame(u, None, noisy.frame_index), k_plane_eff)
        diagnostics["degenerate_normals"].append(degen)
        patchset = build_patches(est, m, k_eff, fps_seed)
        members = patchset.members
        rel = all_relative_coords(patchset, u)
        p_rows = rel.reshape(-1, 3)
        anchor_rows = np.repeat(u[members[:, 0]], k_eff + 1, axis=0)

        prev_aligned = None
        w_rows = None
        d_vec = None
        if reference is not None:
            try:
                matched, match_dist, point_map = match_patches(
                    est, patchset, reference, config.xi, config.alpha, config.c)
            except ValueError as exc:
                raise SolverError(f"temporal matching failed at outer iteration {it}: {exc}",
                                  iteration=it) from exc
            prev_aligned = reference.rel[matched[:, None], point_map].reshape(-1, 3)
            gaps = (p_rows - prev_aligned).reshape(m, k_eff + 1, 3)
            d_vec = np.sum(gaps * gaps, axis=(1, 2))

        pairs = (
            spatial_connectivity(patchset, u, k_s_eff)
            if (lam2 > 0 and k_s_eff >= 1)
            else np.empty((0, 2), dtype=np.int64)
        )
        feats = row_features(patchset, u, est.normals) if pairs.size else None

        try:
            if it == 0:
                if reference is not None:
                    w_rows = temporal_weight_init(match_dist, k_eff).expand()
                graph = initial_spatial_weights(pairs, feats) if pairs.size else None
            else:
                if reference is not None:
                    w_rows = TemporalWeights(solve_temporal_weights(d_vec, mprime), k_eff).expand()
                if pairs.size:
                    diffs = feats[pairs[:, 0]] - feats[pairs[:, 1]]
                    dsq = np.sum((p_rows[pairs[:, 0]] - p_rows[pairs[:, 1]]) ** 2, axis=1)
                    fit = learn_metric(diffs, dsq, config.trace_bound,
                                       config.pg_step, config.pg_max_iters, config.pg_tol)
                    diagnostics["metric_trace"].append(float(np.trace(fit.metric)))
                    diagnostics["factor_trace"].append(float(np.trace(fit.factor)))
                    graph = weighted_spatial_graph(pairs, feats, fit.metric)
                else:
                    graph = None
            laplacian = combinatorial_laplacian(graph) if graph is not None else None
            u_new = solve_point_cloud(
                u_hat, members, anchor_rows, prev_aligned, w_rows, laplacian,
                lam1, lam2, config.cg_tol, config.cg_max_iters,
            )
        except SolverError as exc:
            if exc.iteration is None:
                exc.iteration = it
                exc.args = (f"{exc.args[0]} (outer iteration {it})",)
            raise

        obj = objective(u_new, u_hat, members, anchor_rows, prev_aligned, w_rows,
                        laplacian, lam1, lam2)
        trace.append(obj)
        if obj.total < best_total:
            best_total, best_u, best_it = obj.total, u_new, it
        converged = np.array_equal(u_new, u)
        if prev_total is not None:
            if obj.total > prev_total:
                break
            if (prev_total - obj.total) <= config.outer_tol * max(prev_total, 1e-300):
                u = u_new
                break
        prev_total = obj.total
        u = u_new
        if converged:
            break

    out, _ = estimate_normals(Frame(best_u, None, noisy.frame_index), k_plane_eff)
    report = FrameMetrics(
        frame_index=noisy.frame_index,
        objective_trace=list(trace),
        best_iteration=best_it,
        diagnostics=diagnostics,
    )
    return out, report


def denoise_sequence(noisy: Sequence, config: DenoiseConfig) -> tuple[Sequence, list]:
    """Denoise a sequence frame by frame.

    The first frame is denoised without a temporal term; every later
    frame uses the already-denoised predecessor as its reference.
    """
    denoised = []
    reports = []
    previous = None
    for frame in noisy:
        out, report = denoise_frame(frame, previous, config)
        denoised.append(out)
        reports.append(report)
        previous = out
    return Sequence(tuple(denoised), name=noisy.name, units=noisy.units), reports
