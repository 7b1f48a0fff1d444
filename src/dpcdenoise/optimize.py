"""Alternating minimization over the points and a graph rebuilt on every pass.

Each pass re-estimates the graph from the current points (normals, patches,
temporal matches and weights, spatial pairs) and solves for the points. The
spatial pairs are weighed by the fixed kernel ``exp(-dn^T M dn)`` with
``M = R0^T R0 = (trace_bound / 3)^2 I``, a scalar scale on ``||dn||^2``.
:func:`learn_metric`, Hu et al.'s trace-bounded metric learning from ``R0``,
is a library function the pipeline does not run. The point update's system
comes from :func:`dpcdenoise.graph.laplacian`, solved per axis by CG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .config import DenoiseConfig
from .geometry import Frame, NeighborIndex, Sequence, estimate_normals, knn_rows
from .graph import CsrMatrix, laplacian
from .matching import match_patches, prepare_reference
from .metrics import FrameMetrics
from .patches import PatchSet, all_relative_coords, build_patches
from .stgraph import SpatialEdges, spatial_connectivity, weighted_spatial_graph


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


def objective(
    u: np.ndarray,
    u_hat: np.ndarray,
    members: np.ndarray,
    anchor_rows: np.ndarray,
    prev_aligned: Optional[np.ndarray],
    w_rows: Optional[np.ndarray],
    edges: Optional[SpatialEdges],
    pair_weights: Optional[np.ndarray],
    lambda1: float,
    lambda2: float,
) -> ObjectiveBreakdown:
    """Evaluate the denoising objective at ``u``.

    Patch rows are ``u`` gathered by ``members`` minus ``anchor_rows``
    (the center coordinates fixed when the patches were built); the
    temporal term weighs row differences to the aligned reference rows.
    The spatial term ``tr(P^T L P)`` over the row graph is summed per
    point pair: each pair's weight times its summed row-edge residuals.
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
    if edges is not None and pair_weights is not None:
        _check_spatial(edges, pair_weights, u.shape[0])
        spatial = _psum(pair_weights * edges.residuals(u))
    total = fidelity + lambda1 * temporal + lambda2 * spatial
    return ObjectiveBreakdown(fidelity=fidelity, temporal=temporal, spatial=spatial, total=total)


def _check_spatial(edges: SpatialEdges, pair_weights: np.ndarray, n: int) -> None:
    if pair_weights.shape != (edges.points.shape[0],):
        raise ValueError("pair weights must have one entry per point pair")
    if edges.points.size and edges.points.max() >= n:
        raise ValueError("spatial edges do not match the point count")


def _conjugate_gradient(a: CsrMatrix, b: np.ndarray, x0: np.ndarray,
                        tol: float, max_iters: int) -> tuple[np.ndarray, int, float]:
    """CG for an SPD system, terminating on true relative residual <= tol.

    Returns the solution, the number of products with ``a`` (one per step,
    plus the starting residual and each true-residual check) and the final
    true relative residual.
    """
    b_norm = np.sqrt(_psum(b * b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = x0.copy()
    r = b - a @ x
    products = 1
    rs = _psum(r * r)
    if np.sqrt(rs) <= tol * b_norm:
        return x, products, float(np.sqrt(rs) / b_norm)
    p = r.copy()
    for it in range(max_iters):
        ap = a @ p
        products += 1
        alpha = rs / _psum(p * ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = _psum(r * r)
        if np.sqrt(rs_new) <= tol * b_norm:
            # Recurrence residuals drift; confirm against the true residual.
            true_r = b - a @ x
            products += 1
            true_norm = np.sqrt(_psum(true_r * true_r))
            if true_norm <= tol * b_norm:
                return x, products, float(true_norm / b_norm)
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


def _point_system(
    u_hat: np.ndarray,
    members: np.ndarray,
    anchor_rows: np.ndarray,
    prev_aligned: Optional[np.ndarray],
    w_rows: Optional[np.ndarray],
    edges: Optional[SpatialEdges],
    pair_weights: Optional[np.ndarray],
    lambda1: float,
    lambda2: float,
) -> tuple[CsrMatrix, np.ndarray]:
    """The n x n normal equations ``A U = B`` of the point update.

    ``A = I + l1 diag(S^T W 1) + l2 L`` and ``B = U_hat + l1 S^T W (C + P_ref)
    + l2 F``, where S selects patch rows and C holds the fixed anchor
    centers. L is the Laplacian over points whose edge (lo, hi) weighs
    pair weight times row-edge count, and F sends each pair's weighted
    offset to lo and its negative to hi; together they equal the row
    form ``S^T L_rows S`` and ``S^T L_rows C``. :func:`~dpcdenoise.graph.laplacian`
    builds ``A`` from ``1 + l1 diag(S^T W 1)`` and the l2-weighted pairs, so it
    stores its diagonal and one entry per pair on each side, n + 2 * pairs.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    n = u_hat.shape[0]
    diag = np.ones(n)
    b = u_hat.copy()
    lo = hi = np.empty(0, dtype=np.int64)
    link = np.empty(0)
    if lambda1 > 0 and w_rows is not None and prev_aligned is not None:
        flat = members.ravel()
        diag += lambda1 * np.bincount(flat, weights=w_rows, minlength=n)
        b += lambda1 * _scatter(flat, w_rows[:, None] * (anchor_rows + prev_aligned), n)
    if lambda2 > 0 and edges is not None and pair_weights is not None:
        _check_spatial(edges, pair_weights, n)
        lo, hi = edges.points[:, 0], edges.points[:, 1]
        link = lambda2 * (pair_weights * edges.counts)
        flow = link[:, None] * edges.offsets
        b += _scatter(lo, flow, n) - _scatter(hi, flow, n)
    return laplacian(n, lo, hi, link, diag), b


def _scatter(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Rows of (e, 3) ``values`` summed into n bins by ``index``."""
    return np.column_stack([np.bincount(index, weights=values[:, axis], minlength=n)
                            for axis in range(values.shape[1])])


def solve_point_cloud(
    u_hat: np.ndarray,
    members: np.ndarray,
    anchor_rows: np.ndarray,
    prev_aligned: Optional[np.ndarray],
    w_rows: Optional[np.ndarray],
    edges: Optional[SpatialEdges],
    pair_weights: Optional[np.ndarray],
    lambda1: float,
    lambda2: float,
    cg_tol: float = 1e-8,
    cg_max_iters: int = 500,
) -> tuple[np.ndarray, list, list]:
    """Closed-form point update, solved per coordinate by conjugate gradient.

    Solves the system of :func:`_point_system`, which is SPD with smallest
    eigenvalue at least 1, so CG converges unconditionally. Returns the
    points and, per axis, CG's products with A and its final true relative
    residual.
    """
    a, b = _point_system(u_hat, members, anchor_rows, prev_aligned, w_rows, edges,
                        pair_weights, lambda1, lambda2)
    u_hat = np.asarray(u_hat, dtype=np.float64)
    out = np.empty_like(u_hat)
    products, residuals = [], []
    for col in range(u_hat.shape[1]):
        out[:, col], count, residual = _conjugate_gradient(a, b[:, col], u_hat[:, col],
                                                           cg_tol, cg_max_iters)
        products.append(count)
        residuals.append(residual)
    return out, products, residuals


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
    # Fixed-order two-operand contraction, bit-equal to the three-operand
    # einsum("ei,e,ej->ij") on (diffs, terms, diffs): each product is still
    # (d_ei * t_e) * d_ej. A BLAS matmul would split the pair axis across
    # threads and make the reduction order thread-count-dependent.
    gram = np.einsum("ei,ej->ij", diffs * terms[:, None], diffs, optimize=False)
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

    Minimizes sum_e exp(-||R diffs[e]||^2) * dsq[e]. Edges that share a
    feature difference up to sign may be passed once, with their ``dsq``
    summed: the objective is the same sum, regrouped. Works on the
    factorization M = R^T R so the result is PSD by construction;
    iterates are projected onto {tr(R) <= trace_bound, diagonal >= 0}.
    A candidate that increases the objective is rejected and halves the
    step for the rest of the call; three consecutive rejections, at three
    different steps, abort with a step-size error.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    dsq = np.asarray(dsq, dtype=np.float64).ravel()
    if diffs.ndim != 2 or diffs.shape[0] < 1:
        raise ValueError("need at least one feature-difference pair")
    if dsq.shape[0] != diffs.shape[0]:
        raise ValueError("dsq must have one entry per pair")
    if not (np.all(np.isfinite(diffs)) and np.all(np.isfinite(dsq))):
        raise ValueError("diffs and dsq must be finite")
    if np.any(dsq < 0):
        raise ValueError("dsq must be >= 0")
    if trace_bound <= 0:
        raise ValueError("trace_bound must be > 0")
    dim = diffs.shape[1]
    r = (trace_bound / dim) * np.eye(dim)
    terms = _metric_terms(r, diffs, dsq)
    f_cur = _psum(terms)
    objs = [f_cur]
    strikes = 0
    for _ in range(pg_max_iters):
        if strikes == 0:
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
            pg_step *= 0.5
            continue
        strikes = 0
        decrease = f_cur - f_new
        r, f_cur, terms = candidate, f_new, cand_terms
        objs.append(f_cur)
        if decrease < pg_tol:
            break
    return MetricFit(metric=r.T @ r, factor=r, objectives=tuple(objs))


def _edge_weight_summary(edges: SpatialEdges, pair_weights: np.ndarray) -> dict:
    """p5, p50 and p95 of the row-edge weights, and the share below 1e-12.

    Each pair's weight counts once per row edge; a quantile is the smallest
    weight whose cumulative edge count reaches that share of all edges.
    """
    order = np.argsort(pair_weights, kind="stable")
    cumulative = np.cumsum(edges.counts[order])
    total = cumulative[-1]
    picks = np.searchsorted(cumulative, np.array([0.05, 0.5, 0.95]) * total)
    p5, p50, p95 = (float(w) for w in pair_weights[order][picks])
    below = int(np.sum(edges.counts[pair_weights < 1e-12]))
    return {"p5": p5, "p50": p50, "p95": p95, "underflow_share": below / int(total)}


class PreparedFrame(NamedTuple):
    """A frame with normals, its patches and sizes; ``table`` is None if normals were given."""

    frame: Frame
    patchset: PatchSet
    table: Optional[np.ndarray]
    degenerate_normals: int
    k_plane: int
    k_s: int


def prepare_frame(frame: Frame, config: DenoiseConfig,
                  other_size: Optional[int] = None) -> PreparedFrame:
    """Normals and patches of ``frame``, at the sizes of the pipeline.

    Every point centers one patch of ``k = min(config.k, n - 1)`` neighbors,
    and at most ``other_size - 1`` to match a frame of that size. A patch
    has ``min(config.k_s, k)`` adjacent patches, read from its own row.
    ``frame.normals`` are used when present; otherwise one neighbor table
    serves the normals, their orientation and the patches.
    """
    n = len(frame)
    k = min(config.k, n - 1, (other_size or n) - 1)
    k_plane = min(config.k_plane, n - 1)
    table, degenerate = None, 0
    if frame.normals is None:
        if k_plane < 3:
            raise ValueError("frame too small to estimate normals")
        table = knn_rows(NeighborIndex.from_points(frame.positions), frame.positions,
                         max(k_plane, k) + 1)
        frame, degenerate = estimate_normals(frame, k_plane, table)
    return PreparedFrame(frame, build_patches(frame, k, table), table, degenerate,
                         k_plane, min(config.k_s, k))


def build_reference(previous: Frame, config: DenoiseConfig, current_size: int):
    """Matching data of the previously denoised frame, for a frame of ``current_size``."""
    prepared = prepare_frame(previous, config, current_size)
    return prepare_reference(prepared.frame, prepared.patchset, config.c)


def denoise_frame(
    noisy: Frame,
    previous: Optional[Frame],
    config: DenoiseConfig,
) -> tuple[Frame, FrameMetrics]:
    """Denoise one frame against the previously denoised frame.

    Runs the alternating loop: re-estimate the normals and rebuild patches
    on the current estimate, match them temporally, weigh the
    spatio-temporal graph, and solve for the points. The first pass weighs
    each matched patch by ``exp(-match distance)``, later ones solve the
    weight program. Every pass weighs each point pair by the fixed kernel
    ``exp(-dn^T M dn)`` on its unit-normal difference ``dn``, with
    ``M = R0^T R0 = (trace_bound / 3)^2 I``. Each pass's objective is a sum
    over its own graph, so totals of different passes are not compared.
    The loop stops once a pass moves no point by more than ``outer_tol``
    times the frame's spacing, the mean distance from an input point to
    its nearest other input point (stop reason ``tol``), or after
    ``outer_max_iters`` passes (``max_iters``). It returns the last
    iterate with freshly estimated normals. The report's diagnostics hold
    the stop reason, the spacing and, per pass, the largest point move,
    the mean normal and tangential parts of the moves over the spacing,
    taken on the normals the pass estimated (``normal_move``,
    ``tangent_move``), the row edges and point pairs of the spatial graph,
    edge-weight quantiles and, per axis, the point solve's CG products with A
    (``cg_iters``) and its final true relative residual (``cg_residual``).
    Each pass with a reference also adds the p50 and p95 of its patch match
    distances (``match_dist``) and the counts of patches weighing exactly 0
    and exactly 1 (``patch_weights``); without one those lists stay empty.
    """
    lam1 = config.lambda1 if previous is not None else 0.0
    reference = build_reference(previous, config, len(noisy)) if lam1 > 0 else None
    other_size = len(previous) if reference is not None else None
    lam2 = config.lambda2
    scale = (config.trace_bound / 3) ** 2

    u = np.array(noisy.positions)
    u_hat = noisy.positions
    trace: list[ObjectiveBreakdown] = []
    diagnostics: dict = {"degenerate_normals": [], "spatial_edges": [], "spatial_pairs": [],
                         "edge_weights": [], "cg_iters": [], "cg_residual": [],
                         "largest_move": [], "normal_move": [], "tangent_move": [],
                         "match_dist": [], "patch_weights": [],
                         "stop_reason": "max_iters"}

    for it in range(config.outer_max_iters):
        est, patchset, table, degen, k_plane_eff, k_s_eff = prepare_frame(
            Frame(u, None, noisy.frame_index), config, other_size)
        if it == 0:
            # Column 1 is each input point's nearest other point, or the point
            # itself behind a duplicate of lower index: the same distance either way.
            spacing = float(np.mean(np.sqrt(np.sum((u[table[:, 1]] - u) ** 2, axis=1))))
            diagnostics["spacing"] = spacing
        diagnostics["degenerate_normals"].append(degen)
        members = patchset.members
        anchor_rows = np.repeat(u, patchset.k + 1, axis=0)

        prev_aligned = None
        w_rows = None
        if reference is not None:
            try:
                matched, match_dist, point_map = match_patches(
                    est, patchset, reference, config.xi, config.alpha, config.c)
            except ValueError as exc:
                raise SolverError(f"temporal matching failed at outer iteration {it}: {exc}",
                                  iteration=it) from exc
            prev_aligned = reference.rel[matched[:, None], point_map].reshape(-1, 3)
            if it == 0:
                patch_weights = np.exp(-match_dist)
            else:
                rel = all_relative_coords(patchset, u)
                gaps = rel - prev_aligned.reshape(rel.shape)
                patch_weights = solve_temporal_weights(np.sum(gaps * gaps, axis=(1, 2)),
                                                       config.weight_floor(len(patchset)))
            w_rows = np.repeat(patch_weights, patchset.k + 1)
            p50, p95 = np.quantile(match_dist, [0.5, 0.95], method="inverted_cdf")
            diagnostics["match_dist"].append({"p50": float(p50), "p95": float(p95)})
            diagnostics["patch_weights"].append({"zero": int(np.sum(patch_weights == 0)),
                                                 "one": int(np.sum(patch_weights == 1))})

        edges = pair_weights = None
        try:
            if lam2 > 0 and k_s_eff >= 1:
                edges = spatial_connectivity(patchset, u, k_s_eff)
                diagnostics["spatial_edges"].append(len(edges))
                diagnostics["spatial_pairs"].append(edges.points.shape[0])
                pair_weights = weighted_spatial_graph(edges, est.normals, scale)
                diagnostics["edge_weights"].append(_edge_weight_summary(edges, pair_weights))
            u_new, cg_iters, cg_residual = solve_point_cloud(
                u_hat, members, anchor_rows, prev_aligned, w_rows, edges, pair_weights,
                lam1, lam2, config.cg_tol, config.cg_max_iters,
            )
        except SolverError as exc:
            if exc.iteration is None:
                exc.iteration = it
                exc.args = (f"{exc.args[0]} (outer iteration {it})",)
            raise

        diagnostics["cg_iters"].append(cg_iters)
        diagnostics["cg_residual"].append(cg_residual)
        trace.append(objective(u_new, u_hat, members, anchor_rows, prev_aligned, w_rows,
                               edges, pair_weights, lam1, lam2))
        step = u_new - u
        move = float(np.max(np.sqrt(np.sum(step ** 2, axis=1))))
        diagnostics["largest_move"].append(move)
        along = np.sum(step * est.normals, axis=1)
        tangent = step - along[:, None] * est.normals
        diagnostics["normal_move"].append(float(np.mean(np.abs(along)) / spacing))
        diagnostics["tangent_move"].append(
            float(np.mean(np.sqrt(np.sum(tangent ** 2, axis=1))) / spacing))
        u = u_new
        if move <= config.outer_tol * spacing:
            diagnostics["stop_reason"] = "tol"
            break

    out, _ = estimate_normals(Frame(u, None, noisy.frame_index), k_plane_eff)
    report = FrameMetrics(
        frame_index=noisy.frame_index,
        objective_trace=list(trace),
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
