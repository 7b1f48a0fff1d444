"""Alternating minimization over the points and a graph rebuilt on every pass.

Each pass re-estimates the graph from the current points (normals, patches,
temporal matches and weights, spatial pairs) and solves for the points. The
spatial pairs are weighed by Hu et al.'s kernel ``exp(-dn^T M dn)`` at its
starting metric ``M = (trace_bound / 3)^2 I``, one fixed scale on ``||dn||^2``;
the metric is not learned. The point update's system comes from
:func:`dpcdenoise.graph.laplacian`, solved per axis by CG.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .config import DenoiseConfig
from .geometry import Frame, Sequence, estimate_normals, knn_rows
from .graph import CsrMatrix, laplacian
from .matching import match_patches, prepare_reference
from .metrics import FrameMetrics
from .patches import PatchSet, build_patches, frame_spacing
from .stgraph import SpatialEdges, spatial_connectivity, weighted_spatial_graph


class SolverError(RuntimeError):
    """A numerical solver failed to meet its contract, reaching relative ``residual``.

    From :func:`denoise_frame` the message ends with the failing pass,
    ``(outer iteration N)``, and ``__cause__`` is the solver's own error.
    """

    def __init__(self, message: str, *, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _psum(values: np.ndarray) -> float:
    # Pairwise summation; deterministic regardless of BLAS threading.
    return float(np.sum(values))


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
    patchset: PatchSet,
    prev_rel: Optional[np.ndarray],
    patch_weights: Optional[np.ndarray],
    edges: Optional[SpatialEdges],
    pair_weights: Optional[np.ndarray],
    lambda1: float,
    lambda2: float,
) -> tuple[CsrMatrix, np.ndarray]:
    """The n x n normal equations ``A U = B`` of the point update.

    ``A = I + l1 diag(S^T W 1) + l2 L`` and ``B = U_hat + l1 S^T W (C + P_ref)
    + l2 F``. S selects the patch set's member rows, C holds each row's patch
    center, and W and ``P_ref`` are the (m,) ``patch_weights`` and the (m, k+1, 3)
    ``prev_rel`` expanded to rows. L is the Laplacian over points whose edge (lo, hi) weighs
    pair weight times row-edge count, and F sends each pair's weighted
    offset to lo and its negative to hi; together they equal the row
    form ``S^T L_rows S`` and ``S^T L_rows C``. :func:`~dpcdenoise.graph.laplacian`
    builds ``A`` from ``1 + l1 diag(S^T W 1)`` and the l2-weighted pairs, so it
    stores its diagonal and one entry per pair on each side, n + 2 * pairs.
    A term is added exactly when its arrays are given, each with its weights;
    at a zero lambda it adds exact zeros.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    n = u_hat.shape[0]
    if len(patchset) != n:
        raise ValueError("the patch set must have one patch per point")
    if (prev_rel is None) != (patch_weights is None) or prev_rel is not None and (
            prev_rel.shape != patchset.rel.shape or patch_weights.shape != (n,)):
        raise ValueError("prev_rel and patch_weights must both fit the patch set or both be None")
    if (edges is None) != (pair_weights is None):
        raise ValueError("edges and pair_weights must both be given or both be None")
    diag = np.ones(n)
    b = u_hat.copy()
    lo = hi = np.empty(0, dtype=np.int64)
    link = np.empty(0)
    if prev_rel is not None:
        flat = patchset.members.ravel()
        weights = np.repeat(patch_weights, patchset.k + 1)
        targets = (patchset.frame.positions[:, None] + prev_rel).reshape(-1, 3)
        diag += lambda1 * np.bincount(flat, weights=weights, minlength=n)
        b += lambda1 * _scatter(flat, weights[:, None] * targets, n)
    if edges is not None:
        if pair_weights.shape != (edges.points.shape[0],):
            raise ValueError("pair weights must have one entry per point pair")
        if edges.points.size and edges.points.max() >= n:
            raise ValueError("spatial edges do not match the point count")
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
    patchset: PatchSet,
    prev_rel: Optional[np.ndarray],
    patch_weights: Optional[np.ndarray],
    edges: Optional[SpatialEdges],
    pair_weights: Optional[np.ndarray],
    lambda1: float,
    lambda2: float,
    cg_tol: float = DenoiseConfig.cg_tol,
    cg_max_iters: int = DenoiseConfig.cg_max_iters,
) -> tuple[np.ndarray, list, list]:
    """Closed-form point update, solved per coordinate by conjugate gradient.

    Solves the system of :func:`_point_system`, which is SPD with smallest
    eigenvalue at least 1, so CG converges unconditionally; its S, W and C
    are read from ``patchset``. Returns the points and, per axis, CG's
    products with A and its final true relative residual.
    """
    a, b = _point_system(u_hat, patchset, prev_rel, patch_weights, edges, pair_weights,
                         lambda1, lambda2)
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
    """The patches of a frame with normals, ``patchset.frame``, and its sizes."""

    patchset: PatchSet
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
        table = knn_rows(frame.positions, frame.positions, max(k_plane, k) + 1)
        frame, degenerate = estimate_normals(frame, k_plane, table)
    return PreparedFrame(build_patches(frame, k, table), degenerate, k_plane, min(config.k_s, k))


def build_reference(previous: Frame, config: DenoiseConfig, current_size: int):
    """Matching data of the previously denoised frame, for a frame of ``current_size``;
    a ``ValueError`` is raised again naming that frame, as the fault lies there."""
    try:
        prepared = prepare_frame(previous, config, current_size)
        return prepare_reference(prepared.patchset, config.c)
    except ValueError as exc:
        raise ValueError(f"reference frame {previous.frame_index}: {exc}") from exc


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
    ``M = (trace_bound / 3)^2 I``. The loop evaluates no
    objective: each pass builds its own graph, so the totals of two passes
    would not be comparable. The loop stops once a pass moves no point by more than ``outer_tol``
    times the frame's spacing, the mean distance from an input point to
    its nearest other input point (stop reason ``tol``), or after
    ``outer_max_iters`` passes (``max_iters``), and returns the last
    iterate with freshly estimated normals. A frame whose every point has
    an exact duplicate has spacing 0 and raises ValueError before its first
    point solve. The report's diagnostics hold the stop reason, the
    spacing and, per pass, the largest point move, the mean normal and
    tangential parts of the moves over the spacing,
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
    diagnostics: dict = {"degenerate_normals": [], "spatial_edges": [], "spatial_pairs": [],
                         "edge_weights": [], "cg_iters": [], "cg_residual": [],
                         "largest_move": [], "normal_move": [], "tangent_move": [],
                         "match_dist": [], "patch_weights": [],
                         "stop_reason": "max_iters"}

    for it in range(config.outer_max_iters):
        patchset, degen, k_plane_eff, k_s_eff = prepare_frame(
            Frame(u, None, noisy.frame_index), config, other_size)
        normals = patchset.frame.normals
        if it == 0:
            spacing = diagnostics["spacing"] = frame_spacing(patchset)
        diagnostics["degenerate_normals"].append(degen)

        prev_rel = patch_weights = None
        if reference is not None:
            matched, match_dist, point_map = match_patches(patchset, reference, config.xi,
                                                           config.alpha)
            prev_rel = reference.patchset.rel[matched[:, None], point_map]
            if it == 0:
                patch_weights = np.exp(-match_dist)
            else:
                gaps = patchset.rel - prev_rel
                patch_weights = solve_temporal_weights(np.sum(gaps * gaps, axis=(1, 2)),
                                                       config.mprime_fraction * len(patchset))
            p50, p95 = np.quantile(match_dist, [0.5, 0.95], method="inverted_cdf")
            diagnostics["match_dist"].append({"p50": float(p50), "p95": float(p95)})
            diagnostics["patch_weights"].append({"zero": int(np.sum(patch_weights == 0)),
                                                 "one": int(np.sum(patch_weights == 1))})

        edges = pair_weights = None
        if lam2 > 0:
            edges = spatial_connectivity(patchset, k_s_eff)
            diagnostics["spatial_edges"].append(len(edges))
            diagnostics["spatial_pairs"].append(edges.points.shape[0])
            pair_weights = weighted_spatial_graph(edges, normals, scale)
            diagnostics["edge_weights"].append(_edge_weight_summary(edges, pair_weights))
        try:
            u_new, cg_iters, cg_residual = solve_point_cloud(
                u_hat, patchset, prev_rel, patch_weights, edges, pair_weights,
                lam1, lam2, config.cg_tol, config.cg_max_iters,
            )
        except SolverError as exc:
            raise SolverError(f"{exc} (outer iteration {it})", residual=exc.residual) from exc

        diagnostics["cg_iters"].append(cg_iters)
        diagnostics["cg_residual"].append(cg_residual)
        step = u_new - u
        move = float(np.max(np.sqrt(np.sum(step ** 2, axis=1))))
        diagnostics["largest_move"].append(move)
        along = np.sum(step * normals, axis=1)
        tangent = step - along[:, None] * normals
        diagnostics["normal_move"].append(float(np.mean(np.abs(along)) / spacing))
        diagnostics["tangent_move"].append(
            float(np.mean(np.sqrt(np.sum(tangent ** 2, axis=1))) / spacing))
        u = u_new
        if move <= config.outer_tol * spacing:
            diagnostics["stop_reason"] = "tol"
            break

    out, _ = estimate_normals(Frame(u, None, noisy.frame_index), k_plane_eff)
    return out, FrameMetrics(frame_index=noisy.frame_index, diagnostics=diagnostics)


def denoise_sequence(noisy: Sequence, config: DenoiseConfig) -> tuple[Sequence, list]:
    """Denoise a sequence frame by frame.

    The first frame is denoised without a temporal term; every later
    frame uses the already-denoised predecessor as its reference. A
    frame's ``ValueError`` is raised again with the frame's index in front.
    """
    denoised = []
    reports = []
    previous = None
    for frame in noisy:
        try:
            out, report = denoise_frame(frame, previous, config)
        except ValueError as exc:
            raise ValueError(f"frame {frame.frame_index}: {exc}") from exc
        denoised.append(out)
        reports.append(report)
        previous = out
    return Sequence(tuple(denoised)), reports
