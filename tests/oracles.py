"""Independent reference implementations shared by the test modules.

Everything here is deliberately brute force: dense matrices, exhaustive
enumeration, O(n^2) scans. These stay independent of the library code
paths they check.
"""

import itertools

import numpy as np


def brute_knn(points, query, k, exclude=None):
    """Sort all points by (distance, index), drop excluded, take k."""
    d = np.sqrt(np.sum((points - query) ** 2, axis=1))
    order = np.lexsort((np.arange(len(points)), d))
    if exclude is not None:
        order = order[order != exclude]
    return order[:k]


def variation_rows(points, normals, epsilon):
    """Per-patch variation rows: the epsilon graph's random-walk Laplacian on the normals.

    Builds one kd-tree epsilon graph and one sparse Laplacian per call;
    the batched passes in ``dpcdenoise.matching`` must match it bit for bit.
    """
    from dpcdenoise.graph import apply_rw, build_epsilon_graph, random_walk_laplacian

    lap = random_walk_laplacian(build_epsilon_graph(np.asarray(points, dtype=np.float64), epsilon))
    return apply_rw(lap, np.asarray(normals, dtype=np.float64))


def dense_laplacians(graph):
    """Dense adjacency, combinatorial Laplacian, random-walk Laplacian."""
    n = graph.node_count
    a = np.zeros((n, n))
    for i, j, w in zip(graph.edge_i, graph.edge_j, graph.weights):
        a[i, j] = a[j, i] = w
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    rw = np.zeros((n, n))
    for i in range(n):
        if deg[i] > 0:
            rw[i] = -a[i] / deg[i]
            rw[i, i] = 1.0
    return a, lap, rw


def random_graph(rng, n):
    """Random weighted graph on n nodes with ~40% edge density."""
    from dpcdenoise.graph import SparseGraph

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.random(len(pairs)) < 0.4
    chosen = [p for p, t in zip(pairs, take) if t]
    if not chosen:
        chosen = [(0, min(1, n - 1))] if n > 1 else []
    i = [p[0] for p in chosen]
    j = [p[1] for p in chosen]
    w = rng.uniform(0.1, 2.0, len(chosen))
    return SparseGraph.from_edges(n, i, j, w)


def lp_oracle(d, mprime):
    """Vertex enumeration for min w.d s.t. 0 <= w <= 1, sum(w) >= mprime.

    Vertices of the feasible polytope have at most one fractional
    coordinate; enumerate all 0/1 patterns plus patterns with one
    coordinate set to the slack needed to meet the sum constraint.
    """
    m = len(d)
    best = None
    for bits in itertools.product([0.0, 1.0], repeat=m):
        w = np.array(bits)
        if w.sum() >= mprime:
            val = float(w @ d)
            if best is None or val < best[0] - 1e-15:
                best = (val, w)
    frac = mprime - np.floor(mprime)
    if frac > 0:
        for bits in itertools.product([0.0, 1.0], repeat=m):
            for slot in range(m):
                if bits[slot] == 1.0:
                    continue
                w = np.array(bits)
                need = mprime - w.sum()
                if 0 < need < 1:
                    w2 = w.copy()
                    w2[slot] = need
                    val = float(w2 @ d)
                    if best is None or val < best[0] - 1e-15:
                        best = (val, w2)
    return best


def build_system(u_hat, members, anchors, prev_aligned, w_rows, lap, lam1, lam2):
    """Dense assembly of the point-update normal equations."""
    n = u_hat.shape[0]
    rows = members.size
    s = np.zeros((rows, n))
    s[np.arange(rows), members.ravel()] = 1.0
    a = np.eye(n)
    b = u_hat.copy()
    if w_rows is not None:
        w = np.diag(w_rows)
        a += lam1 * s.T @ w @ s
        b += lam1 * s.T @ w @ (anchors + prev_aligned)
    if lap is not None:
        ld = lap.toarray()
        a += lam2 * s.T @ ld @ s
        b += lam2 * s.T @ ld @ anchors
    return a, b


def random_solve_instance(rng, n, with_temporal=True):
    """Random small patch layout + operators for solver tests."""
    from dpcdenoise.geometry import Frame, estimate_normals
    from dpcdenoise.graph import combinatorial_laplacian
    from dpcdenoise.patches import build_patches
    from dpcdenoise.stgraph import (
        initial_spatial_weights,
        row_features,
        spatial_connectivity,
    )

    pts = rng.uniform(0, 1, (n, 3))
    frame, _ = estimate_normals(Frame(pts), min(6, n - 1))
    m = max(2, n // 3)
    k = min(5, n - 1)
    ps = build_patches(frame, m, k, seed=int(rng.integers(1000)))
    members = ps.members
    anchors = np.repeat(pts[members[:, 0]], k + 1, axis=0)
    pairs = spatial_connectivity(ps, pts, min(2, m - 1))
    feats = row_features(ps, pts, frame.normals)
    lap = combinatorial_laplacian(initial_spatial_weights(pairs, feats))
    if with_temporal:
        w_rows = np.repeat(rng.uniform(0, 1, m), k + 1)
        prev_aligned = anchors * 0 + rng.normal(0, 0.1, anchors.shape)
    else:
        w_rows, prev_aligned = None, None
    return pts, members, anchors, prev_aligned, w_rows, lap
