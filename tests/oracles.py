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


def relative_coords(patch, positions):
    """One patch's member coordinates relative to its center; row 0 is zero."""
    pts = np.asarray(positions, dtype=np.float64)
    return pts[patch.member_indices] - pts[patch.center_index]


def build_epsilon_graph(points, epsilon):
    """Unit-weight edges between points strictly closer than ``epsilon``, from all pairs."""
    from dpcdenoise.graph import SparseGraph

    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    pts = np.asarray(points, dtype=np.float64)
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    i, j = np.nonzero(np.triu(d < epsilon, k=1))
    return SparseGraph.from_edges(pts.shape[0], i, j, np.ones(i.size))


def variation_rows(points, normals, epsilon):
    """Per-patch variation rows: the epsilon graph's random-walk Laplacian on the normals.

    Builds one epsilon graph and one sparse Laplacian per call, and applies
    its dense copy with a sequential sum over each row; the batched passes in
    ``dpcdenoise.matching`` must match it bit for bit.
    """
    from dpcdenoise.graph import random_walk_laplacian

    lap = random_walk_laplacian(build_epsilon_graph(points, epsilon))
    normals = np.asarray(normals, dtype=np.float64)
    return np.einsum("ij,jk->ik", lap.matrix.toarray(), normals, optimize=False)



def spatial_connectivity(patchset, positions, k_s, keep_self=False):
    """Row pairs between adjacent patches, one block of patch pairs at a time.

    Builds the full (pairs, k+1, k+1, 3) difference tensor, stacks the
    nearest-row edges of both directions, sorts each pair and removes
    duplicates with ``np.unique``. Unless ``keep_self``, row pairs whose two
    rows hold the same point are dropped. These are the row edges that
    ``dpcdenoise.stgraph.spatial_connectivity`` folds onto point pairs.
    """
    from dpcdenoise.geometry import NeighborIndex, knn_rows
    from dpcdenoise.patches import all_relative_coords

    m = len(patchset)
    pts = np.asarray(positions, dtype=np.float64)
    centers = NeighborIndex.from_points(pts[patchset.members[:, 0]])
    near = knn_rows(centers, centers.points, k_s, exclude=np.arange(m))
    own = np.repeat(np.arange(m), k_s)
    adjacent = np.unique(np.minimum(own, near.ravel()) * m + np.maximum(own, near.ravel()))
    adj = np.column_stack([adjacent // m, adjacent % m])
    rel = all_relative_coords(patchset, pts)
    size = patchset.k + 1
    slots = np.arange(size, dtype=np.int64)
    pairs = []
    for start in range(0, adj.shape[0], 256):
        block = adj[start : start + 256]
        diff = rel[block[:, 0]][:, :, None, :] - rel[block[:, 1]][:, None, :, :]
        cost = np.sum(diff * diff, axis=3)
        rows_l = block[:, 0:1] * size + slots
        rows_m = block[:, 1:2] * size + slots
        near_m = np.take_along_axis(rows_m, np.argmin(cost, axis=2), axis=1)
        near_l = np.take_along_axis(rows_l, np.argmin(cost, axis=1), axis=1)
        pairs.append(np.column_stack([rows_l.ravel(), near_m.ravel()]))
        pairs.append(np.column_stack([near_l.ravel(), rows_m.ravel()]))
    stacked = np.concatenate(pairs)
    stacked.sort(axis=1)
    n_rows = m * size
    keys = np.unique(stacked[:, 0] * n_rows + stacked[:, 1])
    rows = np.column_stack([keys // n_rows, keys % n_rows])
    if keep_self:
        return rows
    flat = patchset.members.ravel()
    return rows[flat[rows[:, 0]] != flat[rows[:, 1]]]


def folded_connectivity(patchset, positions, k_s):
    """Row edges between adjacent patches folded onto point pairs, in full-length arrays.

    Keys every row edge between two distinct points by
    ``(lo * n + hi) * span + code``, concatenates the keys of all blocks of
    256 patch pairs, sorts them, splits them with one
    ``np.divmod`` and folds every axis in one ``np.add.reduceat`` over all
    edges. Returns ``(points, counts, offsets, spread)``;
    ``dpcdenoise.stgraph.spatial_connectivity`` must match it bit for bit.
    """
    from dpcdenoise.geometry import NeighborIndex, knn_rows
    from dpcdenoise.patches import all_relative_coords, sq_dists

    m = len(patchset)
    pts = np.asarray(positions, dtype=np.float64)
    center_pts = pts[patchset.members[:, 0]]
    centers = NeighborIndex.from_points(center_pts)
    near = knn_rows(centers, centers.points, k_s, exclude=np.arange(m))
    own = np.repeat(np.arange(m), k_s)
    adjacent = np.unique(np.minimum(own, near.ravel()) * m + np.maximum(own, near.ravel()))
    adj = np.column_stack([adjacent // m, adjacent % m])
    rel = all_relative_coords(patchset, pts)
    members = patchset.members
    n = pts.shape[0]
    span = 2 * adj.shape[0]
    slots = np.arange(patchset.k + 1, dtype=np.int64)
    keys = []
    for start in range(0, adj.shape[0], 256):
        block = adj[start : start + 256]
        cost = sq_dists(rel[block[:, 0]], rel[block[:, 1]])
        nm = np.argmin(cost, axis=2)
        nl = np.argmin(cost, axis=1)
        one_way = np.take_along_axis(nm, nl, axis=1) != slots
        in_l, in_m = members[block[:, 0]], members[block[:, 1]]
        pair = np.broadcast_to(2 * (start + np.arange(block.shape[0]))[:, None], nm.shape)
        a = np.concatenate([in_l.ravel(), np.take_along_axis(in_l, nl, axis=1)[one_way]])
        b = np.concatenate([np.take_along_axis(in_m, nm, axis=1).ravel(), in_m[one_way]])
        code = np.concatenate([pair.ravel(), pair[one_way]]) + (a > b)
        other = a != b
        a, b, code = a[other], b[other], code[other]
        keys.append((np.minimum(a, b) * n + np.maximum(a, b)) * span + code)
    keys = np.concatenate(keys)
    keys.sort()
    pair_keys, codes = np.divmod(keys, span)
    starts = np.flatnonzero(np.concatenate([[True], pair_keys[1:] != pair_keys[:-1]]))
    counts = np.diff(np.append(starts, pair_keys.size))
    points = np.column_stack(np.divmod(pair_keys[starts], n))
    gaps = center_pts[adj[:, 0]] - center_pts[adj[:, 1]]
    table = np.stack([gaps, -gaps], axis=1).reshape(span, 3).T.copy()
    offsets = np.empty((starts.size, 3))
    spread = np.zeros(starts.size)
    for axis in range(3):
        delta = table[axis][codes]
        offsets[:, axis] = np.add.reduceat(delta, starts) / counts
        delta -= np.repeat(offsets[:, axis], counts)
        delta *= delta
        spread += np.add.reduceat(delta, starts)
    return points, counts, offsets, spread


def metric_gram(diffs, terms):
    """Metric-learning Gram sum_e terms[e] * outer(diffs[e], diffs[e]), three-operand einsum."""
    return np.einsum("ei,e,ej->ij", diffs, terms, diffs, optimize=False)


def row_edge_weights(pairs, row_features):
    """Spatial edge weights computed once per row edge: exp(-||df||^2).

    ``row_features`` holds each patch row's point feature, gathered per row;
    ``dpcdenoise.stgraph`` computes each weight once per point pair and
    must match this bit for bit.
    """
    from dpcdenoise.graph import SparseGraph

    diff = row_features[pairs[:, 0]] - row_features[pairs[:, 1]]
    w = np.exp(-np.sum(diff * diff, axis=1))
    return SparseGraph.from_edges(row_features.shape[0], pairs[:, 0], pairs[:, 1], w)


def group_rows(rows, members):
    """Distinct unordered point pairs of (e, 2) row edges, and each edge's pair index."""
    flat = np.asarray(members, dtype=np.int64).ravel()
    a, b = flat[rows[:, 0]], flat[rows[:, 1]]
    n = int(flat.max()) + 1
    keys, inverse = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    return np.column_stack([keys // n, keys % n]), inverse.ravel()


def fold_rows(rows, members, anchor_rows):
    """Row edges folded onto point pairs, one edge at a time.

    Returns (points, counts, offsets, spread): per pair, the row edges, the
    mean of their center gaps oriented from the lower to the higher point,
    and the summed squared deviations of the gaps from that mean.
    """
    flat = np.asarray(members, dtype=np.int64).ravel()
    points, inverse = group_rows(rows, members)
    gaps = [[] for _ in range(points.shape[0])]
    for (r, s), pair in zip(rows, inverse):
        delta = anchor_rows[r] - anchor_rows[s]
        gaps[pair].append(delta if flat[r] <= flat[s] else -delta)
    counts = np.array([len(g) for g in gaps], dtype=np.int64)
    offsets = np.array([np.mean(g, axis=0) for g in gaps]).reshape(-1, 3)
    spread = np.array([np.sum((np.array(g) - o) ** 2) for g, o in zip(gaps, offsets)])
    return points, counts, offsets, spread


def row_laplacian(rows, members, pair_weights):
    """Combinatorial Laplacian of the row graph whose edges carry their point pair's weight."""
    from dpcdenoise.graph import SparseGraph, combinatorial_laplacian

    _, inverse = group_rows(rows, members)
    graph = SparseGraph.from_edges(members.size, rows[:, 0], rows[:, 1], pair_weights[inverse])
    return combinatorial_laplacian(graph)


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
    """Random small patch layout + operators for solver tests.

    Returns the points, the patch members, the anchor rows, the temporal
    rows and weights (or None), the folded spatial edges with their pair
    weights (unit scale on the normals), and the row-graph Laplacian
    those weights give.
    """
    from dpcdenoise.geometry import Frame, estimate_normals
    from dpcdenoise.patches import build_patches
    from dpcdenoise import stgraph
    from dpcdenoise.stgraph import weighted_spatial_graph

    pts = rng.uniform(0, 1, (n, 3))
    frame, _ = estimate_normals(Frame(pts), min(6, n - 1))
    k = min(5, n - 1)
    ps = build_patches(frame, k)
    members = ps.members
    anchors = np.repeat(pts, k + 1, axis=0)
    k_s = min(2, k)
    edges = stgraph.spatial_connectivity(ps, pts, k_s)
    pair_weights = weighted_spatial_graph(edges, frame.normals, 1.0)
    lap = row_laplacian(spatial_connectivity(ps, pts, k_s), members, pair_weights)
    if with_temporal:
        w_rows = np.repeat(rng.uniform(0, 1, n), k + 1)
        prev_aligned = anchors * 0 + rng.normal(0, 0.1, anchors.shape)
    else:
        w_rows, prev_aligned = None, None
    return pts, members, anchors, prev_aligned, w_rows, edges, pair_weights, lap
