"""Independent reference implementations shared by the test modules.

Everything here is deliberately brute force: dense matrices, exhaustive
enumeration, O(n^2) scans. These stay independent of the library code
paths they check.
"""

import itertools
from pathlib import Path

import numpy as np

from dpcdenoise.geometry import Frame
from dpcdenoise.io import ParseError


def brute_knn(points, query, k, exclude=None):
    """Sort all points by (distance, index), drop excluded, take k."""
    d = np.sqrt(np.sum((points - query) ** 2, axis=1))
    order = np.lexsort((np.arange(len(points)), d))
    if exclude is not None:
        order = order[order != exclude]
    return order[:k]


def relative_coords(members, positions):
    """One patch's member coordinates relative to its center, member 0; row 0 is zero."""
    pts = np.asarray(positions, dtype=np.float64)
    return pts[members] - pts[members[0]]


def mean_nearest_distance(points):
    """Mean over all points of the distance to their nearest other point, by ``brute_knn``."""
    pts = np.asarray(points, dtype=np.float64)
    nearest = np.array([brute_knn(pts, p, 1, exclude=i)[0] for i, p in enumerate(pts)])
    return float(np.mean(np.sqrt(np.sum((pts[nearest] - pts) ** 2, axis=1))))


def dense_adjacency(n, i, j, w):
    """The symmetric n x n adjacency of the undirected edges (i, j) weighing w."""
    a = np.zeros((n, n))
    a[i, j] = w
    a[j, i] = w
    return a


def build_epsilon_graph(points, epsilon):
    """Unit-weight dense adjacency of the points strictly closer than ``epsilon``.

    Every pair is scanned.
    """
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    pts = np.asarray(points, dtype=np.float64)
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    i, j = np.nonzero(np.triu(d < epsilon, k=1))
    return dense_adjacency(pts.shape[0], i, j, 1.0)


def variation_rows(points, normals, epsilon):
    """Per-patch variation rows: the epsilon graph's random-walk Laplacian on the normals.

    Builds one dense epsilon graph and its dense random-walk Laplacian per
    call, and applies it with a sequential sum over each row; the batched
    passes in ``dpcdenoise.matching`` must match it bit for bit.
    """
    _, rw = dense_laplacians(build_epsilon_graph(points, epsilon))
    normals = np.asarray(normals, dtype=np.float64)
    return np.einsum("ij,jk->ik", rw, normals, optimize=False)


def adjacent_patches(centers, k_s):
    """Sorted (pairs, 2) patch pairs l < m, either among the other's ``k_s`` nearest centers,
    by a brute-force query over the centers."""
    m = centers.shape[0]
    near = np.array([brute_knn(centers, c, k_s, exclude=l) for l, c in enumerate(centers)])
    own = np.repeat(np.arange(m), k_s)
    adjacent = np.unique(np.minimum(own, near.ravel()) * m + np.maximum(own, near.ravel()))
    return np.column_stack([adjacent // m, adjacent % m])


def spatial_connectivity(patchset, k_s, keep_self=False):
    """Row pairs between adjacent patches, one block of patch pairs at a time.

    Builds the full (pairs, k+1, k+1, 3) difference tensor, stacks the
    nearest-row edges of both directions, sorts each pair and removes
    duplicates with ``np.unique``. Unless ``keep_self``, row pairs whose two
    rows hold the same point are dropped. These are the row edges that
    ``dpcdenoise.stgraph.spatial_connectivity`` folds onto point pairs.
    """
    m = len(patchset)
    pts = patchset.frame.positions
    adj = adjacent_patches(pts[patchset.members[:, 0]], k_s)
    rel = pts[patchset.members] - pts[patchset.members[:, :1]]
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


def folded_connectivity(patchset, k_s):
    """Row edges between adjacent patches folded onto point pairs, in full-length arrays.

    Keys every row edge between two distinct points by
    ``(lo * n + hi) * span + code``, concatenates the keys of all blocks of
    256 patch pairs, sorts them, splits them with one
    ``np.divmod`` and folds every axis in one ``np.add.reduceat`` over all
    edges. Returns ``(points, counts, offsets)``;
    ``dpcdenoise.stgraph.spatial_connectivity`` must match it bit for bit.
    """
    from dpcdenoise.patches import sq_dists

    pts = patchset.frame.positions
    center_pts = pts[patchset.members[:, 0]]
    adj = adjacent_patches(center_pts, k_s)
    rel = pts[patchset.members] - pts[patchset.members[:, :1]]
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
    for axis in range(3):
        offsets[:, axis] = np.add.reduceat(table[axis][codes], starts) / counts
    return points, counts, offsets


def metric_gram(diffs, terms):
    """Metric-learning Gram sum_e terms[e] * outer(diffs[e], diffs[e]), three-operand einsum."""
    return np.einsum("ei,e,ej->ij", diffs, terms, diffs, optimize=False)


def row_edge_weights(pairs, row_features):
    """Dense row-graph adjacency whose edges weigh exp(-||df||^2), computed once per row edge.

    ``row_features`` holds each patch row's point feature, gathered per row;
    ``dpcdenoise.stgraph`` computes each weight once per point pair and
    must match this bit for bit.
    """
    diff = row_features[pairs[:, 0]] - row_features[pairs[:, 1]]
    w = np.exp(-np.sum(diff * diff, axis=1))
    return dense_adjacency(row_features.shape[0], pairs[:, 0], pairs[:, 1], w)


def group_rows(rows, members):
    """Distinct unordered point pairs of (e, 2) row edges, and each edge's pair index."""
    flat = np.asarray(members, dtype=np.int64).ravel()
    a, b = flat[rows[:, 0]], flat[rows[:, 1]]
    n = int(flat.max()) + 1
    keys, inverse = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    return np.column_stack([keys // n, keys % n]), inverse.ravel()


def fold_rows(rows, members, anchor_rows):
    """Row edges folded onto point pairs, one edge at a time.

    Returns (points, counts, offsets): per pair, the row edges and the
    mean of their center gaps oriented from the lower to the higher point.
    """
    flat = np.asarray(members, dtype=np.int64).ravel()
    points, inverse = group_rows(rows, members)
    gaps = [[] for _ in range(points.shape[0])]
    for (r, s), pair in zip(rows, inverse):
        delta = anchor_rows[r] - anchor_rows[s]
        gaps[pair].append(delta if flat[r] <= flat[s] else -delta)
    counts = np.array([len(g) for g in gaps], dtype=np.int64)
    offsets = np.array([np.mean(g, axis=0) for g in gaps]).reshape(-1, 3)
    return points, counts, offsets


def row_laplacian(rows, members, pair_weights):
    """Dense combinatorial Laplacian of the row graph; each edge weighs its point pair's weight."""
    _, inverse = group_rows(rows, members)
    a = dense_adjacency(members.size, rows[:, 0], rows[:, 1], pair_weights[inverse])
    return dense_laplacians(a)[0]


def dense_laplacians(a):
    """Combinatorial Laplacian D - A and random-walk Laplacian I - D^-1 A of a dense adjacency.

    A node of degree 0 gets a zero row in both. Off the diagonal the
    random-walk row stores -a_ij / deg_i at edges and 0.0 elsewhere.
    """
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    rw = np.zeros_like(a)
    for i in np.flatnonzero(deg > 0):
        edges = a[i] != 0
        rw[i, edges] = -a[i, edges] / deg[i]
        rw[i, i] = 1.0
    return lap, rw


def random_graph(rng, n):
    """Random weighted graph on n nodes with ~40% edge density, as edge arrays (i, j, w), i < j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.random(len(pairs)) < 0.4
    chosen = [p for p, t in zip(pairs, take) if t]
    if not chosen:
        chosen = [(0, min(1, n - 1))] if n > 1 else []
    i = np.array([p[0] for p in chosen], dtype=np.int64)
    j = np.array([p[1] for p in chosen], dtype=np.int64)
    w = rng.uniform(0.1, 2.0, len(chosen))
    return i, j, w


def sample_gaussian_bump(n_points: int, height: float, width: float = 0.3, seed: int = 0):
    """Irregular sample of z = h exp(-(x^2+y^2) / (2 w^2)) over [-1, 1]^2.

    Returns (positions, analytic unit normals). Larger ``height`` (or
    smaller ``width``) means higher curvature; ``height = 0`` is a flat
    plane patch.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if width <= 0:
        raise ValueError("width must be > 0")
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1.0, 1.0, size=(n_points, 2))
    x, y = xy[:, 0], xy[:, 1]
    bell = np.exp(-(x**2 + y**2) / (2.0 * width**2))
    z = height * bell
    dzdx = -x * height * bell / width**2
    dzdy = -y * height * bell / width**2
    pos = np.column_stack([x, y, z])
    normals = np.column_stack([-dzdx, -dzdy, np.ones(n_points)])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return pos, normals


def sample_unit_sphere(n_points: int, seed: int = 0):
    """Irregular sample of the closed unit sphere centred at the origin; its
    positions are also its analytic outward unit normals."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_points, 3))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def random_rotation(rng):
    """A random 3 x 3 rotation matrix: the orthogonal factor of a Gaussian matrix,
    with column signs fixed and determinant +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


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
    """Dense assembly of the point-update normal equations, from the dense row Laplacian."""
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
        a += lam2 * s.T @ lap @ s
        b += lam2 * s.T @ lap @ anchors
    return a, b


def dense_objective(u, u_hat, members, anchors, prev_aligned, w_rows, lap, lam1, lam2):
    """The point update's objective at ``u``, from the row Laplacian in dense form.

    ``||u - u_hat||^2 + lam1 sum_r w_r ||p_r - prev_r||^2 + lam2 tr(P^T L P)``
    with patch rows ``P = u[members] - anchors``; a None term is left out.
    """
    p = u[members.ravel()] - anchors
    total = np.sum((u - u_hat) ** 2)
    if w_rows is not None:
        total += lam1 * np.sum(w_rows * np.sum((p - prev_aligned) ** 2, axis=1))
    if lap is not None:
        total += lam2 * np.trace(p.T @ lap @ p)
    return float(total)


def random_solve_instance(rng, n):
    """Random small patch layout + operators for solver tests.

    Returns the points, their patch set, the (n, k+1, 3) temporal reference
    coordinates and (n,) patch weights, the folded spatial edges
    with their pair weights (unit scale on the normals), and the row-graph
    Laplacian those weights give.
    """
    from dpcdenoise.geometry import Frame, estimate_normals
    from dpcdenoise.patches import build_patches
    from dpcdenoise import stgraph
    from dpcdenoise.stgraph import weighted_spatial_graph

    pts = rng.uniform(0, 1, (n, 3))
    frame, _ = estimate_normals(Frame(pts), min(6, n - 1))
    ps = build_patches(frame, min(5, n - 1))
    k_s = min(2, ps.k)
    edges = stgraph.spatial_connectivity(ps, k_s)
    pair_weights = weighted_spatial_graph(edges, frame.normals, 1.0)
    lap = row_laplacian(spatial_connectivity(ps, k_s), ps.members, pair_weights)
    patch_weights = rng.uniform(0, 1, n)
    prev_rel = rng.normal(0, 0.1, ps.rel.shape)
    return pts, ps, prev_rel, patch_weights, edges, pair_weights, lap


def row_form(patchset, prev_rel, patch_weights):
    """The point solve's inputs in the row form of :func:`build_system` and
    :func:`dense_objective`: the members, each row's patch center, and the
    reference rows and row weights (None without a temporal term)."""
    size = patchset.k + 1
    anchors = np.repeat(patchset.frame.positions, size, axis=0)
    if prev_rel is None:
        return patchset.members, anchors, None, None
    return patchset.members, anchors, prev_rel.reshape(-1, 3), np.repeat(patch_weights, size)


# The point-cloud readers and the writer as ``dpcdenoise.io`` had them when
# each walked its rows on its own: the readers parse row by row into a
# preallocated array (PLY) or a list of row lists (XYZ), and the writer
# formats one numpy row at a time. The library's files and errors must
# equal theirs, except where a vertex error now names the vertex's line.

_FLOAT_TYPES = {"float", "float32", "float64", "double"}


def read_point_cloud(path) -> Frame:
    """Read an ASCII PLY (by .ply extension) or whitespace XYZ file."""
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return read_ply(path)
    return read_xyz(path)


def normalize_normals(path, line: int, normals: np.ndarray) -> np.ndarray:
    """Unit normals; a zero-length one is an error at ``line``, whatever its vertex."""
    with np.errstate(over="ignore"):  # an overflowing length is refused by Frame as not unit
        lengths = np.linalg.norm(normals, axis=1)
    bad = np.flatnonzero(lengths < 1e-12)
    if bad.size:
        raise ParseError(path, line, f"zero-length normal for vertex {bad[0]}")
    return normals / lengths[:, None]


def read_ply(path: Path) -> Frame:
    """The per-row PLY reader: frame-wide errors name the end_header line."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(path, 1, "missing 'ply' magic")
    n_vertices = None
    props: list[str] = []
    saw_element = False
    in_vertex = False
    saw_format = False
    body_start = None
    for ln, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise ParseError(path, ln, f"unsupported format {' '.join(tokens[1:])!r}")
            saw_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError(path, ln, "malformed element line")
            if tokens[1] == "vertex" and saw_element:  # the body is read as vertices first
                raise ParseError(path, ln, "'element vertex' must be the first element, and once")
            saw_element = True
            if tokens[1] == "vertex":
                try:
                    n_vertices = int(tokens[2])
                except ValueError:
                    raise ParseError(path, ln, f"bad vertex count {tokens[2]!r}") from None
                if n_vertices < 0:
                    raise ParseError(path, ln, f"negative vertex count {n_vertices}")
                in_vertex = True
            else:
                in_vertex = False
        elif tokens[0] == "property":
            if not saw_element:
                raise ParseError(path, ln, "property line before any element line")
            if in_vertex:
                if len(tokens) != 3 or tokens[1] not in _FLOAT_TYPES:
                    raise ParseError(path, ln, f"unsupported vertex property {raw.strip()!r}")
                props.append(tokens[2])
        elif tokens[0] == "end_header":
            body_start = ln
            break
        else:
            raise ParseError(path, ln, f"unexpected header line {raw.strip()!r}")
    if body_start is None:
        raise ParseError(path, len(lines), "missing end_header")
    if not saw_format:
        raise ParseError(path, 1, "missing format line")
    if n_vertices is None:
        raise ParseError(path, 1, "missing 'element vertex' declaration")
    for name in ("x", "y", "z"):
        if name not in props:
            raise ParseError(path, body_start, f"vertex element lacks property {name!r}")
    has_normals = all(name in props for name in ("nx", "ny", "nz"))
    cols = {name: i for i, name in enumerate(props)}

    # The header's count is not trusted with memory: each vertex takes a body line.
    rows = np.empty((min(n_vertices, len(lines) - body_start), len(props)))
    ln = body_start
    row = 0
    for raw in lines[body_start:]:
        ln += 1
        tokens = raw.split()
        if not tokens:
            continue
        if row >= n_vertices:
            break  # data of later elements is ignored
        if len(tokens) != len(props):
            raise ParseError(path, ln, f"expected {len(props)} values, got {len(tokens)}")
        try:
            rows[row] = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(path, ln, f"non-numeric token in {raw.strip()!r}") from None
        row += 1
    if row != n_vertices:
        raise ParseError(path, ln, f"expected {n_vertices} vertices, found {row}")
    positions = rows[:, [cols["x"], cols["y"], cols["z"]]]
    normals = None
    if has_normals:
        normals = normalize_normals(path, body_start, rows[:, [cols["nx"], cols["ny"], cols["nz"]]])
    try:
        return Frame(positions, normals)
    except ValueError as exc:
        raise ParseError(path, body_start, str(exc)) from None


def read_xyz(path: Path) -> Frame:
    """The per-row XYZ reader: a list of row lists; frame-wide errors name line 1."""
    rows = []
    width = None
    with open(path, "r") as fh:
        for ln, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            if width is None:
                if len(tokens) not in (3, 6):
                    raise ParseError(path, ln, f"expected 3 or 6 columns, got {len(tokens)}")
                width = len(tokens)
            elif len(tokens) != width:
                raise ParseError(path, ln, f"expected {width} columns, got {len(tokens)}")
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:
                raise ParseError(path, ln, f"non-numeric token in {raw.strip()!r}") from None
    if not rows:
        raise ParseError(path, 1, "no points in file")
    data = np.asarray(rows)
    normals = normalize_normals(path, 1, data[:, 3:6]) if width == 6 else None
    try:
        return Frame(data[:, :3], normals)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def write_point_cloud(frame: Frame, path) -> None:
    """The per-row PLY writer: one ``%`` format per vertex, in two branches."""
    if len(frame) < 1:
        raise ValueError("empty frame")
    path = Path(path)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(frame)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if frame.normals is not None:
            fh.write("property float nx\nproperty float ny\nproperty float nz\n")
        fh.write("end_header\n")
        if frame.normals is not None:
            for p, n in zip(frame.positions, frame.normals):
                fh.write("%.9g %.9g %.9g %.9g %.9g %.9g\n" % (*p, *n))
        else:
            for p in frame.positions:
                fh.write("%.9g %.9g %.9g\n" % tuple(p))
