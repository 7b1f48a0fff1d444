"""Spatio-temporal graph assembly.

The spatial graph connects rows of adjacent patches: patch l occupies rows
l*(k+1) .. l*(k+1)+k, and row r of patch l holds ``p_r = u_a - c_l``, its
point minus the patch's fixed center. A row edge's weight and its residual
``p_r - p_r'`` depend only on the two points it joins and on the center gap
of the two patches, so :func:`spatial_connectivity` folds the row edges onto
the pairs of distinct points they join (:class:`SpatialEdges`), and every
later stage works on points and pairs. A row edge between two rows of one
point has a residual that does not depend on the points, so it is dropped.
The fold holds one 8-byte sort key per row edge plus its per-pair outputs;
every other temporary is sized by one block of patch pairs or one chunk of
keys. The nearest rows between adjacent patches come from a float32 filter
with a proven error bound; rows the filter cannot decide are recomputed in
float64, so every nearest row is the float64 argmin bit for bit (see
:func:`_nearest_slots`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patches import PatchSet, sq_dists


@dataclass(frozen=True)
class SpatialEdges:
    """Spatial row edges folded onto the pairs of distinct points they join.

    A row edge e between row r of patch l (point a) and row r' of patch m
    (point b != a) has residual ``p_r - p_r' = (u_a - u_b) - delta_e`` with
    ``delta_e = c_l - c_m``. Orient every edge of a pair from its lower point
    ``lo`` to its higher point ``hi``; then

        sum_e ||p_r - p_r'||^2 = count * ||u_lo - u_hi - offset||^2 + const

    holds exactly, where ``offset`` is the mean oriented ``delta_e`` and
    ``const = sum_e ||delta_e - offset||^2`` does not depend on the points,
    so ``count`` and ``offset`` are all the point solve needs. Per pair:
    ``points`` (lo, hi) with ``lo < hi``, sorted; ``counts``, the row edges;
    ``offsets``. ``len()`` is the number of row edges, not of pairs.
    """

    points: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())


# Row edges per chunk of the fold over the sorted key buffer; bounds its per-chunk temporaries.
FOLD_CHUNK = 1 << 14
# Patch pairs per block of the nearest-slot filter and of the fold's key loop.
# The filter's float32 cost tensor and candidate mask take about 0.5 MB each at
# k = 30; the key loop holds a few (block, k+1) arrays per step.
SLOT_BLOCK = 128


def edge_key_bits(n: int, patch_pairs: int) -> int:
    """Width of the code field in the int64 row-edge keys ``(lo * n + hi) << bits | code``.

    ``code < 2 * patch_pairs``, so the largest key is ``n^2 * 2^bits - 1``.
    Raises ValueError when that does not fit in an int64.
    """
    bits = (2 * patch_pairs - 1).bit_length()
    if (n * n) << bits > 2**63:
        raise ValueError("frame too large for int64 edge keys")
    return bits


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` by sort: numpy 2's hash path imports numpy.ma and runs slower on these keys."""
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def _adjacent_patches(patchset: PatchSet, k_s: int) -> np.ndarray:
    """Sorted (pairs, 2) patch pairs l < m, either among the other's ``k_s`` nearest centers.

    Patch l is centered on point l, so members 1..k_s of patch l, read from
    its own row, are its k_s nearest other centers in (distance, index)
    order. Needs ``k_s <= patchset.k``.
    """
    m = len(patchset)
    near = patchset.members[:, 1:k_s + 1].ravel()
    own = np.repeat(np.arange(m), k_s)
    adjacent = _unique(np.minimum(own, near) * m + np.maximum(own, near))
    return np.column_stack([adjacent // m, adjacent % m])


def _nearest_slots(rel: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                np.ndarray, int]:
    """Per patch pair (l, m) and slot, the nearest slot of the other patch, and the one-way mask.

    Returns ``nm`` (nearest m slot per l slot) and ``nl`` (nearest l slot per
    m slot), both (pairs, k+1) in the smallest integer dtype that holds k+1,
    the (pairs, k+1) mask of the m slots t with ``nm[nl[t]] != t``, and the
    number of slot rows the exact path decided. ``nm`` and ``nl`` equal the
    first argmins of the float64 :func:`~dpcdenoise.patches.sq_dists` tensor bit for bit.

    **Filter.** The coordinates are scaled by the power of two ``2^-q`` that
    puts the largest finite ``|rel|`` in [1/2, 1). The scale is exact in
    float64 and moves no argmin, and float32 then neither overflows nor
    runs short of range. For slot x of one patch and slot y of the other,
    the float32 cost is the dot product of the augmented 5-vectors
    ``(x, |x|^2, 1)`` and ``(-2y, 1, |y|^2)``. A block of patch pairs gets
    its costs from batched BLAS products, laid out with the slot each row
    is minimised over first, so the minimum and the candidate mask run over
    contiguous (pairs, k+1) slabs. A row's candidates are the slots whose
    float32 cost is within ``2e`` of the row's float32 minimum. A row with
    exactly one candidate takes it. Every other row (exact ties, NaN or inf
    costs) goes to the exact path, which gathers its float64 costs and
    calls ``np.argmin``.

    **Bound.** Let u = 2^-24, R_l and R_m the two patches' largest scaled
    row norms, and S = (R_l + R_m)^2. The five products of a cost sum in
    absolute value to ``|x|^2 + |y|^2 + 2 sum_i |x_i y_i| <= (|x| + |y|)^2
    <= S``. Rounding the ten inputs to float32 moves each product by at
    most (2u + u^2) times its size. Summing five products in any order,
    with or without FMA, adds at most gamma_5 = 5u / (1 - 5u) times the
    same sum. So the float32 cost is within 7.01 u S of the exact cost. The
    float64 cost is within 5 * 2^-53 S of it, so E = |c32 - c64| <=
    7.02 u S. Underflow adds less: under 2^-144 in float32, as the scaled
    coordinates are below 1, and in the float64 costs and squared norms
    (taken before scaling) under 2^-1070, which is under 2^-270 after
    scaling while ``max |rel| >= 2^-400``. Outside
    ``2^-400 <= max |rel| <= 2^400`` every row takes the exact path. The
    filter takes e = 8 u S + 2^-126. For the float32 minimiser s' and the
    exact first argmin s*, c32[s*] <= c64[s*] + E <= c64[s'] + E <=
    c32[s'] + 2E. The threshold ``c32[s'] + 2e`` is rounded once in
    float32, and ``c32[s'] <= S + E``, so it stays above c32[s'] + 2E and
    s* is a candidate. A sole candidate is therefore s*, and an exact tie
    of s* is a second candidate. A NaN cost makes its row's minimum NaN, so
    the row has no candidate, and an infinite radius makes every cost of
    its pair a candidate.
    """
    m, size, _ = rel.shape
    top = np.max(np.abs(rel), where=np.isfinite(rel), initial=0.0)
    q = np.frexp(top)[1]
    norms = np.ldexp(np.einsum("psi,psi->ps", rel, rel), -2 * q)
    radius = np.sqrt(np.max(norms, axis=1))
    if not 2.0**-400 <= top <= 2.0**400:
        radius[:] = np.nan
    # Augmented slots: left[l, s] . right[m, :, t] = |x_s - y_t|^2 for x of patch l, y of patch m.
    left = np.empty((m, size, 5), dtype=np.float32)
    np.ldexp(rel, -q, out=left[:, :, :3])
    left[:, :, 3] = norms
    left[:, :, 4] = 1.0
    right = np.empty((m, 5, size), dtype=np.float32)
    np.multiply(left[:, :, :3].transpose(0, 2, 1), -2.0, out=right[:, :3])
    right[:, 3] = 1.0
    right[:, 4] = norms
    del norms
    slots = np.arange(size)
    tally = np.stack([np.ones(size), slots]).astype(np.float32)   # candidate count, slot sum
    nm = np.empty((adj.shape[0], size), dtype=np.min_scalar_type(size))
    nl = np.empty_like(nm)
    one_way = np.empty(nm.shape, dtype=bool)
    exact = 0
    cost_buf = np.empty(size * SLOT_BLOCK * size, dtype=np.float32)
    hit_buf = np.empty(cost_buf.size, dtype=bool)
    hit32_buf = np.empty(cost_buf.size, dtype=np.float32)
    for start in range(0, adj.shape[0], SLOT_BLOCK):
        pairs = adj[start : start + SLOT_BLOCK]
        block = slice(start, start + pairs.shape[0])
        shape = (size, pairs.shape[0], size)
        cost = cost_buf[: size * size * pairs.shape[0]].reshape(shape)
        hit = hit_buf[: cost.size].reshape(shape)
        hit32 = hit32_buf[: cost.size].reshape(shape)
        reach = radius[pairs[:, 0]] + radius[pairs[:, 1]]
        width = (16 * 2.0**-24 * reach * reach + 2.0**-125).astype(np.float32)[:, None]   # 2e
        # cost[t, p, s]: slot s of the kept patch of pair p against slot t of
        # the scanned patch, the axis each row is minimised over.
        for near, kept, scanned in ((nm, 0, 1), (nl, 1, 0)):
            np.matmul(left[pairs[:, scanned]], right[pairs[:, kept]], out=cost.transpose(1, 0, 2))
            limit = np.min(cost, axis=0)
            limit += width
            np.less_equal(cost, limit, out=hit)
            np.copyto(hit32, hit)
            count, found = tally @ hit32.reshape(size, -1)
            ambiguous = count != 1
            found[ambiguous] = 0   # a slot sum of several candidates may not fit near's dtype
            near[block] = found.reshape(shape[1:])
            pair, slot = np.divmod(np.flatnonzero(ambiguous), size)
            if pair.size:
                # The same float64 arithmetic per entry as sq_dists(rel[l], rel[m]),
                # since fl(a - b) = -fl(b - a).
                pair += start
                cost64 = sq_dists(rel[adj[pair, kept], slot][:, None, :], rel[adj[pair, scanned]])
                near[pair, slot] = np.argmin(cost64[:, 0, :], axis=1)
                exact += pair.size
        own = size * np.arange(pairs.shape[0])[:, None]   # flat offsets of the block's rows
        np.not_equal(nm[block].ravel().take(own + nl[block]), slots, out=one_way[block])
    return nm, nl, one_way, exact


def spatial_connectivity(patchset: PatchSet, k_s: int) -> SpatialEdges:
    """Row edges between adjacent patches, folded onto point pairs.

    Patches are adjacent when either has the other among its ``k_s``
    nearest patch centers, which the patches' own rows hold (see
    :func:`_adjacent_patches`), so ``k_s`` must be in [1, k].
    Between adjacent patches, every row connects to the row of
    the other patch whose center-relative coordinates are nearest (ties
    by ascending index): the first argmin of the float64 squared distances.
    Blocks of ``SLOT_BLOCK`` patch pairs compute those distances in
    float32, with an error of at most e = 8 * 2^-24 (R_l + R_m)^2 + 2^-126
    for the patches' largest row norms R after a power-of-two rescale. A
    row whose float32 minimum is the only cost within 2e of it keeps that
    slot. Any other row, such as an exact tie, is recomputed from its
    float64 costs with ``np.argmin``. On smooth frames well under 0.1 % of
    rows need that. Each distinct row edge is counted once. An edge whose
    two rows hold the same point is dropped before the keys are sorted:
    its residual is a constant gap of centers, so it does not move the
    point solve. The other edges are returned folded onto the point pairs
    they join, with the patch centers ``c_l`` taken from the patch set's frame.

    Memory: the only array with one entry per row edge is a buffer of one
    8-byte sort key per edge, sized before the dropped edges are known. The
    filter runs before that buffer is allocated and frees its own: two
    float32 copies of the relative coordinates, augmented to 5 values per
    row, and one block's cost tensor and candidate masks. Besides the keys
    the call holds the per-pair outputs, two slot maps and a one-way mask of
    one byte per patch pair and slot (for k < 255), and the temporaries of one patch
    block or one fold chunk. Raises ValueError when the frame is too large
    for the int64 keys (see :func:`edge_key_bits`): n^2 times the smallest
    power of two not below twice the adjacent patch pairs must not exceed
    2^63, which holds for any frame of at most 741,455 points at
    ``k_s = 10``.
    """
    if not 1 <= k_s <= patchset.k:
        raise ValueError("k_s must be in [1, k]")
    pts = patchset.frame.positions
    adj = _adjacent_patches(patchset, k_s)
    members = patchset.members
    n = pts.shape[0]
    # Each row edge is one int64 sort key: its point-pair key lo * n + hi,
    # shifted left by ``bits``, then its code 2 * (patch pair) + 1 if its
    # lower point lies in patch m (center gap c_m - c_l), + 0 if in patch l
    # (gap c_l - c_m). Keys sort by (point pair, code), as the fold needs.
    bits = edge_key_bits(n, adj.shape[0])
    # Pair (l, m) has l < m. Its forward edge of slot s and its backward edge
    # of slot t join the same two rows only when nl[t] = s and nm[s] = t, so
    # mutual backward edges are dropped and every row edge is emitted once.
    nm, nl, one_way, _ = _nearest_slots(patchset.rel, adj)
    size = nm.shape[1]
    slots = np.arange(size)
    flat = members.ravel()
    keys = np.empty(nm.size + np.count_nonzero(one_way), dtype=np.int64)
    filled = 0
    for start in range(0, adj.shape[0], SLOT_BLOCK):
        part = slice(start, start + SLOT_BLOCK)
        bm, bl = nm[part].astype(np.intp), nl[part].astype(np.intp)
        at_l, at_m = size * adj[part, :1], size * adj[part, 1:]   # flat offsets into flat
        back = np.flatnonzero(one_way[part])
        pair = np.repeat(2 * np.arange(start, start + bm.shape[0]), size)
        a = np.concatenate([flat.take(at_l + slots).ravel(), flat.take((at_l + bl).ravel()[back])])
        b = np.concatenate([flat.take(at_m + bm).ravel(), flat.take((at_m + slots).ravel()[back])])
        code = np.concatenate([pair, pair[back]])
        other = a != b
        a, b, code = a[other], b[other], code[other]
        block_keys = keys[filled : filled + a.size]
        np.minimum(a, b, out=block_keys)
        block_keys *= n
        block_keys += np.maximum(a, b)
        block_keys <<= bits
        block_keys |= code + (a > b)
        filled += a.size
    del nm, nl, one_way
    keys = keys[:filled]
    keys.sort()
    # Pair boundaries, one chunk of keys at a time; each chunk also reads
    # the key before it, so that a boundary at its first key is seen.
    starts = [np.zeros(min(1, keys.size), dtype=np.int64)]
    for start in range(1, keys.size, FOLD_CHUNK):
        pair_keys = keys[start - 1 : start + FOLD_CHUNK] >> bits
        starts.append(start + np.flatnonzero(pair_keys[1:] != pair_keys[:-1]))
    starts = np.concatenate(starts)
    bounds = np.append(starts, keys.size)
    counts = np.diff(bounds)
    points = np.column_stack(np.divmod(keys[starts] >> bits, n))
    # Oriented center gaps, per axis: entry 2p is c_l - c_m of patch pair p, 2p + 1 its negative.
    table = np.empty((3, 2 * adj.shape[0]))
    table[:, 0::2] = (pts[adj[:, 0]] - pts[adj[:, 1]]).T
    np.negative(table[:, 0::2], out=table[:, 1::2])
    offsets = np.empty((starts.size, 3))
    # Fold chunks of whole pairs, each starting at the pair that holds a
    # multiple of FOLD_CHUNK edges. Every pair is summed by the same
    # np.add.reduceat segment as over the whole buffer.
    cuts = _unique(np.searchsorted(starts, np.arange(0, keys.size, FOLD_CHUNK), "right") - 1)
    for lo, hi in zip(cuts, np.append(cuts[1:], starts.size)):
        codes = keys[bounds[lo] : bounds[hi]] & ((1 << bits) - 1)
        local = starts[lo:hi] - bounds[lo]
        mean = np.add.reduceat(table.take(codes, axis=1), local, axis=1) / counts[lo:hi]
        offsets[lo:hi] = mean.T
    return SpatialEdges(points=points, counts=counts, offsets=offsets)


def weighted_spatial_graph(edges: SpatialEdges, normals: np.ndarray, scale: float) -> np.ndarray:
    """Weight ``exp(-scale ||dn||^2)`` of each point pair, ``dn`` its two normals' difference.

    This is the kernel ``exp(-dn^T M dn)`` under the metric ``M = scale * I``,
    so ``scale`` must be finite and >= 0.
    """
    if not (np.isfinite(scale) and scale >= 0):
        raise ValueError("scale must be finite and >= 0")
    normals = np.asarray(normals, dtype=np.float64)
    dn = normals[edges.points[:, 0]] - normals[edges.points[:, 1]]
    return np.exp(-np.sum((dn * scale) * dn, axis=1))
