import warnings

import numpy as np
import pytest
from oracles import build_epsilon_graph, dense_adjacency, dense_laplacians, random_graph
from test_acceptance import unit_graph_distances

from dpcdenoise.graph import laplacian
from dpcdenoise.matching import _variation_rows


def combinatorial(n, i, j, w):
    """The point solve's builder with a zero diagonal: the graph's L = D - A."""
    return laplacian(n, i, j, w, np.zeros(n))


def random_walk(dist, signal):
    """The variation kernel's random-walk Laplacian, at epsilon 1, applied to an (n, d) signal."""
    return _variation_rows(dist, np.asarray(signal, dtype=np.float64)[None], np.ones(1))[0]


class TestEpsilonGraph:
    # The oracle's epsilon graph, which variation_rows builds on.
    def test_edge_below_threshold(self):
        a = build_epsilon_graph([[0, 0, 0], [1, 0, 0]], 2.0)
        assert a.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_strict_inequality_at_threshold(self):
        a = build_epsilon_graph([[0, 0, 0], [1, 0, 0]], 1.0)
        assert not a.any()

    def test_nonfinite_epsilon(self):
        with pytest.raises(ValueError, match="finite"):
            build_epsilon_graph([[0, 0, 0]], np.inf)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 1, (50, 3))
        eps = 0.35
        a = build_epsilon_graph(pts, eps)
        got = {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(a)))}
        want = set()
        for i in range(50):
            for j in range(i + 1, 50):
                if 0 < np.linalg.norm(pts[i] - pts[j]) < eps:
                    want.add((i, j))
        assert got == want


class TestCombinatorialLaplacian:
    def test_single_edge(self):
        lap = combinatorial(2, [0], [1], [3.0]) @ np.eye(2)
        assert np.array_equal(lap, [[3.0, -3.0], [-3.0, 3.0]])

    def test_constant_in_null_space(self):
        rng = np.random.default_rng(2)
        lap = combinatorial(12, *random_graph(rng, 12))
        assert np.allclose(lap @ np.ones(12), 0.0, atol=1e-12)

    def test_quadratic_form_identity_triangle(self):
        lap = combinatorial(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0]) @ np.eye(3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=3)
            direct = sum((x[i] - x[j]) ** 2 for i, j in [(0, 1), (0, 2), (1, 2)])
            assert x @ lap @ x == pytest.approx(direct, rel=1e-12)

    def test_psd_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            lap = combinatorial(n, *random_graph(rng, n))
            for _ in range(10):
                x = rng.normal(size=n)
                assert x @ (lap @ x) >= -1e-10


class TestLaplacianBuilder:
    def test_diagonal_adds_weights_at_i_then_at_j(self):
        # Node 1 is i of edge (1, 2), weight 0.1, and j of edge (0, 1), weight
        # 1.0: its diagonal is (0.1 + 0.1) + 1.0, which rounds differently
        # from (0.1 + 1.0) + 0.1 and from 0.1 + (0.1 + 1.0).
        got = (laplacian(3, [0, 1], [1, 2], [1.0, 0.1], [0.0, 0.1, 0.0]) @ np.eye(3))[1, 1]
        assert got == (0.1 + 0.1) + 1.0
        assert got != (0.1 + 1.0) + 0.1 and got != 0.1 + (0.1 + 1.0)

    def test_every_row_stores_its_diagonal(self):
        # Nodes 2 and 3 have no edge; their rows hold one explicit entry.
        lap = combinatorial(4, [0], [1], [2.0])
        assert lap.cols.size == 4 + 2
        assert np.array_equal(np.diff(lap.starts, append=lap.cols.size), [2, 2, 1, 1])
        assert lap.cols[-2:].tolist() == [2, 3] and lap.vals[-2:].tolist() == [0.0, 0.0]
        assert np.array_equal((lap @ np.eye(4))[:2, :2], [[2.0, -2.0], [-2.0, 2.0]])


class TestRandomWalkLaplacian:
    """``matching._variation_rows``, the pipeline's one random-walk Laplacian, on unit graphs."""

    def test_triangle_matches_dense(self):
        i, j = [0, 0, 1], [1, 2, 2]
        got = random_walk(unit_graph_distances(3, i, j), np.eye(3))
        _, want = dense_laplacians(dense_adjacency(3, i, j, 1.0))
        assert np.allclose(got, want)
        assert np.allclose(got.sum(axis=1), 0.0)

    def test_isolated_node_row_is_zero(self):
        f = np.random.default_rng(0).normal(size=(3, 2))
        out = random_walk(unit_graph_distances(3, [0], [1]), f)
        assert np.array_equal(out[2], [0.0, 0.0])

    def test_node_with_no_member_inside_epsilon_is_isolated(self):
        # Node 0 is exactly epsilon from node 1, so it has no edge: its
        # degree is 0 and its row is zero, not 0/0.
        dist = unit_graph_distances(3, [1], [2])
        dist[0, 0, 1] = dist[0, 1, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = random_walk(dist, np.array([[1.0], [2.0], [4.0]]))
        assert out[:, 0].tolist() == [0.0, -2.0, 2.0]

    def test_constant_signal_annihilated(self):
        rng = np.random.default_rng(5)
        i, j, _ = random_graph(rng, 10)
        out = random_walk(unit_graph_distances(10, i, j), np.full((10, 3), 2.5))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_sparse_equals_dense_on_many_graphs(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            i, j, w = random_graph(rng, n)
            lap_d, _ = dense_laplacians(dense_adjacency(n, i, j, w))
            _, rw_d = dense_laplacians(dense_adjacency(n, i, j, 1.0))
            assert np.allclose(combinatorial(n, i, j, w) @ np.eye(n), lap_d, atol=1e-12)
            rw = random_walk(unit_graph_distances(n, i, j), np.eye(n))
            assert np.allclose(rw, rw_d, atol=1e-12)


class TestApplyRw:
    """The random-walk Laplacian of ``_variation_rows`` applied to a per-node signal."""

    def test_two_node_example(self):
        f = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = random_walk(unit_graph_distances(2, [0], [1]), f)
        assert np.allclose(out, [[-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        i, j, _ = random_graph(rng, 9)
        f = rng.normal(size=(9, 3))
        perm = rng.permutation(9)
        # Relabel nodes and rows together; the output permutes identically.
        inv = np.empty(9, dtype=int)
        inv[perm] = np.arange(9)
        out1 = random_walk(unit_graph_distances(9, i, j), f)
        out2 = random_walk(unit_graph_distances(9, inv[i], inv[j]), f[perm])
        assert np.allclose(out2, out1[perm], atol=1e-12)
