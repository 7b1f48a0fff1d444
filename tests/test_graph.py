import warnings

import numpy as np
import pytest
from oracles import build_epsilon_graph, dense_laplacians, random_graph

from dpcdenoise.graph import (
    SparseGraph,
    apply_rw,
    combinatorial_laplacian,
    laplacian,
    random_walk_laplacian,
)


class TestSparseGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SparseGraph.from_edges(3, [1], [1], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseGraph.from_edges(3, [0, 1], [1, 0], [1.0, 2.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="weights"):
            SparseGraph.from_edges(2, [0], [1], [-1.0])

    def test_canonicalizes_orientation(self):
        g = SparseGraph.from_edges(3, [2], [0], [1.5])
        assert (g.edge_i[0], g.edge_j[0]) == (0, 2)


class TestEpsilonGraph:
    # The oracle's epsilon graph, which variation_rows builds on.
    def test_edge_below_threshold(self):
        g = build_epsilon_graph([[0, 0, 0], [1, 0, 0]], 2.0)
        assert g.edge_count == 1
        assert g.weights[0] == 1.0

    def test_strict_inequality_at_threshold(self):
        g = build_epsilon_graph([[0, 0, 0], [1, 0, 0]], 1.0)
        assert g.edge_count == 0

    def test_nonfinite_epsilon(self):
        with pytest.raises(ValueError, match="finite"):
            build_epsilon_graph([[0, 0, 0]], np.inf)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 1, (50, 3))
        eps = 0.35
        g = build_epsilon_graph(pts, eps)
        got = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        want = set()
        for i in range(50):
            for j in range(i + 1, 50):
                if 0 < np.linalg.norm(pts[i] - pts[j]) < eps:
                    want.add((i, j))
        assert got == want


class TestCombinatorialLaplacian:
    def test_single_edge(self):
        g = SparseGraph.from_edges(2, [0], [1], [3.0])
        lap = combinatorial_laplacian(g).toarray()
        assert np.array_equal(lap, [[3.0, -3.0], [-3.0, 3.0]])

    def test_constant_in_null_space(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 12)
        lap = combinatorial_laplacian(g)
        assert np.allclose(lap @ np.ones(12), 0.0, atol=1e-12)

    def test_quadratic_form_identity_triangle(self):
        g = SparseGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])
        lap = combinatorial_laplacian(g).toarray()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=3)
            direct = sum((x[i] - x[j]) ** 2 for i, j in [(0, 1), (0, 2), (1, 2)])
            assert x @ lap @ x == pytest.approx(direct, rel=1e-12)

    def test_psd_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            g = random_graph(rng, n)
            lap = combinatorial_laplacian(g)
            for _ in range(10):
                x = rng.normal(size=n)
                assert x @ (lap @ x) >= -1e-10


class TestLaplacianBuilder:
    def test_diagonal_adds_weights_at_i_then_at_j(self):
        # Node 1 is i of edge (1, 2), weight 0.1, and j of edge (0, 1), weight
        # 1.0: its diagonal is (0.1 + 0.1) + 1.0, which rounds differently
        # from (0.1 + 1.0) + 0.1 and from 0.1 + (0.1 + 1.0).
        got = laplacian(3, [0, 1], [1, 2], [1.0, 0.1], [0.0, 0.1, 0.0]).toarray()[1, 1]
        assert got == (0.1 + 0.1) + 1.0
        assert got != (0.1 + 1.0) + 0.1 and got != 0.1 + (0.1 + 1.0)

    def test_every_row_stores_its_diagonal(self):
        # Nodes 2 and 3 have no edge; their rows hold one explicit entry.
        g = SparseGraph.from_edges(4, [0], [1], [2.0])
        lap = combinatorial_laplacian(g)
        rw = random_walk_laplacian(g).matrix
        for a in (lap, rw):
            assert a.nnz == 4 + 2
            assert np.array_equal(np.diff(a.starts, append=a.nnz), [2, 2, 1, 1])
            assert a.cols[-2:].tolist() == [2, 3] and a.vals[-2:].tolist() == [0.0, 0.0]
        assert np.array_equal(lap.toarray()[:2, :2], [[2.0, -2.0], [-2.0, 2.0]])


class TestRandomWalkLaplacian:
    def test_triangle_matches_dense(self):
        g = SparseGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])
        rw = random_walk_laplacian(g)
        _, _, want = dense_laplacians(g)
        assert np.allclose(rw.matrix.toarray(), want)
        assert np.allclose(rw.matrix.toarray().sum(axis=1), 0.0)

    def test_isolated_node_row_is_zero(self):
        g = SparseGraph.from_edges(3, [0], [1], [1.0])
        rw = random_walk_laplacian(g)
        f = np.random.default_rng(0).normal(size=(3, 2))
        out = apply_rw(rw, f)
        assert np.array_equal(out[2], [0.0, 0.0])

    def test_node_whose_edges_weigh_zero_is_isolated(self):
        # Node 0's one edge weighs 0, so its degree is 0: its row is zero, not 0/0.
        g = SparseGraph.from_edges(3, [0, 1], [1, 2], [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rw = random_walk_laplacian(g)
            out = apply_rw(rw, np.array([1.0, 2.0, 4.0]))
        assert np.array_equal(rw.matrix.toarray()[0], [0.0, 0.0, 0.0])
        assert out.tolist() == [0.0, -2.0, 2.0]

    def test_constant_signal_annihilated(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 10)
        rw = random_walk_laplacian(g)
        out = apply_rw(rw, np.full((10, 3), 2.5))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_sparse_equals_dense_on_many_graphs(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            g = random_graph(rng, n)
            _, lap_d, rw_d = dense_laplacians(g)
            assert np.allclose(combinatorial_laplacian(g).toarray(), lap_d, atol=1e-12)
            assert np.allclose(random_walk_laplacian(g).matrix.toarray(), rw_d, atol=1e-12)


class TestApplyRw:
    def test_two_node_example(self):
        g = SparseGraph.from_edges(2, [0], [1], [1.0])
        rw = random_walk_laplacian(g)
        f = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = apply_rw(rw, f)
        assert np.allclose(out, [[-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])

    def test_dimension_mismatch(self):
        g = SparseGraph.from_edges(2, [0], [1], [1.0])
        rw = random_walk_laplacian(g)
        with pytest.raises(ValueError, match="row count"):
            apply_rw(rw, np.zeros((3, 2)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 9)
        rw = random_walk_laplacian(g)
        f = rng.normal(size=(9, 3))
        perm = rng.permutation(9)
        # Relabel nodes and rows together; the output permutes identically.
        inv = np.empty(9, dtype=int)
        inv[perm] = np.arange(9)
        g2 = SparseGraph.from_edges(9, inv[g.edge_i], inv[g.edge_j], g.weights)
        out1 = apply_rw(rw, f)
        out2 = apply_rw(random_walk_laplacian(g2), f[perm])
        assert np.allclose(out2, out1[perm], atol=1e-12)
