"""Tests for the extended graph algorithms (CC, PageRank, SSSP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.formats import COOMatrix
from repro.graphs import (connected_components, label_propagation,
                          multi_pagerank, pagerank, sssp,
                          triangles_per_vertex)
from repro.runtime import default_plan_cache

from ..conftest import nx_graph_of, random_graph_coo


class TestConnectedComponents:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        import networkx as nx

        coo = random_graph_coo(150, 1.5, seed=seed)   # sparse => many comps
        labels = connected_components(coo, nt=16)
        G = nx_graph_of(coo)
        for comp in nx.connected_components(G):
            ids = {labels[v] for v in comp}
            assert ids == {min(comp)}

    def test_label_is_min_vertex(self):
        coo = COOMatrix((5, 5), np.array([0, 1, 3, 4]),
                        np.array([1, 0, 4, 3]))
        labels = connected_components(coo, nt=2)
        assert labels.tolist() == [0, 0, 2, 3, 3]

    def test_fully_connected(self):
        coo = random_graph_coo(60, 8.0, seed=3)
        labels = connected_components(coo, nt=4)
        # dense ER graph at this degree is connected w.h.p.
        assert len(set(labels.tolist())) <= 3

    def test_no_edges(self):
        labels = connected_components(COOMatrix.empty((7, 7)), nt=2)
        assert labels.tolist() == list(range(7))

    def test_empty_graph(self):
        assert len(connected_components(COOMatrix.empty((0, 0)), nt=2)) == 0

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            connected_components(COOMatrix.empty((3, 4)), nt=2)

    @given(st.integers(2, 80), st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_property_labels_consistent_across_edges(self, n, seed):
        coo = random_graph_coo(n, 2.0, seed)
        labels = connected_components(coo, nt=4)
        # every edge joins same-labelled vertices
        assert np.all(labels[coo.row] == labels[coo.col])
        # labels are component minima: label[v] <= v
        assert np.all(labels <= np.arange(n))


class TestPageRank:
    def test_matches_networkx(self):
        import networkx as nx

        G = nx.gnp_random_graph(70, 0.08, seed=5, directed=True)
        A = nx.to_scipy_sparse_array(G, format="coo")
        # our convention is A[i, j] = edge j -> i
        coo = COOMatrix((70, 70), A.col.astype(np.int64),
                        A.row.astype(np.int64), A.data.astype(float))
        ours, _ = pagerank(coo, tol=1e-12)
        ref = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=500)
        refv = np.array([ref[i] for i in range(70)])
        assert np.allclose(ours, refv, atol=1e-7)

    def test_sums_to_one(self):
        coo = random_graph_coo(50, 4.0, seed=6)
        r, _ = pagerank(coo)
        assert r.sum() == pytest.approx(1.0)
        assert np.all(r > 0)

    def test_ring_is_uniform(self):
        n = 12
        coo = COOMatrix((n, n),
                        np.arange(n),
                        np.roll(np.arange(n), 1))
        r, _ = pagerank(coo, tol=1e-14)
        assert np.allclose(r, 1.0 / n)

    def test_dangling_vertices_handled(self):
        # vertex 2 has no out-edges; mass must still sum to 1
        coo = COOMatrix((3, 3), np.array([1, 2]), np.array([0, 1]))
        r, _ = pagerank(coo)
        assert r.sum() == pytest.approx(1.0)

    def test_converges(self):
        coo = random_graph_coo(100, 5.0, seed=7)
        _, iters = pagerank(coo, tol=1e-10, max_iter=300)
        assert iters < 300

    # weighted 4-node example, hand-checkable (A[i, j] is edge j -> i):
    #   0 -> 1 (w=3), 0 -> 2 (w=1), 1 -> 3 (w=2), 2 -> 3 (w=1); 3 dangling
    WEIGHTED4 = COOMatrix(
        (4, 4),
        np.array([1, 2, 3, 3]),
        np.array([0, 0, 1, 2]),
        np.array([3.0, 1.0, 2.0, 1.0]))

    def test_weighted_4node_matches_hand_solution(self):
        # vertex 0 spreads 3/4 of its rank to 1 and 1/4 to 2 (weight
        # proportional, not 1/2 each); the exact stationary vector
        # solves (I - d*(P + dangling/n)) r = (1-d)/n * 1
        d = 0.85
        P = np.zeros((4, 4))
        P[1, 0], P[2, 0] = 3 / 4, 1 / 4
        P[3, 1] = 1.0
        P[3, 2] = 1.0
        E = np.zeros((4, 4))
        E[:, 3] = 1.0 / 4                      # dangling redistribution
        want = np.linalg.solve(np.eye(4) - d * (P + E),
                               np.full(4, (1 - d) / 4))
        want /= want.sum()
        r, _ = pagerank(self.WEIGHTED4, damping=d, tol=1e-14)
        assert np.allclose(r, want, atol=1e-10)
        # weight-proportional split: r1/r2 reflects the 3:1 edge weights
        assert r[1] > r[2]

    def test_weighted_matches_networkx(self):
        import networkx as nx

        coo = self.WEIGHTED4
        G = nx.DiGraph()
        G.add_nodes_from(range(4))
        for i, j, w in zip(coo.row, coo.col, coo.val):
            G.add_edge(int(j), int(i), weight=float(w))
        ref = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=500)
        refv = np.array([ref[i] for i in range(4)])
        r, _ = pagerank(coo, tol=1e-14)
        assert np.allclose(r, refv, atol=1e-8)

    def test_duplicate_entries_merge_not_inflate(self):
        # the same edge stored twice (1.5 + 1.5) must equal one 3.0
        # edge — duplicates used to inflate the out-degree count
        dup = COOMatrix(
            (4, 4),
            np.array([1, 1, 2, 3, 3]),
            np.array([0, 0, 0, 1, 2]),
            np.array([1.5, 1.5, 1.0, 2.0, 1.0]))
        r_dup, _ = pagerank(dup, tol=1e-14)
        r_ref, _ = pagerank(self.WEIGHTED4, tol=1e-14)
        assert np.allclose(r_dup, r_ref, atol=1e-12)

    def test_explicit_zero_edge_keeps_vertex_dangling(self):
        # a weight-0 edge is no edge: vertex 3 stays dangling, so the
        # ranks match the matrix without the explicit zero
        withzero = COOMatrix(
            (4, 4),
            np.array([1, 2, 3, 3, 0]),
            np.array([0, 0, 1, 2, 3]),
            np.array([3.0, 1.0, 2.0, 1.0, 0.0]))
        r_zero, _ = pagerank(withzero, tol=1e-14)
        r_ref, _ = pagerank(self.WEIGHTED4, tol=1e-14)
        assert np.allclose(r_zero, r_ref, atol=1e-12)

    def test_bad_damping(self):
        with pytest.raises(ShapeError):
            pagerank(COOMatrix.empty((2, 2)), damping=1.0)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            pagerank(COOMatrix.empty((2, 3)))


def _seeds(n):
    seeds = np.full(n, -1, dtype=np.int64)
    seeds[[0, 7]] = [0, 1]
    return seeds


@pytest.mark.parametrize("run", [
    lambda A: pagerank(A),
    lambda A: connected_components(A),
    lambda A: triangles_per_vertex(A),
    lambda A: multi_pagerank(A, np.array([0, 3])),
    lambda A: label_propagation(A, _seeds(A.shape[0])),
], ids=["pagerank", "connected_components", "triangles_per_vertex",
        "multi_pagerank", "label_propagation"])
def test_derived_matrix_plans_stay_out_of_the_global_cache(run):
    # each call builds its operator on a matrix derived per call, so a
    # plan cached process-wide could never be hit again
    coo = random_graph_coo(40, 4.0, seed=9)
    cache = default_plan_cache()
    size, misses = len(cache), cache.stats()["misses"]
    run(coo)
    # misses too: at capacity, a leaked plan would evict another one
    assert (len(cache), cache.stats()["misses"]) == (size, misses)


class TestSSSP:
    def weighted_graph(self, n, seed):
        import networkx as nx

        rng = np.random.default_rng(seed)
        G = nx.gnp_random_graph(n, 5.0 / n, seed=seed)
        for u, v in G.edges:
            G[u][v]["weight"] = float(rng.random() + 0.05)
        A = nx.to_scipy_sparse_array(G, format="coo", weight="weight")
        coo = COOMatrix((n, n), A.row.astype(np.int64),
                        A.col.astype(np.int64), A.data.astype(float))
        return G, coo

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dijkstra(self, seed):
        import networkx as nx

        G, coo = self.weighted_graph(90, seed)
        d = sssp(coo, 0, nt=16)
        ref = nx.single_source_dijkstra_path_length(G, 0)
        want = np.full(90, np.inf)
        for v, dist in ref.items():
            want[v] = dist
        assert np.allclose(d, want)

    def test_unweighted_equals_bfs_levels(self):
        from repro.graphs import bfs_levels

        coo = random_graph_coo(80, 4.0, seed=3)
        d = sssp(coo, 0, nt=4)
        levels = bfs_levels(coo, 0)
        finite = levels >= 0
        assert np.allclose(d[finite], levels[finite])
        assert np.all(np.isinf(d[~finite]))

    def test_source_distance_zero(self):
        _, coo = self.weighted_graph(40, 4)
        assert sssp(coo, 7, nt=4)[7] == 0.0

    def test_unreachable_inf(self):
        coo = COOMatrix((4, 4), np.array([1]), np.array([0]),
                        np.array([2.0]))
        d = sssp(coo, 0, nt=2)
        assert d[1] == 2.0 and np.isinf(d[2]) and np.isinf(d[3])

    def test_source_out_of_range(self):
        with pytest.raises(ShapeError):
            sssp(COOMatrix.empty((4, 4)), 4, nt=2)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            sssp(COOMatrix.empty((3, 4)), 0, nt=2)

    def test_tiny_improvement_not_dropped(self):
        # direct edge 0->2 costs 4096; the two-hop path costs one ulp
        # less (2^-41).  The old absolute 1e-12 slack dropped the
        # improvement; exact strict comparison must take it.
        shorter = np.nextafter(4096.0, 0.0)        # 4096 - 2^-41
        coo = COOMatrix(
            (3, 3),
            np.array([2, 1, 2]),
            np.array([0, 0, 1]),
            np.array([4096.0, 2048.0, shorter - 2048.0]))
        d = sssp(coo, 0, nt=2)
        assert d[2] == shorter

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_property_matches_scipy_dijkstra(self, seed, scale):
        # random directed non-negative weighted graphs, small and
        # large weight scales, vs the independent csgraph oracle
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import dijkstra

        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 70))
        n_edges = int(rng.integers(n, 4 * n))
        rows = rng.integers(0, n, n_edges)
        cols = rng.integers(0, n, n_edges)
        keep = rows != cols
        vals = (rng.random(keep.sum()) + 0.05) * scale
        coo = COOMatrix((n, n), rows[keep], cols[keep],
                        vals).sum_duplicates()
        d = sssp(coo, 0, nt=4)
        # csgraph reads G[i, j] as edge i -> j; our convention is the
        # transpose (A[i, j] is j -> i)
        at = coo.transpose()
        G = csr_array((at.val, (at.row, at.col)), shape=(n, n))
        want = dijkstra(G, directed=True, indices=0)
        assert np.allclose(d, want, rtol=1e-12, atol=0)

    def test_max_rounds_caps_work(self):
        # a path graph needs n-1 rounds; capping at 1 leaves the tail inf
        n = 6
        coo = COOMatrix((n, n), np.arange(1, n), np.arange(n - 1),
                        np.ones(n - 1))
        d = sssp(coo, 0, nt=2, max_rounds=1)
        assert d[1] == 1.0 and np.isinf(d[2])
