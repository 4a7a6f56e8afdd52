import numpy as np
import pytest

from mrfgcn.errors import DegenerateInputError, StructuralInputError
from mrfgcn.graph import (build_graph, homophily_beta, normalized_adjacency,
                          normalized_adjacency_operator)
from mrfgcn.selfcheck import random_graph


def test_build_drops_self_loops_and_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
    assert g.num_edges == 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_build_empty():
    g = build_graph(1, [])
    assert g.num_edges == 0
    assert g.degrees.tolist() == [0]


def test_build_star_degrees():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degrees.tolist() == [3, 1, 1, 1]
    assert g.neighbors(0).tolist() == [1, 2, 3]


def test_build_endpoint_out_of_range():
    with pytest.raises(StructuralInputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(StructuralInputError):
        build_graph(3, [(-1, 0)])


def _reference_build(num_nodes, raw_edges):
    """build_graph's arrays by its earlier formulation: a row-wise unique of
    the (lo, hi) pairs, a lexsort of the slots and an argsort by edge id."""
    pairs = np.asarray(raw_edges, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0) if len(pairs) else pairs
    num_edges = len(edges)
    center = np.concatenate([edges[:, 0], edges[:, 1]])
    leaf = np.concatenate([edges[:, 1], edges[:, 0]])
    eid = np.concatenate([np.arange(num_edges), np.arange(num_edges)]).astype(np.int64)
    order = np.lexsort((leaf, center))
    center, leaf, eid = center[order], leaf[order], eid[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(center, minlength=num_nodes), out=indptr[1:])
    return {"edges": edges, "indptr": indptr, "indices": leaf, "slot_edge_ids": eid}


def _raw_pair_cases():
    rng = np.random.default_rng(21)
    yield 0, []
    yield 1, []
    yield 1, [(0, 0), (0, 0)]
    yield 5, []
    yield 5, [(3, 3), (0, 0), (3, 3)]
    yield 2, [(1, 0), (0, 1), (1, 0)]
    for _ in range(40):
        n = int(rng.integers(2, 80))
        raw = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
        raw = np.concatenate([raw, raw[:, ::-1], raw[: len(raw) // 2]])   # both ways, repeats
        yield n, raw[rng.permutation(len(raw))]


def test_build_matches_the_row_unique_formulation():
    for num_nodes, raw in _raw_pair_cases():
        g = build_graph(num_nodes, raw)
        for name, expected in _reference_build(num_nodes, raw).items():
            got = getattr(g, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), (num_nodes, name)


def test_build_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 12)))
        g2 = build_graph(g.num_nodes, g.edges)
        assert np.array_equal(g.edges, g2.edges)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)
        assert np.array_equal(g.slot_edge_ids, g2.slot_edge_ids)


def test_neighbor_lists_symmetric():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 15)
    for j in range(g.num_nodes):
        for k in g.neighbors(j):
            assert j in g.neighbors(k)


def test_edge_ids_bijection():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 12)
    # edge ids are positions in the sorted edge list, and every id labels
    # exactly the two CSR slots of its pair, one per orientation
    assert np.array_equal(np.unique(g.edges, axis=0), g.edges)
    assert (g.edges[:, 0] < g.edges[:, 1]).all()
    assert np.array_equal(np.bincount(g.slot_edge_ids, minlength=g.num_edges),
                          np.full(g.num_edges, 2))
    pairs = np.sort(np.stack([g.slot_centers, g.indices], axis=1), axis=1)
    assert np.array_equal(pairs, g.edges[g.slot_edge_ids])


def test_leaf_incidence_rows_list_the_reverse_slots_in_order():
    # the leaf-side sums add row i's slots in stored order; that order must be
    # the reverses of the slots centered at i, in CSR order
    for num_nodes, raw in _raw_pair_cases():
        g = build_graph(num_nodes, raw)
        inc = g.leaf_incidence
        assert np.array_equal(inc.indptr, g.indptr)
        reverse = inc.indices               # entry d sits in row center(d)
        assert np.array_equal(g.slot_centers[reverse], g.indices)
        assert np.array_equal(g.indices[reverse], g.slot_centers)
        assert np.array_equal(g.slot_edge_ids[reverse], g.slot_edge_ids)


@pytest.mark.parametrize("num_nodes, edges", [(7, [(0, 3), (3, 5), (0, 5), (5, 6)]),
                                             (3, [])])
def test_slot_incidence_rows_hold_the_slots_at_each_node(num_nodes, edges):
    g = build_graph(num_nodes, edges)
    slots = np.arange(2 * g.num_edges)
    for name, node_of_slot in (("center_incidence", g.slot_centers),
                               ("leaf_incidence", g.indices)):
        inc = getattr(g, name)
        assert inc.shape == (num_nodes, 2 * g.num_edges)
        assert (inc.data == 1.0).all()
        expected = np.zeros(inc.shape)
        expected[node_of_slot, slots] = 1.0
        assert np.array_equal(inc.toarray(), expected)
        assert getattr(g, name) is inc          # built once per graph


def test_normalized_adjacency_isolated_node():
    assert normalized_adjacency(build_graph(1, [])).tolist() == [[1.0]]


def test_normalized_adjacency_single_edge():
    a = normalized_adjacency(build_graph(2, [(0, 1)]))
    assert np.allclose(a, 0.5)


def test_normalized_adjacency_matches_dense_formula():
    # independent route: build A + I and the degree matrix explicitly
    g = build_graph(3, [(0, 1), (1, 2)])
    a = normalized_adjacency(g)
    assert a[0, 1] == pytest.approx(1.0 / np.sqrt(2 * 3))
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float) + np.eye(3)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(adj.sum(axis=1)))
    assert np.allclose(a, d_inv_sqrt @ adj @ d_inv_sqrt, atol=1e-15)


def test_normalized_adjacency_exactly_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = normalized_adjacency(random_graph(rng, int(rng.integers(2, 20))))
        assert np.array_equal(a, a.T)


def test_regular_graph_rows_sum_to_one():
    # 2-regular cycle: every row has three entries of 1/3
    n = 6
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    a = normalized_adjacency(g)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_sparse_operator_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(2, 20)))
        dense = normalized_adjacency(g)
        assert np.allclose(normalized_adjacency_operator(g).toarray(), dense, atol=1e-15)


def test_homophily_triangle_all_equal():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert homophily_beta(g, np.array([1, 1, 1])) == 1.0


def test_homophily_two_nodes_different():
    g = build_graph(2, [(0, 1)])
    assert homophily_beta(g, np.array([0, 1])) == 0.0


def test_homophily_relabeling_invariant():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 20)
    labels = rng.integers(0, 4, size=20)
    base = homophily_beta(g, labels)
    perm = rng.permutation(4)
    assert homophily_beta(g, perm[labels]) == pytest.approx(base, abs=1e-15)


def test_homophily_excludes_isolated_nodes():
    # node 3 has no neighbors and must not contribute a 0/0 term
    g = build_graph(4, [(0, 1), (1, 2)])
    labels = np.array([0, 0, 0, 1])
    assert homophily_beta(g, labels) == 1.0


def test_homophily_no_edges_error():
    with pytest.raises(DegenerateInputError):
        homophily_beta(build_graph(3, []), np.array([0, 1, 2]))


def test_graph_arrays_immutable():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 5
