import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dense_normalized_adjacency
from mrfgcn.data import generate_synthetic
from mrfgcn.errors import StaleCacheError, StructuralInputError
from mrfgcn.gcn import (GcnParams, backward, cross_entropy, forward, init_params,
                        receptive_field, supervised_loss_and_grad)
from mrfgcn.graph import build_graph, normalized_adjacency_operator
from mrfgcn.numerics import dropout_mask, softmax_rows, stream
from mrfgcn.selfcheck import fd_gradient, random_graph, rel_error


def test_init_ranges():
    params = init_params(4, 4, 4, seed=0)
    bound = np.sqrt(6.0 / 8.0)
    assert np.abs(params.w0).max() <= bound
    assert np.abs(params.w1).max() <= bound


def test_init_deterministic():
    a, b = init_params(7, 5, 3, seed=11), init_params(7, 5, 3, seed=11)
    assert np.array_equal(a.w0, b.w0) and np.array_equal(a.w1, b.w1)


def test_init_mean_near_zero():
    params = init_params(100, 100, 100, seed=3)
    bound = np.sqrt(6.0 / 200.0)
    se = (2 * bound / np.sqrt(12.0)) / np.sqrt(params.w0.size)
    assert abs(params.w0.mean()) <= 3 * se


def test_zero_weights_give_zero_scores():
    g = build_graph(3, [(0, 1), (1, 2)])
    params = GcnParams(np.zeros((2, 4)), np.zeros((4, 2)))
    scores = forward(params, sp.csr_array(np.ones((3, 2))), normalized_adjacency_operator(g))[0]
    assert np.array_equal(scores, np.zeros((3, 2)))


def test_isolated_node_closed_form():
    # A-hat = 1, relu(1*1) = 1, scores = (2, 0)
    g = build_graph(1, [])
    params = GcnParams(np.array([[1.0]]), np.array([[2.0, 0.0]]))
    scores = forward(params, sp.csr_array([[1.0]]), normalized_adjacency_operator(g))[0]
    assert scores.tolist() == [[2.0, 0.0]]


def test_forward_matches_per_node_reference():
    # independent route: explicit per-node neighbor sums with python loops
    rng = np.random.default_rng(0)
    g = random_graph(rng, 7)
    x = rng.normal(size=(7, 3))
    params = GcnParams(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
    scores = forward(params, sp.csr_array(x), normalized_adjacency_operator(g))[0]
    adj = dense_normalized_adjacency(g)

    def aggregate(rows):
        out = np.zeros_like(rows)
        for i in range(7):
            out[i] = adj[i, i] * rows[i]
            for j in g.indices[g.indptr[i]:g.indptr[i + 1]]:
                out[i] += adj[i, j] * rows[j]
        return out

    h = np.maximum(aggregate(x @ params.w0), 0.0)
    ref = aggregate(h @ params.w1)
    assert np.allclose(scores, ref, atol=1e-12)


def test_eval_mode_deterministic():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 6)
    x = sp.csr_array(rng.normal(size=(6, 3)))
    params = init_params(3, 5, 2, seed=0)
    a = forward(params, x, normalized_adjacency_operator(g))[0]
    b = forward(params, x, normalized_adjacency_operator(g))[0]
    assert np.array_equal(a, b)


def test_train_mode_uses_rng_stream():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 6)
    x = sp.csr_array(rng.normal(size=(6, 3)))
    params = init_params(3, 5, 2, seed=0)
    adj = normalized_adjacency_operator(g)
    a = forward(params, x, adj, dropout_keep=0.5, rng=stream(4, "d"))[0]
    b = forward(params, x, adj, dropout_keep=0.5, rng=stream(4, "d"))[0]
    c = forward(params, x, adj, dropout_keep=0.5, rng=stream(5, "d"))[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 8)
    x = rng.normal(size=(8, 3))
    params = init_params(3, 4, 3, seed=1)
    scores = forward(params, sp.csr_array(x), normalized_adjacency_operator(g))[0]
    perm = rng.permutation(8)
    # node i of the permuted graph is node perm[i] of g
    permuted_graph = build_graph(8, np.argsort(perm)[g.edges])
    permuted = forward(params, sp.csr_array(x[perm]),
                       normalized_adjacency_operator(permuted_graph))[0]
    assert np.allclose(permuted, scores[perm], atol=1e-12)


def test_edgeless_graph_is_per_node_mlp():
    rng = np.random.default_rng(4)
    g = build_graph(5, [])
    params = init_params(3, 4, 2, seed=2)
    adj = normalized_adjacency_operator(g)
    x = rng.normal(size=(5, 3))
    base = forward(params, sp.csr_array(x), adj)[0]
    x2 = x.copy()
    x2[1:] = rng.normal(size=(4, 3))
    assert np.allclose(forward(params, sp.csr_array(x2), adj)[0][0], base[0], atol=1e-15)


def test_backward_zero_upstream():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 5)
    x = sp.csr_array(rng.normal(size=(5, 3)))
    params = init_params(3, 4, 2, seed=3)
    scores, cache = forward(params, x, normalized_adjacency_operator(g))
    gw0, gw1 = backward(params, cache, np.zeros_like(scores))
    assert np.array_equal(gw0, np.zeros_like(params.w0))
    assert np.array_equal(gw1, np.zeros_like(params.w1))


def test_backward_single_node_closed_form():
    # one node, one feature: d(scores)/dW1 is the hidden activation outer product
    g = build_graph(1, [])
    params = GcnParams(np.array([[1.5]]), np.array([[0.3, -0.2]]))
    x = sp.csr_array([[2.0]])
    scores, cache = forward(params, x, normalized_adjacency_operator(g))
    upstream = np.array([[1.0, 0.0]])
    gw0, gw1 = backward(params, cache, upstream)
    hidden = max(2.0 * 1.5, 0.0)
    assert np.allclose(gw1, [[hidden, 0.0]])
    assert np.allclose(gw0, [[2.0 * 0.3]])    # x * W1[0, 0] through the relu


def test_backward_with_dropout_masks_cached():
    # the same rng stream regenerates the same masks, so FD stays exact
    rng = np.random.default_rng(7)
    g = random_graph(rng, 6)
    x = sp.csr_array(rng.normal(size=(6, 3)))
    params = GcnParams(rng.normal(size=(3, 5)), rng.normal(size=(5, 2)))
    adj = normalized_adjacency_operator(g)
    upstream = rng.normal(size=(6, 2))

    scores, cache = forward(params, x, adj, dropout_keep=0.7, rng=stream(0, "fd"))
    gw0, gw1 = backward(params, cache, upstream)

    def loss_w0(w):
        s, _ = forward(GcnParams(w, params.w1), x, adj, dropout_keep=0.7,
                       rng=stream(0, "fd"))
        return float((upstream * s).sum())

    assert rel_error(gw0, fd_gradient(loss_w0, params.w0.copy())) <= 1e-6


def _sparse_features(rng, n, f, density=0.3):
    x = rng.normal(size=(n, f)) * (rng.random((n, f)) < density)
    x[0, 0] = 1.0                                # at least one stored entry
    return sp.csr_array(x)


def test_input_dropout_keeps_zeros_and_scales_kept_entries():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 30)
    x = _sparse_features(rng, 30, 12)
    before = x.copy()
    params = init_params(12, 4, 3, seed=1)
    keep = 0.4
    _, cache = forward(params, x, normalized_adjacency_operator(g), dropout_keep=keep,
                       rng=stream(2, "d"))
    dropped, dense = cache.x0.toarray(), x.toarray()
    assert np.all(dropped[dense == 0.0] == 0.0)
    stored = dense != 0.0
    kept = dropped[stored] != 0.0
    assert kept.any() and not kept.all()
    assert np.array_equal(dropped[stored][kept], dense[stored][kept] * (1.0 / keep))
    # the dropped input stores the kept entries and nothing else
    assert cache.x0.nnz == kept.sum() and np.all(cache.x0.data != 0.0)
    # the caller's features are not touched
    assert np.array_equal(x.data, before.data)


# the id names the one form of X the backbone takes
@pytest.mark.parametrize("keep", [0.6], ids=["csr"])
def test_input_dropout_stores_a_scaled_copy_of_the_kept_entries(keep):
    rng = np.random.default_rng(12)
    g = random_graph(rng, 30)
    x = _sparse_features(rng, 30, 12)
    params = init_params(12, 4, 3, seed=1)
    scores, cache = forward(params, x, normalized_adjacency_operator(g), dropout_keep=keep,
                            rng=stream(3, "d"))
    # the stored entries the same stream keeps, each multiplied by 1/keep
    kept = dropout_mask((x.nnz,), keep, stream(3, "d"))
    assert np.array_equal(cache.x0.data, x.data[kept] * (1.0 / keep))
    assert np.array_equal(cache.x0.indices, x.indices[kept])
    assert np.array_equal(cache.x0.indptr, np.concatenate([[0], np.cumsum(kept)])[x.indptr])
    assert not np.shares_memory(cache.x0.data, x.data)
    # products over the kept entries equal those with the dropped ones as zeros
    zeros_kept = sp.csr_array((x.data * (kept / keep), x.indices, x.indptr), shape=x.shape)
    upstream = rng.normal(size=(30, 4))
    assert np.array_equal(cache.x0 @ params.w0, zeros_kept @ params.w0)
    assert np.array_equal(cache.x0.T @ upstream, zeros_kept.T @ upstream)


def test_keep_one_draws_nothing_and_stores_the_features_as_given():
    rng = np.random.default_rng(13)
    g = random_graph(rng, 12)
    x = _sparse_features(rng, 12, 5)
    params = init_params(5, 4, 3, seed=1)
    draws = stream(3, "d")
    _, cache = forward(params, x, normalized_adjacency_operator(g), dropout_keep=1.0,
                       rng=draws)
    assert cache.x0 is x and cache.mask1 is None
    assert np.array_equal(draws.random(4), stream(3, "d").random(4))


def _dense_reference(params, x, adj, mask0, mask1, upstream):
    """The GCN on a dense feature matrix with the given masks, and its gradients."""
    x0 = x * mask0
    z1 = adj @ (x0 @ params.w0)
    h1d = np.maximum(z1, 0.0) * mask1
    scores = adj @ (h1d @ params.w1)
    ag = adj @ upstream
    gz1 = (ag @ params.w1.T) * mask1 * (z1 > 0.0)
    return scores, x0.T @ (adj @ gz1), h1d.T @ ag


def test_sparse_forward_backward_match_dense_for_the_same_masks():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 25)
    n, f, hidden, keep = 25, 10, 6, 0.6
    x = _sparse_features(rng, n, f)
    params = GcnParams(rng.normal(size=(f, hidden)), rng.normal(size=(hidden, 3)))
    upstream = rng.normal(size=(n, 3))

    scores, cache = forward(params, x, normalized_adjacency_operator(g), dropout_keep=keep,
                            rng=stream(5, "d"))
    gw0, gw1 = backward(params, cache, upstream)

    # the same stream, drawn in forward's order: one value per stored entry, then hidden
    masks = stream(5, "d")
    mask0 = sp.csr_array((dropout_mask((x.nnz,), keep, masks) / keep, x.indices, x.indptr),
                         shape=x.shape).toarray()
    mask1 = dropout_mask((n, hidden), keep, masks) / keep
    ref_scores, ref_gw0, ref_gw1 = _dense_reference(
        params, x.toarray(), dense_normalized_adjacency(g), mask0, mask1, upstream)
    assert np.allclose(scores, ref_scores, rtol=0.0, atol=1e-12)
    assert np.allclose(gw0, ref_gw0, rtol=0.0, atol=1e-12)
    assert np.allclose(gw1, ref_gw1, rtol=0.0, atol=1e-12)


def test_backward_with_sparse_dropout_matches_finite_differences():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 9)
    x = _sparse_features(rng, 9, 7, density=0.4)
    assert x.nnz < 9 * 7
    params = GcnParams(rng.normal(size=(7, 5)), rng.normal(size=(5, 3)))
    adj = normalized_adjacency_operator(g)
    upstream = rng.normal(size=(9, 3))

    _, cache = forward(params, x, adj, dropout_keep=0.7, rng=stream(1, "fd"))
    assert isinstance(cache.x0, sp.csr_array)
    gw0, gw1 = backward(params, cache, upstream)

    def loss(w0, w1):
        s, _ = forward(GcnParams(w0, w1), x, adj, dropout_keep=0.7, rng=stream(1, "fd"))
        return float((upstream * s).sum())

    assert rel_error(gw0, fd_gradient(lambda w: loss(w, params.w1), params.w0.copy())) <= 1e-6
    assert rel_error(gw1, fd_gradient(lambda w: loss(params.w0, w), params.w1.copy())) <= 1e-6


def test_backward_stale_cache():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 4)
    x = sp.csr_array(rng.normal(size=(4, 3)))
    params = init_params(3, 4, 2, seed=5)
    _, cache = forward(params, x, normalized_adjacency_operator(g))
    newer = GcnParams(params.w0.copy(), params.w1.copy())
    with pytest.raises(StaleCacheError):
        backward(newer, cache, np.zeros((4, 2)))


def test_supervised_loss_uniform_prediction():
    g = build_graph(4, [(0, 1)])
    params = GcnParams(np.zeros((2, 3)), np.zeros((3, 5)))
    x = sp.csr_array(np.ones((4, 2)))
    labels = np.array([0, 1, 2, 3])
    loss, _, _ = supervised_loss_and_grad(params, x, normalized_adjacency_operator(g),
                                          labels, np.array([0, 1]))
    assert loss == pytest.approx(np.log(5.0))


def test_supervised_loss_vanishes_with_margin():
    g = build_graph(1, [])
    x = sp.csr_array([[1.0]])
    labels = np.array([0])
    prev = None
    for margin in (2.0, 10.0, 40.0):
        params = GcnParams(np.array([[1.0]]), np.array([[margin, 0.0]]))
        loss, _, _ = supervised_loss_and_grad(params, x, normalized_adjacency_operator(g),
                                              labels, np.array([0]))
        if prev is not None:
            assert loss < prev
        prev = loss
    assert prev < 1e-10


def test_supervised_loss_stays_finite_when_a_label_probability_underflows():
    # commands run with numpy raising on division by zero; a train node
    # scored 2000 nats against its label must not stop training, and its
    # loss is that margin, not inf
    g = build_graph(2, [])
    params = GcnParams(np.eye(2), np.array([[0.0, 2000.0], [0.0, 2000.0]]))
    labels = np.array([0, 1])
    with np.errstate(divide="raise"):
        loss, gw0, gw1 = supervised_loss_and_grad(params, sp.csr_array(np.eye(2)),
                                                  normalized_adjacency_operator(g),
                                                  labels, np.array([0, 1]))
    assert loss == 1000.0
    assert np.isfinite(gw0).all() and np.isfinite(gw1).all()


def test_supervised_grads_match_finite_differences():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 7)
    x = sp.csr_array(rng.normal(size=(7, 3)))
    labels = rng.integers(0, 3, size=7).astype(np.int64)
    train_ids = np.array([0, 2, 5])
    params = GcnParams(rng.normal(size=(3, 5)), rng.normal(size=(5, 3)))
    adj = normalized_adjacency_operator(g)
    _, gw0, gw1 = supervised_loss_and_grad(params, x, adj, labels, train_ids)

    def loss_of(w0, w1):
        return supervised_loss_and_grad(GcnParams(w0, w1), x, adj, labels, train_ids)[0]

    fd0 = fd_gradient(lambda w: loss_of(w, params.w1), params.w0.copy())
    fd1 = fd_gradient(lambda w: loss_of(params.w0, w), params.w1.copy())
    assert rel_error(gw0, fd0) <= 1e-6
    assert rel_error(gw1, fd1) <= 1e-6


# ---- the receptive field: the supervised step and validation on A[rows] and X[inputs]

def _full_graph_loss_and_grad(params, x, adj, labels, train_ids):
    """Supervised loss, gradients and scores from the full-graph forward and backward."""
    scores, cache = forward(params, x, adj)
    count = len(train_ids)
    probs = softmax_rows(scores[train_ids])
    loss = float(-np.mean(np.log(probs[np.arange(count), labels[train_ids]])))
    grad_scores = np.zeros_like(scores)
    grad_scores[train_ids] = probs / count
    grad_scores[train_ids, labels[train_ids]] -= 1.0 / count
    return (loss, *backward(params, cache, grad_scores)), scores


def _field_case(name):
    """(graph, features, train ids, validation ids) for one equivalence case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "isolated_nodes":
        g = random_graph(rng, 41, edge_prob=0.03)
    elif name == "bare_labeled":
        g = random_graph(rng, 30, edge_prob=0.08)
    elif name == "whole_graph":
        g = random_graph(rng, 23, edge_prob=0.3)
    else:                                    # a sparse graph of a few hundred nodes
        ds = generate_synthetic(203, 5, 2, 0.8, feature_dim=40, feature_noise=0.1,
                                seed=3)
        g = ds.graph
    n = g.num_nodes
    x = _sparse_features(rng, n, 9, density=0.4)
    bare = np.flatnonzero(g.degrees == 0)
    if name == "bare_labeled":
        assert len(bare) >= 2
        train = np.concatenate([bare[:2], rng.choice(np.flatnonzero(g.degrees > 0), 4,
                                                     replace=False)])
    else:
        train = rng.choice(n, max(3, n // 10), replace=False)
    if name == "isolated_nodes":
        assert len(bare) > 0
    val = rng.choice(np.setdiff1d(np.arange(n), train), n // 3, replace=False)
    # fields are cut for sorted distinct ids, as a Split holds them
    return g, x, np.sort(train), np.sort(val)


_FIELD_CASES = ("isolated_nodes", "bare_labeled", "whole_graph", "synthetic")


# each id ends in the one form of A and X the backbone takes
@pytest.mark.parametrize("name", _FIELD_CASES, ids=lambda name: f"{name}-csr")
def test_field_supervised_step_and_validation_scores_equal_the_full_graph(name):
    g, x, train, val = _field_case(name)
    n = g.num_nodes
    rng = np.random.default_rng(5)
    # the default hidden width and ten classes: BLAS computes a row of a
    # (rows x 16) @ (16 x 10) product by its place, which the field must keep
    labels = rng.integers(0, 10, size=n)
    params = GcnParams(rng.normal(size=(9, 16)), rng.normal(size=(16, 10)))
    adj = normalized_adjacency_operator(g)
    field = receptive_field(adj, x, train)
    if name == "whole_graph":
        assert field.features.shape[0] == n
    ref, scores = _full_graph_loss_and_grad(params, x, adj, labels, train)
    got = supervised_loss_and_grad(params, x, adj, labels, train, field=field)
    assert all(np.array_equal(r, v) for r, v in zip(ref, got))
    # without a field given, one is cut from the arguments
    assert all(np.array_equal(r, v) for r, v in
               zip(ref, supervised_loss_and_grad(params, x, adj, labels, train)))
    val_field = receptive_field(adj, x, val)
    val_scores, _ = forward(params, x, adj, field=val_field)
    assert np.array_equal(val_scores, scores[val])


def test_field_holds_the_two_hop_blocks():
    g, x, train, _ = _field_case("synthetic")
    field = receptive_field(normalized_adjacency_operator(g), x, train)
    adj = dense_normalized_adjacency(g)
    hop1 = np.flatnonzero(adj[train].any(axis=0))
    hop2 = np.flatnonzero(adj[hop1].any(axis=0))
    assert np.array_equal(field.rows, train)
    assert np.array_equal(field.hidden, hop1)
    assert len(hop2) < g.num_nodes
    assert np.array_equal(field.outer.toarray(), adj[field.rows])
    assert np.array_equal(field.inner.toarray(), adj[np.ix_(hop1, hop2)])
    assert np.array_equal(field.outer_t.toarray(), adj[field.rows].T)
    assert np.array_equal(field.inner_t.toarray(), adj[np.ix_(hop1, hop2)].T)
    assert np.array_equal(field.features.toarray(), x.toarray()[hop2])


def test_field_dropout_draws_over_the_field_only():
    g, x, train, _ = _field_case("synthetic")
    adj = normalized_adjacency_operator(g)
    field = receptive_field(adj, x, train)
    params = init_params(9, 6, 4, seed=2)
    _, cache = forward(params, x, adj, dropout_keep=0.5, rng=stream(1, "d"), field=field)
    draws = stream(1, "d")
    kept = dropout_mask((field.features.nnz,), 0.5, draws)
    mask1 = dropout_mask((len(field.hidden), 6), 0.5, draws) / 0.5
    assert cache.x0.nnz == kept.sum()
    assert np.array_equal(cache.mask1, mask1)


def test_field_backward_with_dropout_matches_finite_differences():
    g, x, train, _ = _field_case("isolated_nodes")
    rng = np.random.default_rng(14)
    labels = rng.integers(0, 3, size=g.num_nodes)
    params = GcnParams(rng.normal(size=(9, 5)), rng.normal(size=(5, 3)))
    adj = normalized_adjacency_operator(g)
    field = receptive_field(adj, x, train)

    def loss(w0, w1):
        return supervised_loss_and_grad(GcnParams(w0, w1), x, adj, labels, train,
                                        rng=stream(2, "fd"), dropout_keep=0.7, field=field)[0]

    _, gw0, gw1 = supervised_loss_and_grad(params, x, adj, labels, train, rng=stream(2, "fd"),
                                           dropout_keep=0.7, field=field)
    assert rel_error(gw0, fd_gradient(lambda w: loss(w, params.w1), params.w0.copy())) <= 1e-6
    assert rel_error(gw1, fd_gradient(lambda w: loss(params.w0, w), params.w1.copy())) <= 1e-6


@pytest.mark.parametrize("ids", [[4, 1], [1, 4, 4]], ids=["unsorted", "repeated"])
def test_receptive_field_refuses_ids_that_are_not_sorted_and_distinct(ids):
    g = random_graph(np.random.default_rng(7), 10, 0.3)
    features = sp.csr_array(np.random.default_rng(8).random((10, 4)))
    with pytest.raises(StructuralInputError,
                       match="^receptive field ids must be sorted and distinct$"):
        receptive_field(normalized_adjacency_operator(g), features, np.array(ids))


def _cross_entropy_inline(scores, labels):
    """Reference: the max-shifted mean cross-entropy, shifted in place."""
    s = scores.copy()
    s -= s.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(s).sum(axis=1)) - s[np.arange(len(s)), labels]))


@pytest.mark.parametrize("c", [2, 7, 10])
def test_cross_entropy_equals_the_inline_formula(c):
    rng = np.random.default_rng(c)
    scores = rng.normal(scale=4.0, size=(60, c))
    labels = rng.integers(0, c, size=60)
    assert cross_entropy(scores, labels) == _cross_entropy_inline(scores, labels)


def test_cross_entropy_of_a_2000_nat_margin_is_that_margin():
    scores = np.array([[0.0, 2000.0], [0.0, 2000.0]])
    with np.errstate(divide="raise"):
        assert cross_entropy(scores, np.array([0, 1])) == 1000.0


@pytest.mark.parametrize("keep", [1.0, 0.5])
@pytest.mark.parametrize("dense", ["norm_adj", "features"])
@pytest.mark.parametrize("entry", ["forward", "receptive_field", "supervised_loss_and_grad"])
def test_input_that_is_not_csr_is_a_structural_error(entry, dense, keep):
    g = random_graph(np.random.default_rng(7), 10, 0.3)
    features = sp.csr_array(np.random.default_rng(8).random((10, 4)))
    params = init_params(4, 5, 3, seed=0)
    labels, ids = np.zeros(10, dtype=np.int64), np.array([1, 4])

    def run(norm_adj, features):
        if entry == "forward":
            return forward(params, features, norm_adj, dropout_keep=keep, rng=stream(0, "d"))
        if entry == "receptive_field":
            field = receptive_field(norm_adj, features, ids)
            return forward(params, features, norm_adj, dropout_keep=keep, rng=stream(0, "d"),
                           field=field)
        return supervised_loss_and_grad(params, features, norm_adj, labels, ids,
                                        rng=stream(0, "d"), dropout_keep=keep)

    inputs = {"norm_adj": normalized_adjacency_operator(g), "features": features}
    run(**{name: sp.csr_matrix(x) for name, x in inputs.items()})    # csr_matrix is CSR
    inputs[dense] = inputs[dense].toarray()
    with pytest.raises(StructuralInputError, match=rf"^{dense} must be a scipy\.sparse\."
                                                   r"csr_array, got ndarray$"):
        run(**inputs)
