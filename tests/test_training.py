import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dense_normalized_adjacency, supervised_reference
from mrfgcn import factors, gcn, training
from mrfgcn.data import Split, generate_synthetic, ratio_split, row_normalize_features
from mrfgcn.errors import (ConfigError, DegenerateInputError, NonFiniteObjectiveError,
                           StructuralInputError)
from mrfgcn.factors import PairwiseParams, Redistribution
from mrfgcn.gcn import GcnParams, forward, init_params
from mrfgcn.graph import build_graph, normalized_adjacency_operator
from mrfgcn.numerics import softmax_rows, stream
from mrfgcn.oracle import exact_posterior_marginals
from mrfgcn.selfcheck import random_graph, random_instance
from mrfgcn.training import (Proposal, TrainConfig, _argmax_predictions, _dependency_levels,
                             _e_step_stats, evaluate, m_step, make_r,
                             mean_field_site_update, predict, train)


def _uniform_q(free, c, n):
    return Proposal(free, np.full((len(free), c), 1.0 / c), n)


def test_proposal_row_validation():
    with pytest.raises(ConfigError):
        Proposal(np.array([0]), np.array([[0.7, 0.7]]), 2)
    with pytest.raises(ConfigError):
        Proposal(np.array([0]), np.array([[1.2, -0.2]]), 2)


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.inf, 0.0], [1.0, -np.inf]],
                         ids=["nan", "inf", "minus_inf"])
def test_proposal_non_finite_rows_are_a_runtime_failure(row):
    # nan compares False against both the sign and the row-sum checks
    with pytest.raises(DegenerateInputError, match="finite"):
        Proposal(np.array([0]), np.array([row]), 1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["lr", "weight_decay", "e_tolerance", "alpha_init"])
def test_train_config_rejects_non_finite_values(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


def test_e_step_isolated_node_softmax():
    g = build_graph(1, [])
    scores = np.array([[math.log(3.0), 0.0]])
    pp = PairwiseParams(raw=np.zeros((2, 2)), alpha=np.zeros(0), mode="none")
    q = _e_step_stats(_uniform_q(np.array([0]), 2, 1), scores, pp, g,
                      np.array([0]), np.array([], dtype=np.int64), 10, 1e-4)[0]
    assert np.allclose(q.q, [[0.75, 0.25]], atol=1e-12)


def test_e_step_single_labeled_neighbor_closed_form():
    g = build_graph(2, [(0, 1)])
    scores = np.zeros((2, 2))
    pp = PairwiseParams(raw=np.eye(2), alpha=np.ones(1), mode="edge")
    labels = np.array([0, 0])
    q = _e_step_stats(_uniform_q(np.array([1]), 2, 2), scores, pp, g, labels,
                      np.array([0]), 10, 1e-4)[0]
    expected = np.array([math.e / (math.e + 1.0), 1.0 / (math.e + 1.0)])
    assert np.allclose(q.q[0], expected, atol=1e-12)


def test_e_step_k_zero_fixed_point():
    rng = np.random.default_rng(0)
    g, _, scores, _, labels, train = random_instance(rng, 7, 3, min_labeled=1)
    pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=np.ones(g.num_edges), mode="edge")
    free = np.setdiff1d(np.arange(7), train)
    q1 = _e_step_stats(_uniform_q(free, 3, 7), scores, pp, g, labels, train, 1, 0.0)[0]
    assert np.allclose(q1.q, softmax_rows(scores[free]), atol=1e-12)
    q2 = _e_step_stats(q1, scores, pp, g, labels, train, 3, 0.0)[0]
    assert np.allclose(q2.q, q1.q, atol=1e-15)


_E_STEP_CASES = ("draw8", "random60", "random130", "random200", "path", "one_level",
                 "random60_c7", "random130_c10", "path_c10", "one_level_c10",
                 "random60_layer", "random60_none")


def _e_step_case(name):
    """(rng, graph, scores, pairwise, labels, labeled ids) for the E-step checks.

    The random graphs interleave labeled and unlabeled nodes; on the path
    every unlabeled node is on its own level, and in `one_level` unlabeled
    nodes only touch labeled ones. A `_c<k>` suffix sets k classes (else 3);
    10 is the class count of the `dense_train` benchmark workload. A `_layer`
    or `_none` suffix sets that coefficient mode (else edge), as `ablate`
    and `--coefficient-mode` do.
    """
    if name == "draw8":
        rng = np.random.default_rng(1)
        g, _, scores, pp, labels, train = random_instance(rng, 8, 3)
        return rng, g, scores, pp, labels, train
    rng = np.random.default_rng(_E_STEP_CASES.index(name))
    mode = "edge"
    if name.endswith(("_layer", "_none")):
        name, mode = name.rsplit("_", 1)
    name, _, classes = name.partition("_c")
    if name.startswith("random"):
        n = int(name[len("random"):])
        g = random_graph(rng, n, edge_prob=4.0 / n)
        train = np.sort(rng.choice(n, size=n // 4, replace=False))
    elif name == "path":
        n = 40
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        train = np.zeros(0, dtype=np.int64)
    else:
        n = 30
        g = build_graph(n, [(j, k) for j in range(0, n, 2) for k in range(1, n, 2)
                            if rng.random() < 0.3])
        train = np.arange(0, n, 2)
    c = int(classes or 3)
    scores = rng.normal(0.0, 1.5, size=(n, c))
    num_alphas = {"edge": g.num_edges, "layer": 1, "none": 0}[mode]
    pp = PairwiseParams(rng.normal(0.0, 0.6, size=(c, c)),
                        rng.normal(1.0, 0.5, size=num_alphas), mode)
    labels = rng.integers(0, c, size=n)
    return rng, g, scores, pp, labels, train


@pytest.mark.parametrize("case", _E_STEP_CASES)
def test_e_step_matches_sequential_site_updates(case):
    rng, g, scores, pp, labels, train = _e_step_case(case)
    n, c = scores.shape
    free = np.setdiff1d(np.arange(n), train)
    if len(free) == 0:
        pytest.skip("fully labeled draw")
    rows = rng.random((len(free), c)) + 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    q0 = Proposal(free, rows, n)
    ref = make_r(q0, labels, train, c)
    for sweep in range(5):
        for node in free:
            ref = mean_field_site_update(ref, node, scores, pp, g)
        if sweep == 0:
            fast = _e_step_stats(q0, scores, pp, g, labels, train, 1, 0.0)[0]
            assert np.abs(fast.q - ref[free]).max() <= 1e-14
    fast = _e_step_stats(q0, scores, pp, g, labels, train, 5, 0.0)[0]
    assert np.abs(fast.q - ref[free]).max() <= 1e-12


@pytest.mark.parametrize("case", _E_STEP_CASES)
def test_dependency_levels_follow_lower_neighbours(case):
    _, g, _, _, _, train = _e_step_case(case)
    free = np.ones(g.num_nodes, dtype=bool)
    free[train] = False
    neighbours = {int(u): [int(v) for v in g.indices[g.indptr[u]:g.indptr[u + 1]] if free[v]]
                  for u in np.flatnonzero(free)}
    order, bounds = _dependency_levels(g, free)
    assert np.array_equal(np.sort(order), np.flatnonzero(free))
    assert bounds[0] == 0 and bounds[-1] == free.sum()
    level = {}
    for depth, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert lo < hi and np.all(np.diff(order[lo:hi]) > 0)     # each wave ascending
        level.update((int(u), depth) for u in order[lo:hi])
    for u, nb in neighbours.items():
        lower = [level[v] for v in nb if v < u]
        assert level[u] == (1 + max(lower) if lower else 0)
    if case.startswith("path"):
        assert max(level.values()) + 1 == free.sum()
    if case.startswith("one_level"):
        assert max(level.values()) == 0


def _row_major_e_step(q, scores, pp, g, labels, train_ids, sweeps, tolerance):
    """Reference: the level-scheduled sweep over r with row-major (L, c) logits.

    The levels' rows of the alpha-weighted adjacency are taken one level at
    a time, and each level's rows of r are gathered and scattered by index.
    Returns (q table, sweeps_run, max_tv).
    """
    kt = pp.K.T
    free = np.zeros(g.num_nodes, dtype=bool)
    free[q.node_ids] = True
    order, bounds = _dependency_levels(g, free)
    weights = sp.csr_array((pp.alpha_at(g.slot_edge_ids), g.indices, g.indptr),
                           shape=(g.num_nodes, g.num_nodes))
    blocks = [(order[lo:hi], weights[order[lo:hi]]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    r = make_r(q, labels, train_ids, scores.shape[1])
    sweeps_run, max_tv = 0, 0.0
    for _ in range(sweeps):
        max_tv = 0.0
        for rows, block in blocks:
            logits = scores[rows] + (block @ r) @ kt
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            new = e / e.sum(axis=1, keepdims=True)
            max_tv = max(max_tv, float(0.5 * np.abs(new - r[rows]).sum(axis=1).max()))
            r[rows] = new
        sweeps_run += 1
        if max_tv < tolerance:
            break
    return r[q.node_ids], sweeps_run, max_tv


@pytest.mark.parametrize("case", _E_STEP_CASES)
def test_e_step_matches_the_row_major_sweep(case):
    rng, g, scores, pp, labels, train = _e_step_case(case)
    n, c = scores.shape
    free = np.setdiff1d(np.arange(n), train)
    rows = rng.random((len(free), c)) + 0.1
    q = Proposal(free, rows / rows.sum(axis=1, keepdims=True), n)
    args = (scores, pp, g, labels, train)
    # the class-major sums run in another order only from 8 classes up, where
    # numpy sums a row pairwise; each sweep is then checked from the same q
    bound = 0.0 if c <= 7 else 1e-15
    start = q
    for _ in range(5):
        fast, _, tv = training._e_step_stats(q, *args, 1, 0.0)
        ref, _, ref_tv = _row_major_e_step(q, *args, 1, 0.0)
        assert np.abs(fast.q - ref).max() <= bound
        assert abs(tv - ref_tv) <= bound
        q = fast
    if c <= 7:
        fast, sweeps_run, tv = training._e_step_stats(start, *args, 30, 1e-6)
        ref, ref_sweeps, ref_tv = _row_major_e_step(start, *args, 30, 1e-6)
        assert np.array_equal(fast.q, ref) and (sweeps_run, tv) == (ref_sweeps, ref_tv)


def test_e_step_converged_fixed_point():
    rng = np.random.default_rng(2)
    g, _, scores, pp, labels, train = random_instance(rng, 9, 3, min_labeled=1)
    free = np.setdiff1d(np.arange(9), train)
    if len(free) == 0:
        pytest.skip("fully labeled draw")
    q = _e_step_stats(_uniform_q(free, 3, 9), scores, pp, g, labels, train, 200, 1e-12)[0]
    q2 = _e_step_stats(q, scores, pp, g, labels, train, 1, 0.0)[0]
    assert 0.5 * np.abs(q2.q - q.q).sum(axis=1).max() <= 1e-10


def test_e_step_rows_stay_normalized():
    rng = np.random.default_rng(3)
    g, _, scores, pp, labels, train = random_instance(rng, 10, 4, min_labeled=1)
    free = np.setdiff1d(np.arange(10), train)
    q = _e_step_stats(_uniform_q(free, 4, 10), scores, pp, g, labels, train, 7, 1e-4)[0]
    assert np.abs(q.q.sum(axis=1) - 1.0).max() <= 1e-12


def test_e_step_transient_memory_is_a_few_tables():
    # the sweeps hold r and the alpha-weighted adjacency's rows, gathered in
    # level order and sliced per level: about 2.9 times the bytes of r and
    # the graph's slot arrays. A second, column-sliced copy of the adjacency
    # would pass the bound.
    rng = np.random.default_rng(4)
    n, c = 5000, 3
    g = build_graph(n, [(int(j), int(k)) for j, k in rng.integers(0, n, size=(2 * n, 2))
                        if j != k])
    train = np.sort(rng.choice(n, size=60, replace=False))
    pp = PairwiseParams(rng.normal(0.0, 0.6, size=(c, c)),
                        rng.normal(1.0, 0.5, size=g.num_edges), "edge")
    scores, labels = rng.normal(size=(n, c)), rng.integers(0, c, size=n)
    q = _uniform_q(np.setdiff1d(np.arange(n), train), c, n)
    _e_step_stats(q, scores, pp, g, labels, train, 3, 0.0)
    tracemalloc.start()
    try:
        _e_step_stats(q, scores, pp, g, labels, train, 3, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = n * c * 8 + g.indptr.nbytes + g.indices.nbytes + g.slot_edge_ids.nbytes
    assert peak <= 3.5 * held


def test_m_step_edgeless_reduces_to_supervised():
    rng = np.random.default_rng(4)
    g = build_graph(6, [])
    features = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6).astype(np.int64)
    train_ids = np.arange(6)
    params = init_params(3, 4, 3, seed=0)
    pp = PairwiseParams.init(3, 0, mode="edge")
    redist = Redistribution.for_graph(g, "average")
    q = Proposal(np.array([], dtype=np.int64), np.zeros((0, 3)), 6)
    cfg = TrainConfig(m_epochs=40, dropout_keep=1.0, lr=0.05, weight_decay=0.0)

    new_params, new_pp, trace = m_step(params, pp, q, sp.csr_array(features),
                                       normalized_adjacency_operator(g), g, redist,
                                       labels, train_ids, cfg, stream(0, "d"))
    assert trace[-1] > trace[0]
    # K and alpha have zero gradient on an edgeless graph
    assert np.array_equal(new_pp.raw, np.zeros((3, 3)))
    # identical to an independently coded supervised trajectory
    r = make_r(q, labels, train_ids, 3)
    ref = supervised_reference(params, features, dense_normalized_adjacency(g), r, 40, 0.05)
    assert np.allclose(new_params.w0, ref.w0, atol=1e-12)
    assert np.allclose(new_params.w1, ref.w1, atol=1e-12)


@pytest.mark.parametrize("case", ["labeled_rows", "missing_row", "repeated_row", "no_rows"])
def test_a_proposal_that_is_not_exactly_the_unlabeled_nodes_is_refused(case):
    # the E-step, the M-step and predict all read make_r's table: a row on a
    # labeled node would overwrite its clamped one-hot row, and a missing row
    # would stay all zeros
    g, redist, scores, pp, labels, train_ids = random_instance(stream(3, "probe"), 8, 3,
                                                               min_labeled=3)
    free = np.setdiff1d(np.arange(8), train_ids)
    assert len(free) == 2
    node_ids = {"labeled_rows": np.arange(8), "missing_row": free[1:],
                "repeated_row": free[[0, 0]], "no_rows": free[:0]}[case]
    q = Proposal.from_scores(scores, node_ids, 8)
    features = sp.csr_array(np.eye(8))
    calls = [lambda: make_r(q, labels, train_ids, 3),
             lambda: predict(scores, pp, q, g, labels, train_ids),
             lambda: _e_step_stats(q, scores, pp, g, labels, train_ids, 5, 1e-4),
             lambda: m_step(init_params(8, 4, 3, seed=0), pp, q, features,
                            normalized_adjacency_operator(g), g, redist, labels, train_ids,
                            TrainConfig(m_epochs=1), stream(0, "d"))]
    for call in calls:
        with pytest.raises(StructuralInputError, match="exactly the unlabeled nodes"):
            call()


def test_m_step_dead_pairwise_center_scheme_matches_supervised():
    # K frozen at 0 via alpha = 0 and zero K-gradient at the stationary point
    rng = np.random.default_rng(5)
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    features = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6).astype(np.int64)
    train_ids = np.array([0, 2, 4])
    params = init_params(3, 4, 3, seed=1)
    pp = PairwiseParams.init(3, g.num_edges, mode="edge", alpha_init=0.0)
    redist = Redistribution.for_graph(g, "center")
    adj = normalized_adjacency_operator(g)
    free = np.setdiff1d(np.arange(6), train_ids)
    scores0, _ = forward(params, sp.csr_array(features), adj)
    q = Proposal.from_scores(scores0, free, 6)
    cfg = TrainConfig(m_epochs=25, dropout_keep=1.0, lr=0.03, weight_decay=0.0)

    new_params, new_pp, _ = m_step(params, pp, q, sp.csr_array(features), adj, g, redist,
                                   labels, train_ids, cfg, stream(0, "d"))
    assert np.array_equal(new_pp.raw, np.zeros((3, 3)))
    assert np.array_equal(new_pp.alpha, np.zeros(g.num_edges))
    r = make_r(q, labels, train_ids, 3)
    ref = supervised_reference(params, features, dense_normalized_adjacency(g), r, 25, 0.03)
    assert np.allclose(new_params.w0, ref.w0, atol=1e-12)
    assert np.allclose(new_params.w1, ref.w1, atol=1e-12)


def test_m_step_small_steps_do_not_decrease_objective():
    rng = np.random.default_rng(6)
    g, redist, _, pp, labels, train = random_instance(rng, 8, 3, min_labeled=1)
    features = sp.csr_array(rng.normal(size=(8, 3)))
    params = init_params(3, 4, 3, seed=2)
    adj = normalized_adjacency_operator(g)
    free = np.setdiff1d(np.arange(8), train)
    scores0, _ = forward(params, features, adj)
    q = Proposal.from_scores(scores0, free, 8)
    cfg = TrainConfig(m_epochs=5, dropout_keep=1.0, lr=1e-3)
    _, _, trace = m_step(params, pp, q, features, adj, g, redist, labels, train,
                         cfg, stream(0, "d"))
    for prev, cur in zip(trace, trace[1:]):
        assert cur >= prev - 1e-9


def test_m_step_non_finite_diagnostic():
    g = build_graph(2, [(0, 1)])
    features = sp.csr_array(np.ones((2, 1)))
    labels = np.array([0, 0])
    params = GcnParams(np.array([[1.0]]), np.array([[1.0, 0.0]]))
    raw = np.zeros((2, 2))
    raw[0, 0] = np.inf
    pp = PairwiseParams(raw=raw, alpha=np.ones(1), mode="edge")
    redist = Redistribution.for_graph(g, "average")
    q = Proposal(np.array([1]), np.array([[0.5, 0.5]]), 2)
    cfg = TrainConfig(m_epochs=1, dropout_keep=1.0)
    with pytest.raises(NonFiniteObjectiveError, match="node"), \
            np.errstate(invalid="ignore"):
        m_step(params, pp, q, features, normalized_adjacency_operator(g), g, redist,
               labels, np.array([0]), cfg, stream(0, "d"))


@pytest.mark.parametrize("budget", [None, 3, 2], ids=["default", "3_slots", "2_slots"])
def test_non_finite_piece_in_a_later_block_is_named_at_every_block_budget(monkeypatch,
                                                                          budget):
    # a 12-node path; the overflowing edge (8, 9) makes pieces 8 and 9
    # non-finite, and piece 8 comes first. The default budget holds the
    # whole graph in one block; in blocks of 2 or 3 slots piece 8 sits in
    # a later block
    g = build_graph(12, [(i, i + 1) for i in range(11)])
    if budget is not None:
        monkeypatch.setattr(factors, "SLOT_CLASS_BUDGET", budget * 2 * 2)
    blocks = g.slot_blocks(factors.SLOT_CLASS_BUDGET // 4)
    assert len(blocks) == 1 if budget is None else blocks[0].nodes.stop <= 8
    alpha = np.ones(g.num_edges)
    alpha[8] = 1e308
    pp = PairwiseParams(raw=4.0 * np.eye(2), alpha=alpha, mode="edge")
    redist = Redistribution.for_graph(g, "average")
    seen = []
    real = factors._leaf_major_pieces

    def counted(g, scores, redist, block, out):
        seen.append(block.nodes.start)
        return real(g, scores, redist, block, out)

    monkeypatch.setattr(factors, "_leaf_major_pieces", counted)
    params = GcnParams(np.zeros((1, 4)), np.zeros((4, 2)))
    q = _uniform_q(np.arange(1, 12), 2, 12)
    with pytest.raises(NonFiniteObjectiveError, match=r"non-finite \(piece at node 8\)$"), \
            np.errstate(over="ignore", invalid="ignore"):
        m_step(params, pp, q, sp.csr_array(np.ones((12, 1))),
               normalized_adjacency_operator(g), g, redist,
               np.zeros(12, dtype=np.int64), np.array([0]),
               TrainConfig(m_epochs=1, dropout_keep=1.0), stream(0, "d"))
    # the objective's one walk over the blocks is the only inference run
    assert seen == [b.nodes.start for b in blocks]


def test_m_step_builds_one_workspace_for_all_its_epochs(monkeypatch):
    built, passed = [], []
    real_init, real_objective = factors.PieceBuffers.__init__, training.objective_and_gradients

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def recorded(*args):
        passed.append(args[-1])
        return real_objective(*args)

    monkeypatch.setattr(factors.PieceBuffers, "__init__", counted_init)
    monkeypatch.setattr(training, "objective_and_gradients", recorded)
    ds = _tiny_dataset()
    g, c = ds.graph, ds.num_classes
    train_ids = np.arange(0, ds.graph.num_nodes, 10)
    free = np.setdiff1d(np.arange(g.num_nodes), train_ids)
    params = init_params(ds.num_features, 8, c, seed=0)
    for _ in range(2):
        built.clear()
        passed.clear()
        m_step(params, PairwiseParams.init(c, g.num_edges), _uniform_q(free, c, g.num_nodes),
               ds.features, normalized_adjacency_operator(g),
               g, Redistribution.for_graph(g, "average"), ds.labels, train_ids,
               TrainConfig(m_epochs=4), stream(0, "d"))
        assert len(built) == 1 and passed == built * 4


def _tiny_dataset(seed=0, n=150, target=0.85):
    ds = generate_synthetic(n, 3, 3, target, feature_dim=8, feature_noise=0.3,
                            seed=seed)
    return row_normalize_features(ds)


def _tiny_config(**kw):
    base = dict(seed=0, hidden=8, warm_epochs=30, patience=50, em_rounds=2,
                e_sweeps=5, m_epochs=8, dropout_keep=0.7)
    base.update(kw)
    return TrainConfig(**base)


def test_train_zero_rounds_is_warm_baseline():
    ds = _tiny_dataset()
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    res = train(ds, split, _tiny_config(em_rounds=0))
    phases = {p for p, _, _, _ in res.report.records}
    assert not any(p.startswith("round") for p in phases)
    assert res.report.best_phase.startswith("warm")
    # with K = 0 the prediction rule reduces to the backbone argmax
    scores, _ = forward(res.params, ds.features, normalized_adjacency_operator(ds.graph))
    predicted = predict(scores, res.pairwise, res.proposal, ds.graph, ds.labels,
                        split.train)
    expected = np.argmax(scores, axis=1)
    expected[split.train] = ds.labels[split.train]
    assert np.array_equal(predicted, expected)
    assert np.array_equal(res.pairwise.raw, np.zeros((3, 3)))


def test_warm_start_on_an_accuracy_plateau_runs_past_patience_while_its_loss_falls(
        monkeypatch):
    ds = row_normalize_features(generate_synthetic(150, 3, 3, 0.85, feature_dim=8,
                                                   feature_noise=0.0, seed=0))
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    val_losses = []
    real = gcn.forward

    def recorded(params, features, norm_adj, dropout_keep=1.0, rng=None, field=None):
        scores, cache = real(params, features, norm_adj, dropout_keep, rng, field)
        if field is not None and np.array_equal(field.ids, split.val):
            probs = softmax_rows(scores[field.positions])
            val_losses.append(-np.log(probs[np.arange(len(field.ids)),
                                            ds.labels[field.ids]]).mean())
        return scores, cache

    monkeypatch.setattr(gcn, "forward", recorded)
    patience = 5
    res = train(ds, split, _tiny_config(warm_epochs=60, patience=patience, em_rounds=0,
                                        dropout_keep=1.0))
    acc = res.report.trace("warm", "val_accuracy")
    assert len(acc) == len(val_losses) == 60
    # on accuracy alone the warm start would stop after `patience` epochs
    # without a better accuracy, at `stop`; the loss fell on every one of them
    best = np.maximum.accumulate(acc)
    stop = next(e for e in range(patience, 60) if best[e] == best[e - patience])
    assert stop < 30
    assert all(b < a for a, b in zip(val_losses[stop - patience:stop + 1],
                                     val_losses[stop - patience + 1:stop + 1]))


def test_train_deterministic_reports():
    ds = _tiny_dataset(seed=3)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=1)
    a = train(ds, split, _tiny_config(seed=7))
    b = train(ds, split, _tiny_config(seed=7))
    assert a.report.to_text() == b.report.to_text()
    assert np.array_equal(a.params.w0, b.params.w0)
    assert np.array_equal(a.pairwise.raw, b.pairwise.raw)
    assert np.array_equal(a.proposal.q, b.proposal.q)


def test_train_seed_changes_outcome():
    ds = _tiny_dataset(seed=3)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=1)
    a = train(ds, split, _tiny_config(seed=7))
    b = train(ds, split, _tiny_config(seed=8))
    assert not np.array_equal(a.params.w0, b.params.w0)


def test_train_alpha_zero_stays_degenerate():
    ds = _tiny_dataset(seed=4)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=2)
    res = train(ds, split, _tiny_config(alpha_init=0.0, em_rounds=2))
    assert np.array_equal(res.pairwise.alpha, np.zeros(ds.graph.num_edges))
    assert np.array_equal(res.pairwise.raw, np.zeros((3, 3)))
    # E-step at dead pairwise factors is exactly the softmax of the scores
    scores, _ = forward(res.params, ds.features, normalized_adjacency_operator(ds.graph))
    assert np.allclose(res.proposal.q, softmax_rows(scores[res.proposal.node_ids]),
                       atol=1e-12)


def test_train_draws_input_dropout_only_for_stored_features(monkeypatch):
    # a dense n x f input mask would draw n * f values on every forward pass;
    # the warm start draws only over its receptive field, the M-step over all
    ds = row_normalize_features(generate_synthetic(150, 3, 3, 0.85, feature_dim=60,
                                                   feature_noise=0.05, seed=6))
    n, hidden = ds.graph.num_nodes, 8
    assert ds.features.nnz + n * hidden < n * ds.num_features
    split = ratio_split(ds, 0.05, 0.2, 0.6, seed=3)
    field = gcn.receptive_field(normalized_adjacency_operator(ds.graph), ds.features,
                                split.train)
    assert len(field.hidden) < n
    drawn, real = [], gcn.dropout_mask

    def counting(shape, keep_prob, rng):
        drawn.append(math.prod(shape))
        return real(shape, keep_prob, rng)

    monkeypatch.setattr(gcn, "dropout_mask", counting)
    config = _tiny_config(hidden=hidden)
    train(ds, split, config)
    per_forward = list(zip(drawn[::2], drawn[1::2]))
    assert len(drawn) == 2 * len(per_forward)
    assert len(per_forward) == config.warm_epochs + config.em_rounds * config.m_epochs
    warm, m_steps = per_forward[:config.warm_epochs], per_forward[config.warm_epochs:]
    assert set(warm) == {(field.features.nnz, len(field.hidden) * hidden)}
    assert set(m_steps) == {(ds.features.nnz, n * hidden)}


def test_train_reports_the_returned_proposal(monkeypatch):
    ds = _tiny_dataset(seed=2)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=4)
    calls, real = [], training._e_step_stats

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(training, "_e_step_stats", counting)
    config = _tiny_config()
    res = train(ds, split, config)
    # one E-step per round, then the final convergence; no E-step after it
    assert len(calls) == 1 + config.em_rounds
    predictions = _argmax_predictions(res.proposal, ds.labels, split.train)
    assert res.report.test_accuracy == evaluate(predictions, ds.labels, split.test)


def test_train_reports_each_e_step_final_tv():
    ds = _tiny_dataset(seed=2)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=4)
    config = _tiny_config(em_rounds=3)
    report = train(ds, split, config).report
    caps = {f"round{rnd}": config.e_sweeps for rnd in range(1, config.em_rounds + 1)}
    caps["final"] = max(50, config.e_sweeps)
    for phase, cap in caps.items():
        (sweeps_run,) = report.trace(phase, "sweeps_run")
        (final_tv,) = report.trace(phase, "final_tv")
        assert 1 <= sweeps_run <= cap
        assert math.isfinite(final_tv) and final_tv >= 0.0
        if sweeps_run < cap:
            assert final_tv < config.e_tolerance
    assert not any(p.endswith((":e", ":m")) for p, _, _, _ in report.records)


def test_final_e_step_starts_from_the_validated_proposal(monkeypatch):
    # at this draw the best phase is an EM round, and one more E-step from
    # the q before that round's E-step changes a validation prediction
    ds = _tiny_dataset(seed=0)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    handed, real = [], training._e_step_stats

    def recording(q, *args):
        handed.append(q)
        return real(q, *args)

    monkeypatch.setattr(training, "_e_step_stats", recording)
    report = train(ds, split, _tiny_config(seed=1)).report
    assert report.best_phase.startswith("round")
    (recorded,) = report.trace(report.best_phase, "val_accuracy")
    predictions = _argmax_predictions(handed[-1], ds.labels, split.train)
    assert evaluate(predictions, ds.labels, split.val) == recorded


def _validated_phases(report):
    """(phase, val_accuracy) in the order the phases ran: warm epochs, then rounds."""
    return [(f"warm:{step}" if phase == "warm" else phase, value)
            for phase, step, metric, value in report.records
            if metric == "val_accuracy" and phase != "final"]


@pytest.mark.parametrize("data_seed, winner", [(1, "warm"), (0, "round")])
def test_the_earliest_phase_with_the_best_validation_accuracy_is_kept(data_seed, winner):
    # at both draws the best accuracy is reached again by a later phase
    ds = _tiny_dataset(seed=data_seed)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    report = train(ds, split, _tiny_config(seed=1)).report
    phases = _validated_phases(report)
    best = max(acc for _, acc in phases)
    tied = [phase for phase, acc in phases if acc == best]
    assert len(tied) > 1
    assert report.best_phase == tied[0]
    assert report.best_phase.startswith(winner)


def test_a_split_without_validation_nodes_keeps_the_last_state(monkeypatch):
    ds = _tiny_dataset(seed=0)
    ratio = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    split = Split(train=ratio.train, val=np.array([], dtype=np.int64), test=ratio.test)
    stepped, real = [], training.m_step

    def recording(*args):
        stepped.append(real(*args))
        return stepped[-1]

    monkeypatch.setattr(training, "m_step", recording)
    config = _tiny_config(seed=1, patience=1)
    result = train(ds, split, config)
    report = result.report
    assert report.best_phase == "last"
    # nothing to stop on: the warm start runs every epoch
    assert len(report.trace("warm", "supervised_loss")) == config.warm_epochs
    phases = _validated_phases(report)
    assert len(phases) == config.warm_epochs + config.em_rounds
    assert all(math.isnan(acc) for _, acc in phases)
    assert report.trace("final", "val_accuracy") == []
    assert len(stepped) == config.em_rounds
    params, pairwise, _ = stepped[-1]
    for got, last in [(result.params.w0, params.w0), (result.params.w1, params.w1),
                      (result.pairwise.raw, pairwise.raw),
                      (result.pairwise.alpha, pairwise.alpha)]:
        assert np.array_equal(got, last)


def test_different_starts_reach_different_fixed_points():
    # why train's final E-step and evaluate's can disagree on one checkpoint:
    # on a 3-node path with no labels and no unary evidence, an attractive K
    # keeps whichever class the start leans to
    g = build_graph(3, [(0, 1), (1, 2)])
    pp = PairwiseParams(raw=np.diag([3.0, 3.0]), alpha=np.ones(2), mode="edge")
    scores, labels, train_ids = np.zeros((3, 2)), np.zeros(3, dtype=np.int64), np.array([])
    reached = []
    for row in ([0.9, 0.1], [0.1, 0.9]):
        start = Proposal(np.arange(3), np.tile(row, (3, 1)), 3)
        q, _, tv = _e_step_stats(start, scores, pp, g, labels, train_ids, 50, 1e-4)
        assert tv < 1e-4
        reached.append(_argmax_predictions(q, labels, train_ids))
    assert reached[0].tolist() == [0, 0, 0]
    assert reached[1].tolist() == [1, 1, 1]


def test_train_empty_train_split_rejected():
    ds = _tiny_dataset(seed=5)
    empty = Split(train=np.array([], dtype=np.int64), val=np.array([0]),
                  test=np.array([1]))
    with pytest.raises(ConfigError):
        train(ds, empty, _tiny_config())


def test_predict_k_zero_is_argmax():
    rng = np.random.default_rng(7)
    g, _, scores, _, labels, train = random_instance(rng, 8, 3, min_labeled=1)
    pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=np.ones(g.num_edges), mode="edge")
    free = np.setdiff1d(np.arange(8), train)
    q = _uniform_q(free, 3, 8)
    out = predict(scores, pp, q, g, labels, train)
    expected = np.argmax(scores, axis=1)
    expected[train] = labels[train]
    assert np.array_equal(out, expected)


def test_predict_follows_strong_labeled_neighbors():
    g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
    labels = np.array([2, 2, 2, 0])
    train = np.array([0, 1, 2])
    scores = np.zeros((4, 3))
    pp = PairwiseParams(raw=50.0 * np.eye(3), alpha=np.ones(3), mode="edge")
    q = _uniform_q(np.array([3]), 3, 4)
    out = predict(scores, pp, q, g, labels, train)
    assert out[3] == 2


def test_predict_agrees_with_exact_argmax_on_confident_marginals():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(20):
        n, c = 6, 3
        g, _, scores, pp, labels, train = random_instance(rng, n, c, min_labeled=1)
        free, marg = exact_posterior_marginals(g, scores, pp, labels, train)
        if len(free) == 0:
            continue
        out = predict(scores, pp, _uniform_q(free, c, n), g, labels, train,
                      sweeps=200, tolerance=1e-10)
        top2 = np.sort(marg, axis=1)[:, -2:]
        confident = (top2[:, 1] - top2[:, 0]) > 0.2
        for pos, node in enumerate(free):
            if confident[pos]:
                checked += 1
                assert out[node] == np.argmax(marg[pos])
    assert checked > 10


def test_evaluate_basics():
    labels = np.array([0, 1, 2, 0])
    assert evaluate(np.array([0, 1, 2, 0]), labels, np.arange(4)) == 1.0
    assert evaluate(np.array([1, 2, 0, 1]), labels, np.arange(4)) == 0.0
    assert evaluate(np.array([0, 1, 0, 1]), labels, np.arange(4)) == 0.5
    with pytest.raises(DegenerateInputError):
        evaluate(labels, labels, np.array([], dtype=np.int64))


def test_train_report_round_trip_text(tmp_path):
    ds = _tiny_dataset(seed=6, n=80)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=3)
    res = train(ds, split, _tiny_config(warm_epochs=5, em_rounds=1, m_epochs=3))
    path = tmp_path / "report.txt"
    res.report.write(path)
    text = path.read_text(encoding="utf-8")
    assert text == res.report.to_text()
    assert "test_accuracy" in text
