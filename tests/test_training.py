import math

import numpy as np
import pytest
import scipy.sparse as sp

from mrfgcn import gcn, training
from mrfgcn.data import Split, generate_synthetic, ratio_split, row_normalize_features
from mrfgcn.errors import ConfigError, DegenerateInputError, NonFiniteObjectiveError
from mrfgcn.factors import PairwiseParams, Redistribution
from mrfgcn.gcn import GcnParams, forward, init_params
from mrfgcn.graph import build_graph, normalized_adjacency
from mrfgcn.numerics import AdamState, adam_step, softmax_rows, stream
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
                 "random60_c7", "random130_c10", "path_c10", "one_level_c10")


def _e_step_case(name):
    """(rng, graph, scores, pairwise, labels, labeled ids) for the E-step checks.

    The random graphs interleave labeled and unlabeled nodes; on the path
    every unlabeled node is on its own level, and in `one_level` unlabeled
    nodes only touch labeled ones. A `_c<k>` suffix sets k classes (else 3);
    10 is the class count of the `dense_train` benchmark workload.
    """
    if name == "draw8":
        rng = np.random.default_rng(1)
        g, _, scores, pp, labels, train = random_instance(rng, 8, 3)
        return rng, g, scores, pp, labels, train
    rng = np.random.default_rng(_E_STEP_CASES.index(name))
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
    pp = PairwiseParams(rng.normal(0.0, 0.6, size=(c, c)),
                        rng.normal(1.0, 0.5, size=g.num_edges), "edge")
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
    ref = q0
    for sweep in range(5):
        for node in free:
            ref = mean_field_site_update(ref, node, scores, pp, g, labels, train)
        if sweep == 0:
            fast = _e_step_stats(q0, scores, pp, g, labels, train, 1, 0.0)[0]
            assert np.abs(fast.q - ref.q).max() <= 1e-14
    fast = _e_step_stats(q0, scores, pp, g, labels, train, 5, 0.0)[0]
    assert np.abs(fast.q - ref.q).max() <= 1e-12


@pytest.mark.parametrize("case", _E_STEP_CASES)
def test_dependency_levels_follow_lower_neighbours(case):
    _, g, _, _, _, train = _e_step_case(case)
    free = np.setdiff1d(np.arange(g.num_nodes), train)
    position = {int(node): i for i, node in enumerate(free)}
    neighbours = [[position[int(v)] for v in g.neighbors(u) if int(v) in position]
                  for u in free]
    indptr = np.concatenate([[0], np.cumsum([len(nb) for nb in neighbours])])
    indices = np.array([v for nb in neighbours for v in nb], dtype=np.int64)
    coupling = sp.csr_array((np.ones(len(indices)), indices, indptr),
                            shape=(len(free), len(free)))
    level = _dependency_levels(coupling)
    for u, nb in enumerate(neighbours):
        lower = [level[v] for v in nb if v < u]
        assert level[u] == (1 + max(lower) if lower else 0)
    if case.startswith("path"):
        assert level.max() + 1 == len(free)
    if case.startswith("one_level"):
        assert level.max() == 0


def _row_major_e_step(q, scores, pp, g, labels, train_ids, sweeps, tolerance):
    """Reference: the level-scheduled sweep with row-major (L, c) logits.

    Rows stay in node order and each level's rows are gathered and scattered
    by index. Returns (table, sweeps_run, max_tv).
    """
    k = pp.K
    labeled = training._labeled_mask(g.num_nodes, train_ids)
    m = len(q.node_ids)
    centers, leaves = g.slot_centers, g.indices
    alphas = pp.alpha_at(g.slot_edge_ids)
    positions = np.full(g.num_nodes, -1, dtype=np.int64)
    positions[q.node_ids] = np.arange(m)
    base = scores[q.node_ids].astype(np.float64).copy()
    sel = ~labeled[centers] & labeled[leaves]
    if sel.any():
        full = np.zeros((g.num_nodes, k.shape[0]))
        np.add.at(full, centers[sel], alphas[sel, None] * k[:, labels[leaves[sel]]].T)
        base += full[q.node_ids]
    sel_u = ~labeled[centers] & ~labeled[leaves]
    u_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(positions[centers[sel_u]], minlength=m), out=u_indptr[1:])
    coupling = sp.csr_array((alphas[sel_u], positions[leaves[sel_u]], u_indptr), shape=(m, m))
    level = _dependency_levels(coupling)
    order = np.argsort(level, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(level))])
    permuted = coupling[order]
    blocks = [(order[lo:hi], base[order[lo:hi]], permuted[lo:hi])
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    table, kt = q.q.copy(), k.T
    sweeps_run, max_tv = 0, 0.0
    for _ in range(sweeps):
        max_tv = 0.0
        for rows, base_rows, block in blocks:
            logits = base_rows + (block @ table) @ kt
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            new = e / e.sum(axis=1, keepdims=True)
            max_tv = max(max_tv, float(0.5 * np.abs(new - table[rows]).sum(axis=1).max()))
            table[rows] = new
        sweeps_run += 1
        if max_tv < tolerance:
            break
    return table, sweeps_run, max_tv


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


def test_site_update_refuses_labeled_node():
    g = build_graph(2, [(0, 1)])
    pp = PairwiseParams.init(2, 1, mode="none")
    q = _uniform_q(np.array([1]), 2, 2)
    with pytest.raises(ConfigError):
        mean_field_site_update(q, 0, np.zeros((2, 2)), pp, g,
                               np.array([0, 0]), np.array([0]))


def _supervised_reference(params, features, adj, r, epochs, lr, weight_decay):
    """Independent soft-target trajectory: Adam on sum of r-weighted CE."""
    st0 = AdamState.for_param(params.w0, lr=lr, weight_decay=weight_decay)
    st1 = AdamState.for_param(params.w1, lr=lr)
    for _ in range(epochs):
        z1 = adj @ (features @ params.w0)
        h1 = np.maximum(z1, 0.0)
        scores = adj @ (h1 @ params.w1)
        grad_scores = softmax_rows(scores) - r
        ag = adj @ grad_scores
        gw1 = h1.T @ ag
        gz1 = (ag @ params.w1.T) * (z1 > 0)
        gw0 = features.T @ (adj @ gz1)
        params = GcnParams(adam_step(params.w0, gw0, st0),
                           adam_step(params.w1, gw1, st1))
    return params


def test_m_step_edgeless_reduces_to_supervised():
    rng = np.random.default_rng(4)
    g = build_graph(6, [])
    features = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6).astype(np.int64)
    train_ids = np.arange(6)
    params = init_params(3, 4, 3, seed=0)
    pp = PairwiseParams.init(3, 0, mode="edge")
    redist = Redistribution.for_graph(g, "average")
    adj = normalized_adjacency(g)
    q = Proposal(np.array([], dtype=np.int64), np.zeros((0, 3)), 6)
    cfg = TrainConfig(m_epochs=40, dropout_keep=1.0, lr=0.05, weight_decay=0.0)

    new_params, new_pp, trace = m_step(params, pp, q, features, adj, g, redist,
                                       labels, train_ids, cfg, stream(0, "d"))
    assert trace[-1] > trace[0]
    # K and alpha have zero gradient on an edgeless graph
    assert np.array_equal(new_pp.raw, np.zeros((3, 3)))
    # identical to an independently coded supervised trajectory
    r = make_r(q, labels, train_ids, 3)
    ref = _supervised_reference(params, features, adj, r, 40, 0.05, 0.0)
    assert np.allclose(new_params.w0, ref.w0, atol=1e-12)
    assert np.allclose(new_params.w1, ref.w1, atol=1e-12)


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
    adj = normalized_adjacency(g)
    free = np.setdiff1d(np.arange(6), train_ids)
    scores0, _ = forward(params, features, adj)
    q = Proposal.from_scores(scores0, free, 6)
    cfg = TrainConfig(m_epochs=25, dropout_keep=1.0, lr=0.03, weight_decay=0.0)

    new_params, new_pp, _ = m_step(params, pp, q, features, adj, g, redist,
                                   labels, train_ids, cfg, stream(0, "d"))
    assert np.array_equal(new_pp.raw, np.zeros((3, 3)))
    assert np.array_equal(new_pp.alpha, np.zeros(g.num_edges))
    r = make_r(q, labels, train_ids, 3)
    ref = _supervised_reference(params, features, adj, r, 25, 0.03, 0.0)
    assert np.allclose(new_params.w0, ref.w0, atol=1e-12)
    assert np.allclose(new_params.w1, ref.w1, atol=1e-12)


def test_m_step_small_steps_do_not_decrease_objective():
    rng = np.random.default_rng(6)
    g, redist, _, pp, labels, train = random_instance(rng, 8, 3, min_labeled=1)
    features = rng.normal(size=(8, 3))
    params = init_params(3, 4, 3, seed=2)
    adj = normalized_adjacency(g)
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
    features = np.ones((2, 1))
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
        m_step(params, pp, q, features, normalized_adjacency(g), g, redist,
               labels, np.array([0]), cfg, stream(0, "d"))


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
    scores, _ = forward(res.params, ds.features,
                        normalized_adjacency(ds.graph))
    predicted = predict(scores, res.pairwise, res.proposal, ds.graph, ds.labels,
                        split.train)
    expected = np.argmax(scores, axis=1)
    expected[split.train] = ds.labels[split.train]
    assert np.array_equal(predicted, expected)
    assert np.array_equal(res.pairwise.raw, np.zeros((3, 3)))


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
    scores, _ = forward(res.params, ds.features, normalized_adjacency(ds.graph))
    assert np.allclose(res.proposal.q, softmax_rows(scores[res.proposal.node_ids]),
                       atol=1e-12)


def test_train_draws_input_dropout_only_for_stored_features(monkeypatch):
    # a dense n x f input mask would draw n * f values on every forward pass
    ds = row_normalize_features(generate_synthetic(150, 3, 3, 0.85, feature_dim=60,
                                                   feature_noise=0.05, seed=6))
    n, hidden = ds.graph.num_nodes, 8
    assert ds.features.nnz + n * hidden < n * ds.num_features
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=3)
    drawn, real = [], gcn.dropout_mask

    def counting(shape, keep_prob, rng):
        drawn.append(math.prod(shape))
        return real(shape, keep_prob, rng)

    monkeypatch.setattr(gcn, "dropout_mask", counting)
    config = _tiny_config(hidden=hidden)
    train(ds, split, config)
    per_forward = [a + b for a, b in zip(drawn[::2], drawn[1::2])]
    assert len(drawn) == 2 * len(per_forward)
    assert len(per_forward) == config.warm_epochs + config.em_rounds * config.m_epochs
    assert max(per_forward) <= ds.features.nnz + n * hidden


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
