import itertools
import math

import numpy as np
import pytest

from mrfgcn.errors import EnumerationLimitError
from mrfgcn.factors import PairwiseParams, Redistribution, _piece_stats
from mrfgcn.graph import build_graph
from mrfgcn.numerics import softmax_rows
from mrfgcn.oracle import (OracleLimit, exact_elbo, exact_log_partition,
                           exact_observed_ll, exact_posterior_marginals)
from mrfgcn.selfcheck import random_instance
from mrfgcn.training import Proposal


def _linear_space_posterior(g, scores, pp, labels, train_ids):
    """Second, independently coded enumeration (linear space, python loops)."""
    n, c = scores.shape
    free = sorted(set(range(n)) - set(int(i) for i in train_ids))
    alphas = pp.alpha_at(np.arange(g.num_edges))
    k = pp.K
    weights = {}
    for assign_free in itertools.product(range(c), repeat=len(free)):
        y = labels.copy()
        for node, lab in zip(free, assign_free):
            y[node] = lab
        lf = sum(scores[i, y[i]] for i in range(n))
        lf += sum(a * k[y[j], y[kk]] for a, (j, kk) in zip(alphas, g.edges))
        weights[assign_free] = math.exp(lf)
    total = sum(weights.values())
    marg = np.zeros((len(free), c))
    for assign_free, w in weights.items():
        for pos, lab in enumerate(assign_free):
            marg[pos, lab] += w / total
    return np.array(free), marg


def _rand_q(rng, free, c, n):
    rows = rng.random((len(free), c)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return Proposal(free, rows, n)


def test_log_partition_single_node():
    g = build_graph(1, [])
    pp = PairwiseParams.init(2, 0, mode="edge")
    assert exact_log_partition(g, np.zeros((1, 2)), pp) == pytest.approx(math.log(2))


def test_log_partition_edgeless_factorizes():
    rng = np.random.default_rng(0)
    g = build_graph(4, [])
    scores = rng.normal(size=(4, 3))
    pp = PairwiseParams.init(3, 0, mode="edge")
    ref = sum(math.log(np.exp(row).sum()) for row in scores)
    assert exact_log_partition(g, scores, pp) == pytest.approx(ref, abs=1e-10)


def test_log_partition_pair_identity_compatibility():
    g = build_graph(2, [(0, 1)])
    pp = PairwiseParams(raw=np.eye(2), alpha=np.ones(1), mode="edge")
    assert exact_log_partition(g, np.zeros((2, 2)), pp) == \
        pytest.approx(math.log(2 * math.e + 2), abs=1e-12)


def test_posterior_factorizes_when_k_zero():
    rng = np.random.default_rng(1)
    g, _, scores, _, labels, train = random_instance(rng, 6, 3, min_labeled=1)
    pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=np.ones(g.num_edges), mode="edge")
    free, marg = exact_posterior_marginals(g, scores, pp, labels, train)
    assert np.allclose(marg, softmax_rows(scores[free]), atol=1e-12)


def test_posterior_fully_labeled_empty():
    rng = np.random.default_rng(2)
    g, _, scores, pp, labels, _ = random_instance(rng, 5, 3)
    free, marg = exact_posterior_marginals(g, scores, pp, labels, np.arange(5))
    assert len(free) == 0 and marg.shape == (0, 3)


def test_posterior_matches_second_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g, _, scores, pp, labels, train = random_instance(rng, 6, 3)
        free, marg = exact_posterior_marginals(g, scores, pp, labels, train)
        ref_free, ref = _linear_space_posterior(g, scores, pp, labels, train)
        assert np.array_equal(free, ref_free)
        assert np.abs(marg.sum(axis=1) - 1.0).max() <= 1e-12 if len(free) else True
        assert np.abs(marg - ref).max() <= 1e-10


def test_observed_ll_all_labeled_edgeless():
    rng = np.random.default_rng(4)
    g = build_graph(4, [])
    scores = rng.normal(size=(4, 2))
    labels = rng.integers(0, 2, size=4)
    pp = PairwiseParams.init(2, 0, mode="edge")
    ref = float(np.sum(np.log(softmax_rows(scores)[np.arange(4), labels])))
    assert exact_observed_ll(g, scores, pp, labels, np.arange(4)) == \
        pytest.approx(ref, abs=1e-10)


def test_observed_ll_no_labels_is_zero():
    rng = np.random.default_rng(5)
    g, _, scores, pp, labels, _ = random_instance(rng, 5, 3)
    assert exact_observed_ll(g, scores, pp, labels, np.array([], dtype=np.int64)) == \
        pytest.approx(0.0, abs=1e-10)


def test_observed_ll_upper_bounds_elbo():
    rng = np.random.default_rng(6)
    g, _, scores, pp, labels, train = random_instance(rng, 6, 3, min_labeled=1)
    free = np.setdiff1d(np.arange(6), train)
    obs = exact_observed_ll(g, scores, pp, labels, train)
    for _ in range(100):
        elbo = exact_elbo(g, scores, pp, labels, train, _rand_q(rng, free, 3, 6))
        assert elbo <= obs + 1e-10


def test_elbo_equals_observed_when_q_is_posterior():
    rng = np.random.default_rng(7)
    # K = 0: the posterior factorizes, so the mean-field family contains it
    g, _, scores, _, labels, train = random_instance(rng, 6, 3, min_labeled=1)
    pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=np.ones(g.num_edges), mode="edge")
    free, marg = exact_posterior_marginals(g, scores, pp, labels, train)
    q = Proposal(free, marg, 6)
    assert exact_elbo(g, scores, pp, labels, train, q) == \
        pytest.approx(exact_observed_ll(g, scores, pp, labels, train), abs=1e-10)
    # single unlabeled node: posterior trivially factorizes even with coupling
    g2, _, scores2, pp2, labels2, _ = random_instance(rng, 5, 3)
    train2 = np.array([0, 1, 2, 3])
    free2, marg2 = exact_posterior_marginals(g2, scores2, pp2, labels2, train2)
    q2 = Proposal(free2, marg2, 5)
    assert exact_elbo(g2, scores2, pp2, labels2, train2, q2) == \
        pytest.approx(exact_observed_ll(g2, scores2, pp2, labels2, train2), abs=1e-10)


def test_elbo_point_mass_bound():
    rng = np.random.default_rng(8)
    g, _, scores, pp, labels, train = random_instance(rng, 5, 3, min_labeled=1)
    free = np.setdiff1d(np.arange(5), train)
    if len(free) == 0:
        pytest.skip("instance happened to be fully labeled")
    free_ids, marg = exact_posterior_marginals(g, scores, pp, labels, train)
    rows = np.zeros((len(free), 3))
    rows[np.arange(len(free)), np.argmax(marg, axis=1)] = 1.0
    q = Proposal(free, rows, 5)
    assert exact_elbo(g, scores, pp, labels, train, q) <= \
        exact_observed_ll(g, scores, pp, labels, train) + 1e-10


def test_gap_equals_direct_kl():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g, _, scores, pp, labels, train = random_instance(rng, 6, 3, min_labeled=1)
        free = np.setdiff1d(np.arange(6), train)
        q = _rand_q(rng, free, 3, 6)
        gap = exact_observed_ll(g, scores, pp, labels, train) \
            - exact_elbo(g, scores, pp, labels, train, q)
        # direct KL over full joint assignments of the free nodes
        c = 3
        kl = 0.0
        ref_free, _ = exact_posterior_marginals(g, scores, pp, labels, train)
        alphas = pp.alpha_at(np.arange(g.num_edges))
        logw, logq_list = [], []
        for assign in itertools.product(range(c), repeat=len(free)):
            y = labels.copy()
            for node, lab in zip(free, assign):
                y[node] = lab
            lf = float(scores[np.arange(6), y].sum())
            lf += float(sum(a * pp.K[y[j], y[k]] for a, (j, k) in zip(alphas, g.edges)))
            logw.append(lf)
            logq_list.append(float(sum(math.log(q.q[q.position(node), lab])
                                       for node, lab in zip(free, assign))))
        logw = np.array(logw)
        log_norm = logw.max() + math.log(np.exp(logw - logw.max()).sum())
        for lw, lq in zip(logw, logq_list):
            kl += math.exp(lq) * (lq - (lw - log_norm))
        assert gap == pytest.approx(kl, abs=1e-10)


def test_marginals_invariant_to_score_shifts():
    rng = np.random.default_rng(10)
    g, _, scores, pp, labels, train = random_instance(rng, 6, 3, min_labeled=1)
    free, marg = exact_posterior_marginals(g, scores, pp, labels, train)
    shifted = scores + rng.normal(scale=4.0, size=(6, 1))
    _, marg2 = exact_posterior_marginals(g, shifted, pp, labels, train)
    assert np.abs(marg - marg2).max() <= 1e-10


def test_enumeration_refused_above_limit():
    rng = np.random.default_rng(11)
    g, _, scores, pp, labels, train = random_instance(rng, 8, 3)
    with pytest.raises(EnumerationLimitError):
        exact_log_partition(g, scores, pp, limit=OracleLimit(max_configurations=100))


def test_lone_star_piece_with_unit_exponents_matches_exact():
    rng = np.random.default_rng(12)
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    scores = rng.normal(size=(5, 3))
    pp = PairwiseParams(raw=rng.normal(size=(3, 3)), alpha=rng.normal(size=4),
                        mode="edge")
    unit = Redistribution(center_exp=np.ones(5), leaf_exp=np.ones(5), pair_exp=1.0)
    log_z, _, _, _ = _piece_stats(g, scores, pp, unit)
    assert log_z[0] == pytest.approx(exact_log_partition(g, scores, pp), abs=1e-10)
