import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from mrfgcn import oracle, selfcheck
from mrfgcn.errors import EnumerationLimitError
from mrfgcn.factors import PairwiseParams, PieceBuffers, Redistribution, star_blocks
from mrfgcn.graph import build_graph
from mrfgcn.numerics import softmax_rows
from mrfgcn.oracle import (exact_elbo, exact_log_partition, exact_observed_ll,
                           exact_posterior_marginals)
from mrfgcn.selfcheck import random_instance


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


def _r(free, rows, labels, train):
    """The (n, c) table the ELBO reads: q on the free rows, one-hot labels elsewhere."""
    r = np.zeros((len(labels), rows.shape[1]))
    r[train, labels[train]] = 1.0
    r[free] = rows
    return r


def _rand_r(rng, free, labels, train, c):
    rows = rng.random((len(free), c)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return _r(free, rows, labels, train)


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
        elbo = exact_elbo(g, scores, pp, labels, train, _rand_r(rng, free, labels, train, 3))
        assert elbo <= obs + 1e-10


def test_elbo_equals_observed_when_q_is_posterior():
    rng = np.random.default_rng(7)
    # K = 0: the posterior factorizes, so the mean-field family contains it
    g, _, scores, _, labels, train = random_instance(rng, 6, 3, min_labeled=1)
    pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=np.ones(g.num_edges), mode="edge")
    free, marg = exact_posterior_marginals(g, scores, pp, labels, train)
    r = _r(free, marg, labels, train)
    assert exact_elbo(g, scores, pp, labels, train, r) == \
        pytest.approx(exact_observed_ll(g, scores, pp, labels, train), abs=1e-10)
    # single unlabeled node: posterior trivially factorizes even with coupling
    g2, _, scores2, pp2, labels2, _ = random_instance(rng, 5, 3)
    train2 = np.array([0, 1, 2, 3])
    free2, marg2 = exact_posterior_marginals(g2, scores2, pp2, labels2, train2)
    r2 = _r(free2, marg2, labels2, train2)
    assert exact_elbo(g2, scores2, pp2, labels2, train2, r2) == \
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
    assert exact_elbo(g, scores, pp, labels, train, _r(free, rows, labels, train)) <= \
        exact_observed_ll(g, scores, pp, labels, train) + 1e-10


def test_elbo_check_fails_on_an_elbo_off_by_1e_8(monkeypatch):
    real = selfcheck.exact_elbo
    monkeypatch.setattr(selfcheck, "exact_elbo", lambda *args: real(*args) + 1e-8)
    [result] = selfcheck.check_elbo_identity([4, 6], trials=6, seed=0)
    assert not result.passed
    monkeypatch.undo()
    [result] = selfcheck.check_elbo_identity([4, 6], trials=6, seed=0)
    assert result.passed


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
        exact_log_partition(g, scores, pp, max_configs=100)


def test_lone_star_piece_with_unit_exponents_matches_exact():
    rng = np.random.default_rng(12)
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    scores = rng.normal(size=(5, 3))
    pp = PairwiseParams(raw=rng.normal(size=(3, 3)), alpha=rng.normal(size=4),
                        mode="edge")
    # unit unary exponents; doubled alpha at pair exponent 1/2 is the unit pair factor
    unit = Redistribution(center_exp=np.ones(5), leaf_exp=np.ones(5))
    doubled = PairwiseParams(pp.raw, 2.0 * pp.alpha, pp.mode)
    out = PieceBuffers(g, 3, 2 * g.num_edges)
    [(_, (log_z, _, _, _))] = star_blocks(g, scores, doubled, unit, out)
    assert log_z[0] == pytest.approx(exact_log_partition(g, scores, pp), abs=1e-10)


@pytest.mark.parametrize("module", [oracle, selfcheck], ids=["oracle", "selfcheck"])
def test_references_import_nothing_from_training(module):
    # the references check training's code, so they must not share it
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            parts.update(part for name in names for part in name.split("."))
    assert "training" not in parts
