import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mrfgcn import selfcheck
from mrfgcn.errors import ConfigError
from mrfgcn.factors import (PairwiseParams, Redistribution, _piece_stats, endpoint_rows,
                            objective_and_gradients)
from mrfgcn.graph import build_graph
from mrfgcn.numerics import AdamState, adam_step, softmax_rows
from mrfgcn.selfcheck import fd_gradient, random_instance, random_r, rel_error

from conftest import enum_piece


def _piece(g, node, scores, pp, redist):
    """The piece at `node`: (log_z, center, leaf and pairwise marginals) rows."""
    log_z, mu_center, pair_marg, leaf_marg = _piece_stats(g, scores, pp, redist)
    slots = slice(g.indptr[node], g.indptr[node + 1])
    return log_z[node], mu_center[node], leaf_marg[slots], pair_marg[slots]


def _log_factor(pp, edge_id, y_j, y_k):
    return float(pp.alpha_at([edge_id])[0] * pp.K[y_j, y_k])


def test_pairwise_log_factor_values():
    pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=np.ones(1), mode="edge")
    assert _log_factor(pp, 0, 1, 2) == 0.0
    pp = PairwiseParams(raw=np.eye(3), alpha=np.ones(2), mode="edge")
    assert _log_factor(pp, 1, 2, 2) == 1.0
    assert _log_factor(pp, 1, 0, 2) == 0.0
    raw = np.zeros((3, 3))
    raw[1, 2] = raw[2, 1] = -0.4
    pp = PairwiseParams(raw=raw, alpha=np.array([2.5]), mode="edge")
    assert _log_factor(pp, 0, 1, 2) == pytest.approx(-1.0)


def test_pairwise_log_factor_symmetric_in_labels():
    rng = np.random.default_rng(0)
    pp = PairwiseParams(raw=rng.normal(size=(4, 4)), alpha=rng.normal(size=(3,)),
                        mode="edge")
    for y1, y2 in itertools.product(range(4), repeat=2):
        assert _log_factor(pp, 2, y1, y2) == pytest.approx(
            _log_factor(pp, 2, y2, y1), abs=1e-15)


def test_piece_membership_counts():
    rng = np.random.default_rng(1)
    g, _, _, _, _, _ = random_instance(rng, 9, 3)
    appearances = np.zeros(g.num_nodes, dtype=int)
    edge_appearances = np.zeros(g.num_edges, dtype=int)
    for node in range(g.num_nodes):
        slots = slice(g.indptr[node], g.indptr[node + 1])
        appearances[node] += 1
        for leaf in g.indices[slots]:
            appearances[leaf] += 1
        for eid in g.slot_edge_ids[slots]:
            edge_appearances[eid] += 1
    assert np.array_equal(appearances, g.degrees + 1)
    assert np.all(edge_appearances == 2)


@pytest.mark.parametrize("scheme", ["average", "center"])
def test_redistribution_partition_of_unity(scheme):
    rng = np.random.default_rng(2)
    g, redist, _, pp, _, _ = random_instance(rng, 10, 3, scheme=scheme)
    node_total = np.zeros(g.num_nodes)
    for node in range(g.num_nodes):
        node_total[node] += redist.center_exp[node]
        for leaf in g.indices[g.indptr[node]:g.indptr[node + 1]]:
            node_total[leaf] += redist.leaf_exp[leaf]
    assert np.allclose(node_total, 1.0, atol=1e-15)
    # every edge: exponent 1/2 in exactly two pieces
    assert redist.pair_exp == 0.5


def test_redistribution_unknown_scheme():
    with pytest.raises(ConfigError):
        Redistribution.for_graph(build_graph(2, [(0, 1)]), "quadratic")


def test_piece_log_partition_singleton_uniform():
    g = build_graph(1, [])
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams.init(3, 0, mode="none")
    assert _piece(g, 0, np.zeros((1, 3)), pp, redist)[0] == pytest.approx(math.log(3))
    # large scores: the max-shifted sum neither overflows nor loses the shift
    assert _piece(g, 0, np.full((1, 3), 1000.0), pp, redist)[0] == \
        pytest.approx(1000.0 + math.log(3), abs=1e-12)


def test_piece_log_partition_pair_all_zero_factors():
    g = build_graph(2, [(0, 1)])
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams.init(2, 1, mode="none")   # K = 0
    assert _piece(g, 0, np.zeros((2, 2)), pp, redist)[0] == pytest.approx(math.log(4))


def test_piece_log_partition_pair_identity_compatibility():
    g = build_graph(2, [(0, 1)])
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams(raw=np.eye(2), alpha=np.ones(1), mode="edge")
    expected = math.log(2 * math.exp(0.5) + 2)    # 4-assignment enumeration
    assert _piece(g, 0, np.zeros((2, 2)), pp, redist)[0] == \
        pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("scheme", ["average", "center"])
@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
def test_piece_inference_matches_enumeration(scheme, mode):
    rng = np.random.default_rng(3)
    for _ in range(6):
        g, redist, scores, pp, _, _ = random_instance(
            rng, int(rng.integers(2, 8)), int(rng.integers(2, 5)),
            mode=mode, scheme=scheme)
        node = int(rng.integers(g.num_nodes))
        ref_z, ref_center, ref_pair = enum_piece(g, node, scores, pp, redist)
        log_z, center, _, pair = _piece(g, node, scores, pp, redist)
        assert log_z == pytest.approx(ref_z, abs=1e-10)
        assert np.abs(center - ref_center).max() <= 1e-10
        if g.degrees[node]:
            assert np.abs(pair - ref_pair).max() <= 1e-10


@pytest.mark.parametrize("field", ["log_z", "pair_marg"])
def test_piece_check_fails_on_a_perturbed_piece_stats(monkeypatch, field):
    # the self-check must read the batched inference training runs, and
    # must notice an error far below what a wrong formula would give
    def perturbed(*args, **kwargs):
        log_z, mu_center, pair_marg, leaf_marg = _piece_stats(*args, **kwargs)
        if field == "log_z":
            log_z = log_z + 1e-8
        else:
            pair_marg = pair_marg + 1e-8
        return log_z, mu_center, pair_marg, leaf_marg

    monkeypatch.setattr(selfcheck, "_piece_stats", perturbed)
    results = selfcheck.check_piece_inference([4, 6], trials=6, seed=0)
    assert not all(r.passed for r in results)


def test_piece_marginals_uniform():
    g = build_graph(3, [(0, 1), (0, 2)])
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams.init(3, 2, mode="none")
    _, center, leaves, pair = _piece(g, 0, np.zeros((3, 3)), pp, redist)
    assert np.allclose(center, 1.0 / 3.0)
    assert np.allclose(leaves, 1.0 / 3.0)
    assert np.allclose(pair, 1.0 / 9.0)


def test_piece_marginals_strong_diagonal_concentrates():
    g = build_graph(2, [(0, 1)])
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams(raw=100.0 * np.eye(2), alpha=np.ones(1), mode="edge")
    _, _, _, pair = _piece(g, 0, np.zeros((2, 2)), pp, redist)
    off_diag = pair[0] - np.diag(np.diag(pair[0]))
    assert off_diag.sum() < 1e-8
    assert np.trace(pair[0]) == pytest.approx(1.0, abs=1e-12)


def test_piece_marginals_are_consistent():
    rng = np.random.default_rng(4)
    g, redist, scores, pp, _, _ = random_instance(rng, 7, 3)
    for node in range(g.num_nodes):
        _, center, leaves, pair = _piece(g, node, scores, pp, redist)
        assert center.sum() == pytest.approx(1.0, abs=1e-12)
        for pos in range(g.degrees[node]):
            joint = pair[pos]
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(joint.sum(axis=1), center, atol=1e-12)
            assert np.allclose(joint.sum(axis=0), leaves[pos], atol=1e-12)


def test_objective_edgeless_is_log_softmax_likelihood():
    rng = np.random.default_rng(5)
    g = build_graph(5, [])
    redist = Redistribution.for_graph(g, "average")
    scores = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    r = np.zeros((5, 3))
    r[np.arange(5), labels] = 1.0
    pp = PairwiseParams.init(3, 0, mode="edge")
    value = objective_and_gradients(r, scores, pp, redist, g)[0]
    ref = float(np.sum(np.log(softmax_rows(scores)[np.arange(5), labels])))
    assert value == pytest.approx(ref, abs=1e-12)


def test_objective_ignores_alpha_when_k_zero():
    rng = np.random.default_rng(6)
    g, redist, scores, _, labels, train = random_instance(rng, 6, 3)
    r = random_r(rng, 6, 3, labels, train)
    values = []
    for mode, alpha in (("edge", np.full(g.num_edges, 3.3)),
                        ("layer", np.array([-1.7])), ("none", np.zeros(0))):
        pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=alpha, mode=mode)
        values.append(objective_and_gradients(r, scores, pp, redist, g)[0])
    assert values[0] == pytest.approx(values[1], abs=1e-12)
    assert values[0] == pytest.approx(values[2], abs=1e-12)


def test_objective_two_node_hand_enumeration():
    rng = np.random.default_rng(7)
    g = build_graph(2, [(0, 1)])
    redist = Redistribution.for_graph(g, "average")
    scores = rng.normal(size=(2, 2))
    pp = PairwiseParams(raw=rng.normal(size=(2, 2)), alpha=np.array([0.8]), mode="edge")
    r = rng.random((2, 2))
    r /= r.sum(axis=1, keepdims=True)
    k = pp.K
    expected = float((r * scores).sum())
    expected += 0.8 * sum(r[0, a] * k[a, b] * r[1, b]
                          for a in range(2) for b in range(2))
    for _ in range(2):   # both pieces are the same two-node star
        z = sum(math.exp(0.5 * scores[0, a] + 0.5 * scores[1, b] + 0.5 * 0.8 * k[a, b])
                for a in range(2) for b in range(2))
        expected -= math.log(z)
    value = objective_and_gradients(r, scores, pp, redist, g)[0]
    assert value == pytest.approx(expected, abs=1e-12)


def test_gradients_uniform_cancellation():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams(raw=np.zeros((3, 3)), alpha=np.ones(3), mode="edge")
    r = np.full((4, 3), 1.0 / 3.0)
    _, grad_scores, _, _ = objective_and_gradients(r, np.zeros((4, 3)), pp, redist, g)
    assert np.abs(grad_scores).max() <= 1e-14


def test_gradients_edgeless_logistic_form():
    rng = np.random.default_rng(8)
    g = build_graph(5, [])
    redist = Redistribution.for_graph(g, "average")
    scores = rng.normal(size=(5, 3))
    r = rng.random((5, 3))
    r /= r.sum(axis=1, keepdims=True)
    pp = PairwiseParams.init(3, 0, mode="edge")
    _, grad_scores, _, _ = objective_and_gradients(r, scores, pp, redist, g)
    assert np.allclose(grad_scores, r - softmax_rows(scores), atol=1e-12)


@pytest.mark.parametrize("scheme", ["average", "center"])
@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
def test_gradients_match_finite_differences(scheme, mode):
    rng = np.random.default_rng(9)
    for _ in range(3):
        n, c = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        g, redist, scores, pp, labels, train = random_instance(
            rng, n, c, mode=mode, scheme=scheme)
        r = random_r(rng, n, c, labels, train)
        _, grad_scores, grad_raw, grad_alpha = objective_and_gradients(
            r, scores, pp, redist, g)
        fd_scores = fd_gradient(lambda s: objective_and_gradients(r, s, pp, redist, g)[0],
                                scores.copy())
        assert rel_error(grad_scores, fd_scores) <= 1e-6
        fd_raw = fd_gradient(lambda raw: objective_and_gradients(
            r, scores, PairwiseParams(raw, pp.alpha, pp.mode), redist, g)[0],
            pp.raw.copy())
        assert rel_error(grad_raw, fd_raw) <= 1e-6
        if mode == "none":
            assert grad_alpha is None
        else:
            fd_alpha = fd_gradient(lambda al: objective_and_gradients(
                r, scores, PairwiseParams(pp.raw, al, pp.mode), redist, g)[0],
                pp.alpha.copy())
            assert rel_error(grad_alpha, fd_alpha) <= 1e-6


@pytest.mark.parametrize("scheme", ["average", "center"])
def test_redistribution_identity_global_factor_sum(scheme):
    rng = np.random.default_rng(10)
    for _ in range(10):
        n, c = int(rng.integers(2, 10)), int(rng.integers(2, 5))
        g, redist, scores, pp, _, _ = random_instance(rng, n, c, scheme=scheme)
        assign = rng.integers(0, c, size=n)
        total = 0.0
        for node in range(n):
            total += redist.center_exp[node] * scores[node, assign[node]]
            slots = slice(g.indptr[node], g.indptr[node + 1])
            alphas = pp.alpha_at(g.slot_edge_ids[slots])
            for leaf, a in zip(g.indices[slots], alphas):
                total += redist.leaf_exp[leaf] * scores[leaf, assign[leaf]]
                total += redist.pair_exp * a * pp.K[assign[node], assign[leaf]]
        direct = float(scores[np.arange(n), assign].sum())
        if g.num_edges:
            j, k = g.edges[:, 0], g.edges[:, 1]
            direct += float((pp.alpha_at(np.arange(g.num_edges))
                             * pp.K[assign[j], assign[k]]).sum())
        assert total == pytest.approx(direct, abs=1e-10)


def test_shift_invariance_of_objective():
    rng = np.random.default_rng(11)
    for scheme in ("average", "center"):
        g, redist, scores, pp, labels, train = random_instance(
            rng, 8, 3, scheme=scheme)
        r = random_r(rng, 8, 3, labels, train)
        base = objective_and_gradients(r, scores, pp, redist, g)[0]
        shifted = scores + rng.normal(scale=5.0, size=(8, 1))
        assert objective_and_gradients(r, shifted, pp, redist, g)[0] == \
            pytest.approx(base, abs=1e-9)


def test_mode_consistency_none_equals_edge_at_unit_alpha():
    rng = np.random.default_rng(12)
    g, redist, scores, _, labels, train = random_instance(rng, 7, 3)
    r = random_r(rng, 7, 3, labels, train)
    raw = rng.normal(size=(3, 3))
    pp_none = PairwiseParams(raw=raw, alpha=np.zeros(0), mode="none")
    pp_edge = PairwiseParams(raw=raw, alpha=np.ones(g.num_edges), mode="edge")
    assert objective_and_gradients(r, scores, pp_none, redist, g)[0] == \
        pytest.approx(objective_and_gradients(r, scores, pp_edge, redist, g)[0],
                      abs=1e-12)
    stats_none = _piece_stats(g, scores, pp_none, redist)
    stats_edge = _piece_stats(g, scores, pp_edge, redist)
    for a, b in zip(stats_none, stats_edge):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_k_stays_symmetric_under_adam_steps():
    rng = np.random.default_rng(13)
    g, redist, scores, pp, labels, train = random_instance(rng, 6, 3)
    r = random_r(rng, 6, 3, labels, train)
    st = AdamState.for_param(pp.raw, lr=0.05)
    for _ in range(5):
        _, _, grad_raw, _ = objective_and_gradients(r, scores, pp, redist, g)
        pp = PairwiseParams(adam_step(pp.raw, -grad_raw, st), pp.alpha, pp.mode)
        k = pp.K
        assert np.array_equal(k, k.T)


def test_gradients_with_trailing_isolated_node():
    # isolated node with the highest id: its empty piece segment must not
    # swallow slots from the previous node's piece
    rng = np.random.default_rng(14)
    g = build_graph(4, [(0, 2), (1, 2)])
    scores = rng.normal(size=(4, 2))
    pp = PairwiseParams(raw=rng.normal(size=(2, 2)), alpha=np.array([0.9]),
                        mode="layer")
    redist = Redistribution.for_graph(g, "average")
    r = rng.random((4, 2))
    r /= r.sum(axis=1, keepdims=True)
    _, grad_scores, _, _ = objective_and_gradients(r, scores, pp, redist, g)
    fd = fd_gradient(lambda s: objective_and_gradients(r, s, pp, redist, g)[0],
                     scores.copy())
    assert rel_error(grad_scores, fd) <= 1e-6


def test_alpha_storage_shapes_validated():
    with pytest.raises(ConfigError):
        PairwiseParams(raw=np.zeros((2, 2)), alpha=np.ones(3), mode="layer")
    with pytest.raises(ConfigError):
        PairwiseParams(raw=np.zeros((2, 2)), alpha=np.ones(1), mode="none")
    with pytest.raises(ConfigError):
        PairwiseParams(raw=np.zeros((2, 2)), alpha=np.ones(1), mode="diagonal")


def test_objective_and_gradients_allocates_at_most_two_slot_label_tensors():
    # the 2E·c² star-piece tensor is built once and reused in place for
    # the pair marginals and every gradient; a copying layout peaks above 3
    rng = np.random.default_rng(15)
    g, redist, scores, pp, labels, train = random_instance(rng, 200, 10, edge_prob=0.1)
    r = random_r(rng, 200, 10, labels, train)
    assert g.degrees.mean() > 18
    objective_and_gradients(r, scores, pp, redist, g)
    tracemalloc.start()
    try:
        objective_and_gradients(r, scores, pp, redist, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (2 * g.num_edges * 10 * 10 * 8)


@pytest.mark.parametrize("scheme", ["average", "center"])
@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
def test_piece_stats_stable_at_large_scores(scheme, mode):
    rng = np.random.default_rng(16)
    for _ in range(4):
        n, c = int(rng.integers(6, 14)), int(rng.integers(2, 6))
        g, redist, scores, pp, _, _ = random_instance(rng, n, c, mode=mode, scheme=scheme)
        scores = scores * 200.0                                  # std 300
        pp = PairwiseParams(raw=5.0 * pp.raw, alpha=rng.normal(0.0, 2.0, pp.alpha.shape),
                            mode=mode)
        stats = _piece_stats(g, scores, pp, redist)
        log_z, mu_center, pair_marg, leaf_marg = stats
        assert all(np.isfinite(x).all() for x in stats)
        assert np.abs(pair_marg.sum(axis=2) - mu_center[g.slot_centers]).max(initial=0.0) \
            <= 1e-12
        assert np.abs(pair_marg.sum(axis=1) - leaf_marg).max(initial=0.0) <= 1e-12

        # a per-node constant m moves each piece's log Z by its exponent-weighted
        # sum of m and leaves every marginal alone; shifted by thousands, the
        # unnormalized leaf and center terms are far outside exp's range
        m = rng.normal(0.0, 3000.0, size=n)
        moved = _piece_stats(g, scores - m[:, None], pp, redist)
        shift = redist.center_exp * m + np.bincount(
            g.slot_centers, weights=(redist.leaf_exp * m)[g.indices], minlength=n)
        assert np.abs(log_z - moved[0] - shift).max() <= 1e-14 * np.abs(moved[0]).max()
        for a, b in zip(stats[1:], moved[1:]):
            assert np.abs(a - b).max(initial=0.0) <= 1e-12


# ---- the segment-sum reference: every per-node sum over slots is a
# reduceat over CSR segments, and the leaf marginals reach their node
# through a gather at each slot's reverse

def _segment_sum(values, indptr):
    """Sum `values` rows over CSR-style segments, tolerating empty segments."""
    n = len(indptr) - 1
    out = np.zeros((n,) + values.shape[1:], dtype=np.float64)
    if values.shape[0] == 0 or n == 0:
        return out
    nonempty = np.flatnonzero(indptr[1:] > indptr[:-1])
    if len(nonempty) == 0:
        return out
    out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty], axis=0)
    return out


def _reverse_slots(g):
    """Slot of the opposite orientation: the other slot with the same edge id."""
    by_eid = np.argsort(g.slot_edge_ids, kind="stable")
    reverse = np.empty_like(by_eid)
    reverse[by_eid[0::2]] = by_eid[1::2]
    reverse[by_eid[1::2]] = by_eid[0::2]
    return reverse


def _reference_objective_and_gradients(r, scores, pp, redist, g):
    c, k = pp.num_classes, pp.K
    leaves = g.indices
    unary = (redist.leaf_exp[leaves][:, None] * scores[leaves]).T
    pair = np.broadcast_to(redist.pair_exp * pp.alpha_at(g.slot_edge_ids), unary.shape)
    t = np.stack([unary, pair], axis=2) @ np.stack([np.ones((c, c)), k], axis=1)
    hi = t.max(axis=0)
    t = np.exp(t - hi)
    mass = t.sum(axis=0)
    b = redist.center_exp[:, None] * scores + _segment_sum(hi + np.log(mass), g.indptr)
    b_hi = b.max(axis=1)
    log_z = b_hi + np.log(np.exp(b - b_hi[:, None]).sum(axis=1))
    mu_center = np.exp(b - log_z[:, None])
    t *= mu_center[g.slot_centers] / mass
    rim = t @ np.stack([np.ones((c, c)), k], axis=2)

    alphas_e = pp.alpha_at(np.arange(g.num_edges))
    alphas_d = pp.alpha_at(g.slot_edge_ids)
    j, kk = g.edges[:, 0], g.edges[:, 1]
    pair_dots = np.einsum("ec,ec->e", (r @ k)[j], r[kk])
    value = float((r * scores).sum() + (alphas_e * pair_dots).sum() - log_z.sum())
    leaf_marg_at_leaf = rim[:, _reverse_slots(g), 0].T
    grad_scores = (r - redist.center_exp[:, None] * mu_center
                   - redist.leaf_exp[:, None] * _segment_sum(leaf_marg_at_leaf, g.indptr))
    g_k = (r[j] * alphas_e[:, None]).T @ r[kk] - redist.pair_exp * (alphas_d @ t).T
    grad_alpha = None
    if pp.mode != "none":
        per_edge = pair_dots - redist.pair_exp * np.bincount(
            g.slot_edge_ids, weights=rim[:, :, 1].sum(axis=0), minlength=g.num_edges)
        grad_alpha = per_edge if pp.mode == "edge" else np.array([per_edge.sum()])
    return value, grad_scores, 0.5 * (g_k + g_k.T), grad_alpha


def _assert_matches_reference(r, scores, pp, redist, g):
    got = objective_and_gradients(r, scores, pp, redist, g)
    ref = _reference_objective_and_gradients(r, scores, pp, redist, g)
    assert abs(got[0] - ref[0]) <= 1e-12 * max(abs(ref[0]), 1.0)
    for a, b in zip(got[1:3], ref[1:3]):
        assert rel_error(a, b) <= 1e-12
    if pp.mode == "none":
        assert got[3] is None and ref[3] is None
    else:
        assert rel_error(got[3], ref[3]) <= 1e-12


@pytest.mark.parametrize("scheme", ["average", "center"])
@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
def test_objective_matches_the_segment_sum_reference(scheme, mode):
    rng = np.random.default_rng(17)
    for _ in range(12):
        n, c = int(rng.integers(2, 60)), int(rng.integers(2, 11))
        g, redist, scores, pp, labels, train = random_instance(
            rng, n, c, mode=mode, scheme=scheme, edge_prob=float(rng.uniform(0.02, 0.5)))
        _assert_matches_reference(random_r(rng, n, c, labels, train), scores, pp, redist, g)


@pytest.mark.parametrize("scheme", ["average", "center"])
@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
@pytest.mark.parametrize("edges", [[(1, 3), (3, 4), (1, 4), (4, 6)], []],
                         ids=["isolated_nodes", "no_edges"])
def test_objective_matches_the_reference_with_empty_pieces(scheme, mode, edges):
    # nodes 0, 2, 5 and 7 have no neighbours: their slot segments are empty
    rng = np.random.default_rng(18)
    g = build_graph(8, edges)
    redist = Redistribution.for_graph(g, scheme)
    alpha = {"edge": rng.normal(1.0, 0.5, g.num_edges), "layer": np.array([0.7]),
             "none": np.zeros(0)}[mode]
    pp = PairwiseParams(raw=rng.normal(size=(3, 3)), alpha=alpha, mode=mode)
    r = softmax_rows(rng.normal(size=(8, 3)))
    _assert_matches_reference(r, rng.normal(size=(8, 3)), pp, redist, g)


@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
def test_objective_with_gathered_endpoint_rows_matches_r_alone(mode):
    rng = np.random.default_rng(19)
    g, redist, scores, pp, labels, train = random_instance(rng, 30, 5, mode=mode,
                                                           edge_prob=0.2)
    r = random_r(rng, 30, 5, labels, train)
    alone = objective_and_gradients(r, scores, pp, redist, g)
    gathered = objective_and_gradients(r, scores, pp, redist, g, endpoint_rows(r, g))
    assert alone[0] == gathered[0]
    for a, b in zip(alone[1:], gathered[1:]):
        assert (a is None and b is None) or np.array_equal(a, b)
