import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import raw_pair_cases
from mrfgcn import factors, gcn, selfcheck
from mrfgcn.errors import ConfigError, NonFiniteObjectiveError
from mrfgcn.factors import (PAIR_EXP, PairwiseParams, PieceBuffers, Redistribution,
                            _leaf_major_pieces, endpoint_rows, objective_and_gradients,
                            star_blocks)
from mrfgcn.data import generate_synthetic
from mrfgcn.graph import build_graph
from mrfgcn.numerics import AdamState, adam_step, softmax_rows
from mrfgcn.selfcheck import (blocked_piece, fd_gradient, random_graph, random_instance,
                              random_r, rel_error)


def _whole_graph_pieces(g, scores, pp, redist):
    """(log_z, mu_center, t, rim) of every piece: the walk in one block of 2E slots."""
    out = PieceBuffers(g, pp.num_classes, max(2 * g.num_edges, 1))
    [(_, pieces)] = star_blocks(g, scores, pp, redist, out)
    return pieces


def _piece(g, node, scores, pp, redist):
    """The piece at `node`: (log_z, center, leaf and pairwise marginals) rows."""
    log_z, mu_center, t, rim = _whole_graph_pieces(g, scores, pp, redist)
    slots = slice(g.indptr[node], g.indptr[node + 1])
    return log_z[node], mu_center[node], rim[:, slots, 0].T, t[:, slots].transpose(1, 2, 0)


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
    assert PAIR_EXP == 0.5


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


@pytest.mark.parametrize("field", ["log_z", "pair_marg"])
def test_piece_check_fails_on_a_perturbed_piece_stats(monkeypatch, field):
    # the self-check must read the batched inference training runs, and
    # must notice an error far below what a wrong formula would give
    def perturbed(*args, **kwargs):
        log_z, mu_center, t, rim = _leaf_major_pieces(*args, **kwargs)
        if field == "log_z":
            log_z = log_z + 1e-8
        else:
            t = t + 1e-8
        return log_z, mu_center, t, rim

    monkeypatch.setattr(factors, "_leaf_major_pieces", perturbed)
    results = selfcheck.check_piece_inference([4, 6], trials=6, seed=0)
    assert not all(r.passed for r in results)


@pytest.mark.parametrize("block", ["scores", "K", "alpha", "w0", "w1"])
def test_gradient_check_fails_on_one_block_off_by_1e_5(monkeypatch, block):
    # a relative error of 1e-5 in one gradient block, ten times the
    # tolerance, must fail that block's check
    owner, name, i = {"scores": (selfcheck, "objective_and_gradients", 1),
                      "K": (selfcheck, "objective_and_gradients", 2),
                      "alpha": (selfcheck, "objective_and_gradients", 3),
                      "w0": (gcn, "backward", 0), "w1": (gcn, "backward", 1)}[block]
    real = getattr(owner, name)

    def scaled(*args):
        out = list(real(*args))
        if out[i] is not None:
            out[i] = out[i] * (1.0 + 1e-5)
        return tuple(out)

    monkeypatch.setattr(owner, name, scaled)
    results = {r.name: r for r in selfcheck.check_gradients([4, 6], trials=6, seed=0)}
    assert not results[f"gradient vs finite differences ({block})"].passed
    monkeypatch.undo()
    assert all(r.passed for r in selfcheck.check_gradients([4, 6], trials=6, seed=0))


def test_redistribution_check_fails_on_a_leaf_exponent_off_by_1e_8(monkeypatch):
    real = selfcheck.random_instance

    def shifted(*args, **kwargs):
        g, redist, *rest = real(*args, **kwargs)
        redist.leaf_exp[np.argmax(g.degrees)] += 1e-8
        return (g, redist, *rest)

    monkeypatch.setattr(selfcheck, "random_instance", shifted)
    [result] = selfcheck.check_redistribution_identity([4, 6], trials=6, seed=0)
    assert not result.passed
    monkeypatch.undo()
    [result] = selfcheck.check_redistribution_identity([4, 6], trials=6, seed=0)
    assert result.passed


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
    stats_none = _whole_graph_pieces(g, scores, pp_none, redist)
    stats_edge = _whole_graph_pieces(g, scores, pp_edge, redist)
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


def test_objective_and_gradients_memory_does_not_grow_with_the_slot_label_tensor():
    # blocks of at most SLOT_CLASS_BUDGET slot-class pairs share one scratch
    # tensor; the rest is per-node and per-slot rows. Holding every piece's
    # (c, 2E, c) tensor at once, as one block, peaks near three times the bound.
    rng = np.random.default_rng(15)
    n, c = 300, 10
    g = build_graph(n, rng.integers(0, n, size=(6000, 2)))
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams(rng.normal(size=(c, c)), rng.normal(1.0, 0.5, g.num_edges), "edge")
    scores, r = rng.normal(size=(n, c)), softmax_rows(rng.normal(size=(n, c)))
    assert len(PieceBuffers(g, c).blocks) >= 8
    objective_and_gradients(r, scores, pp, redist, g)
    tracemalloc.start()
    try:
        objective_and_gradients(r, scores, pp, redist, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = n * c + 2 * g.num_edges * c
    assert peak <= 2 * factors.SLOT_CLASS_BUDGET * 8 + 3 * rows * 8


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
        stats = _whole_graph_pieces(g, scores, pp, redist)
        log_z, mu_center, t, rim = stats
        assert all(np.isfinite(x).all() for x in stats)
        assert np.abs(t.sum(axis=0) - mu_center[g.slot_centers]).max(initial=0.0) <= 1e-12
        assert np.abs(t.sum(axis=2) - rim[:, :, 0]).max(initial=0.0) <= 1e-12

        # a per-node constant m moves each piece's log Z by its exponent-weighted
        # sum of m and leaves every marginal alone; shifted by thousands, the
        # unnormalized leaf and center terms are far outside exp's range
        m = rng.normal(0.0, 3000.0, size=n)
        moved = _whole_graph_pieces(g, scores - m[:, None], pp, redist)
        shift = redist.center_exp * m + np.bincount(
            g.slot_centers, weights=(redist.leaf_exp * m)[g.indices], minlength=n)
        assert np.abs(log_z - moved[0] - shift).max() <= 1e-14 * np.abs(moved[0]).max()
        for a, b in zip((mu_center, t, rim[:, :, 0]), (*moved[1:3], moved[3][:, :, 0])):
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
    pair = np.broadcast_to(PAIR_EXP * pp.alpha_at(g.slot_edge_ids), unary.shape)
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
    g_k = (r[j] * alphas_e[:, None]).T @ r[kk] - PAIR_EXP * (alphas_d @ t).T
    grad_alpha = np.zeros(0)
    if pp.mode != "none":
        per_edge = pair_dots - PAIR_EXP * np.bincount(
            g.slot_edge_ids, weights=rim[:, :, 1].sum(axis=0), minlength=g.num_edges)
        grad_alpha = per_edge if pp.mode == "edge" else np.array([per_edge.sum()])
    return value, grad_scores, 0.5 * (g_k + g_k.T), grad_alpha


def _assert_matches_reference(r, scores, pp, redist, g):
    got = objective_and_gradients(r, scores, pp, redist, g)
    ref = _reference_objective_and_gradients(r, scores, pp, redist, g)
    assert abs(got[0] - ref[0]) <= 1e-12 * max(abs(ref[0]), 1.0)
    for a, b in zip(got[1:], ref[1:]):
        assert a.shape == b.shape and rel_error(a, b) <= 1e-12


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
        assert np.array_equal(a, b)


# ---- blocks: the pieces inferred a few at a time through shared scratch

def _block_graph(kind, rng):
    if kind == "random":
        return random_graph(rng, 40, 0.15)
    if kind == "isolated_nodes":
        return build_graph(8, [(1, 3), (3, 4), (1, 4), (4, 6)])
    if kind == "no_edges":
        return build_graph(8, [])
    # node 7's 23 slots alone exceed a block of 3
    return build_graph(30, [(7, k) for k in range(6, 31) if k not in (7, 30)]
                       + [(0, 1), (1, 2), (2, 3), (9, 10), (20, 21), (28, 29)])


@pytest.mark.parametrize("scheme", ["average", "center"])
@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
@pytest.mark.parametrize("kind", ["random", "isolated_nodes", "no_edges", "hub"])
def test_objective_in_blocks_matches_one_block_and_the_reference(monkeypatch, scheme,
                                                                 mode, kind):
    rng = np.random.default_rng(20)
    g, c = _block_graph(kind, rng), 4
    redist = Redistribution.for_graph(g, scheme)
    alpha = {"edge": rng.normal(1.0, 0.5, g.num_edges), "layer": np.array([0.7]),
             "none": np.zeros(0)}[mode]
    pp = PairwiseParams(raw=rng.normal(size=(c, c)), alpha=alpha, mode=mode)
    scores = rng.normal(0.0, 1.5, size=(g.num_nodes, c))
    r = softmax_rows(rng.normal(size=(g.num_nodes, c)))
    assert len(PieceBuffers(g, c).blocks) == 1
    whole = objective_and_gradients(r, scores, pp, redist, g)

    monkeypatch.setattr(factors, "SLOT_CLASS_BUDGET", 3 * c * c)
    blocks = PieceBuffers(g, c).blocks
    if g.num_edges:
        assert len(blocks) >= 4
    if kind == "hub":
        assert (7, 8) in [(b.nodes.start, b.nodes.stop) for b in blocks]
    got = objective_and_gradients(r, scores, pp, redist, g)
    assert abs(got[0] - whole[0]) <= 1e-13 * abs(whole[0])
    for a, b in zip(got[1:], whole[1:]):
        assert rel_error(a, b) <= 1e-13
    _assert_matches_reference(r, scores, pp, redist, g)


@pytest.mark.parametrize("mode", ["edge", "layer", "none"])
@pytest.mark.parametrize("c", [3, 7, 10])
def test_one_workspace_over_successive_calls_equals_fresh_calls(monkeypatch, c, mode):
    # nothing carries from one walk to the next: calls with other scores, K
    # and alpha that share one workspace, as an M-step's epochs do, give the
    # bits of calls that each build their own
    rng = np.random.default_rng(25)
    g = random_graph(rng, 40, 0.15)
    monkeypatch.setattr(factors, "SLOT_CLASS_BUDGET", 12 * c * c)
    redist = Redistribution.for_graph(g, "average")
    workspace = PieceBuffers(g, c)
    assert len(workspace.blocks) >= 3
    r = softmax_rows(rng.normal(size=(g.num_nodes, c)))
    r_ends = endpoint_rows(r, g)
    for _ in range(3):
        alpha = {"edge": rng.normal(1.0, 0.5, g.num_edges), "layer": rng.normal(1.0, 0.5, 1),
                 "none": np.zeros(0)}[mode]
        pp = PairwiseParams(rng.normal(size=(c, c)), alpha, mode)
        scores = rng.normal(0.0, 1.5, size=(g.num_nodes, c))
        shared = objective_and_gradients(r, scores, pp, redist, g, r_ends, workspace)
        fresh = objective_and_gradients(r, scores, pp, redist, g)
        assert shared[0] == fresh[0]
        for a, b in zip(shared[1:], fresh[1:]):
            assert np.array_equal(a, b)


def test_a_call_given_a_workspace_allocates_less_than_one_slot_label_tensor():
    # the workspace holds every block-sized and per-slot array of the walk;
    # what a call still allocates is per-edge and per-node rows
    rng = np.random.default_rng(15)
    n, c = 300, 10
    g = build_graph(n, rng.integers(0, n, size=(6000, 2)))
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams(rng.normal(size=(c, c)), rng.normal(1.0, 0.5, g.num_edges), "edge")
    scores, r = rng.normal(size=(n, c)), softmax_rows(rng.normal(size=(n, c)))
    workspace, r_ends = PieceBuffers(g, c), endpoint_rows(r, g)
    assert len(workspace.blocks) >= 8
    objective_and_gradients(r, scores, pp, redist, g, r_ends, workspace)
    tracemalloc.start()
    try:
        objective_and_gradients(r, scores, pp, redist, g, r_ends, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < workspace.tensor.nbytes


def test_leaf_incidence_rows_list_the_reverse_slots_in_order():
    # the leaf-side sums add row i's slots in stored order; that order must be
    # the reverses of the slots centered at i, in CSR order
    for num_nodes, raw in raw_pair_cases():
        g = build_graph(num_nodes, raw)
        inc = PieceBuffers(g, 3).leaf_incidence
        assert np.array_equal(inc.indptr, g.indptr)
        reverse = inc.indices               # entry d sits in row center(d)
        assert np.array_equal(g.slot_centers[reverse], g.indices)
        assert np.array_equal(g.indices[reverse], g.slot_centers)
        assert np.array_equal(g.slot_edge_ids[reverse], g.slot_edge_ids)


@pytest.mark.parametrize("num_nodes, edges", [(7, [(0, 3), (3, 5), (0, 5), (5, 6)]),
                                             (3, [])])
def test_slot_incidence_rows_hold_the_slots_at_each_node(num_nodes, edges):
    g = build_graph(num_nodes, edges)
    inc = PieceBuffers(g, 3).leaf_incidence
    assert inc.shape == (num_nodes, 2 * g.num_edges)
    assert (inc.data == 1.0).all()
    expected = np.zeros(inc.shape)
    expected[g.indices, np.arange(2 * g.num_edges)] = 1.0
    assert np.array_equal(inc.toarray(), expected)


@pytest.mark.parametrize("max_slots", [1, 3, 7, 1000])
def test_slot_blocks_cut_the_csr_order_into_whole_pieces(max_slots):
    rng = np.random.default_rng(3)
    for g in (random_graph(rng, 15, 0.3), build_graph(6, [(2, 3)]), build_graph(4, []),
              build_graph(9, [(4, k) for k in range(9) if k != 4]), build_graph(0, [])):
        # row i holds the slots centered at i
        center_incidence = np.zeros((g.num_nodes, 2 * g.num_edges))
        center_incidence[g.slot_centers, np.arange(2 * g.num_edges)] = 1.0
        blocks = PieceBuffers(g, 3, max_slots).blocks
        assert [b.nodes.start for b in blocks] == [0] + [b.nodes.stop for b in blocks[:-1]]
        assert blocks[-1].nodes.stop == g.num_nodes
        for b in blocks:
            size = b.slots.stop - b.slots.start
            assert (b.slots.start, b.slots.stop) == (g.indptr[b.nodes.start],
                                                     g.indptr[b.nodes.stop])
            # within the budget, or one piece; and no room for the next piece
            assert size <= max_slots or b.nodes.stop - b.nodes.start == 1
            if b.nodes.stop < g.num_nodes:
                assert g.indptr[b.nodes.stop + 1] - b.slots.start > max_slots
            assert np.array_equal(b.incidence.toarray(), center_incidence[b.nodes, b.slots])


@pytest.mark.parametrize("kind", ["random", "isolated_nodes", "hub"])
def test_each_piece_read_from_its_block_equals_the_whole_graph_piece(kind):
    rng = np.random.default_rng(21)
    g = _block_graph(kind, rng)
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams(raw=rng.normal(size=(3, 3)),
                        alpha=rng.normal(1.0, 0.5, g.num_edges), mode="edge")
    scores = rng.normal(0.0, 1.5, size=(g.num_nodes, 3))
    for node in range(g.num_nodes):
        whole = _piece(g, node, scores, pp, redist)
        for got, ref in zip(blocked_piece(g, node, scores, pp, redist), whole):
            assert np.abs(got - ref).max(initial=0.0) <= 1e-14


def test_piece_check_reads_pieces_from_later_blocks(monkeypatch):
    # an error confined to the blocks after the first must fail the check
    def perturbed(g, scores, redist, block, out):
        log_z, mu_center, t, rim = _leaf_major_pieces(g, scores, redist, block, out)
        return (log_z + (block.nodes.start > 0) * 1e-8), mu_center, t, rim

    monkeypatch.setattr(factors, "_leaf_major_pieces", perturbed)
    results = selfcheck.check_piece_inference([6, 8], trials=6, seed=0)
    assert not all(r.passed for r in results)
    monkeypatch.undo()
    assert all(r.passed for r in selfcheck.check_piece_inference([6, 8], trials=6, seed=0))


# ---- the one walk: blocked_piece reads the objective's own pieces

def _walk_graph(kind):
    if kind == "path":
        return build_graph(12, [(i, i + 1) for i in range(11)]), 2
    if kind == "cora_shape":     # 540 nodes, 7 classes, average degree about 4
        return generate_synthetic(540, 7, 2, 0.8, 7, 0.1, seed=11).graph, 7
    # dense shape: 400 nodes, 10 classes, average degree about 20, several blocks
    return generate_synthetic(400, 10, 10, 0.6, 10, 0.1, seed=11).graph, 10


@pytest.mark.parametrize("budget", ["whole_graph", "3_slots", "default"])
@pytest.mark.parametrize("kind", ["cora_shape", "dense_shape", "path"])
def test_every_piece_the_walk_yields_equals_the_objectives_rows_bit_for_bit(monkeypatch,
                                                                             kind, budget):
    rng = np.random.default_rng(22)
    g, c = _walk_graph(kind)
    redist = Redistribution.for_graph(g, "average")
    pp = PairwiseParams(rng.normal(size=(c, c)), rng.normal(1.0, 0.5, g.num_edges), "edge")
    scores = rng.normal(0.0, 1.5, size=(g.num_nodes, c))
    buffers = []

    def kept(g, scores, redist, block, out):
        buffers.append(out)
        return _leaf_major_pieces(g, scores, redist, block, out)

    monkeypatch.setattr(factors, "_leaf_major_pieces", kept)
    objective_and_gradients(softmax_rows(scores), scores, pp, redist, g)
    monkeypatch.undo()
    out = buffers[0]
    assert all(b is out for b in buffers)
    if kind == "dense_shape":
        assert len(buffers) >= 4

    max_slots = {"whole_graph": 2 * g.num_edges, "3_slots": 3, "default": None}[budget]
    blocks = 0
    walk = star_blocks(g, scores, pp, redist, PieceBuffers(g, c, max_slots))
    for block, (log_z, mu_center, _, _) in walk:
        assert np.array_equal(log_z, out.log_z[block.nodes])
        assert np.array_equal(mu_center, out.mu_center[block.nodes])
        blocks += 1
    assert blocks == {"whole_graph": 1, "3_slots": len(PieceBuffers(g, c, 3).blocks),
                      "default": len(buffers)}[budget]
    hub = int(np.argmax(g.degrees))
    for node in sorted({0, hub, g.num_nodes // 2, g.num_nodes - 1}):
        log_z, center, _, _ = blocked_piece(g, node, scores, pp, redist, max_slots)
        assert log_z == out.log_z[node]
        assert np.array_equal(center, out.mu_center[node])


def test_non_finite_scores_name_their_first_bad_row():
    rng = np.random.default_rng(23)
    g, redist, scores, pp, labels, train = random_instance(rng, 8, 3)
    r = random_r(rng, 8, 3, labels, train)
    scores[5, 1] = np.nan
    scores[3, 0] = -np.inf
    with pytest.raises(NonFiniteObjectiveError,
                       match=r"^piecewise objective became non-finite \(piece at node 3\)$"), \
            np.errstate(invalid="ignore"):
        objective_and_gradients(r, scores, pp, redist, g)


def test_non_finite_value_with_finite_pieces_names_no_node():
    # r enters the value but no piece: every score row and log partition is finite
    rng = np.random.default_rng(24)
    g, redist, scores, pp, labels, train = random_instance(rng, 6, 3)
    r = random_r(rng, 6, 3, labels, train)
    r[2] = np.nan
    with pytest.raises(NonFiniteObjectiveError, match=r"\(piece at node None\)$"):
        objective_and_gradients(r, scores, pp, redist, g)


def test_non_finite_gradient_with_a_finite_value_names_the_gradient():
    # K = 0 keeps every piece and the value finite, while alpha = 1e308
    # overflows the K gradient's pair-marginal sum; under the command line's
    # floating-point traps the objective still raises its own error
    n = 12
    g = build_graph(n, list(itertools.combinations(range(n), 2)))
    pp = PairwiseParams(np.zeros((3, 3)), np.full(g.num_edges, 1e308), "edge")
    redist = Redistribution.for_graph(g, "average")
    r = np.full((n, 3), 1.0 / 3.0)
    with pytest.raises(NonFiniteObjectiveError,
                       match=r"^piecewise objective became non-finite \(K gradient\)$"), \
            np.errstate(over="raise", invalid="raise", divide="raise"):
        objective_and_gradients(r, np.zeros((n, 3)), pp, redist, g)
