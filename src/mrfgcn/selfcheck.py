"""Randomized self-checks run by the oracle-check command.

Each check pits the code that training runs against direct enumeration
or central finite differences on small random instances and reports the
worst discrepancy seen. Star pieces are checked through the oracle: a
piece read from its block of `factors.star_blocks`, the walk that the
objective runs, against the exact oracle run on that piece as a star
graph of its own. The piece check's blocks hold `PIECE_CHECK_SLOTS`
slots, so an instance spans several blocks that share one workspace
per walk, and a piece with more slots is a block of its own. The finite
differences are taken of the value that `objective_and_gradients`
returns, the same call that supplies the analytic gradients; the
backbone chain runs on the sparse adjacency operator and CSR features,
as `train` does. The KL identity is checked against `direct_kl`, which
sums the factors itself. The ELBO and the KL read q as the unlabeled
rows of r, the (n, c) table that training's `make_r` builds, and
nothing here imports from `training`, the code these checks check.

The four suites are the one implementation of these checks: acceptance
criteria 5, 6, 7 and the KL half of 9 call them with their own seeds,
sizes and class counts. Central differences are exact only away from
the backbone's ReLU kinks, so the gradient suite draws an instance's
backbone weights again while a hidden pre-activation lies within twice
the reach of a w0 step (`FD_STEP` times the largest entry of its row of
A X) of zero.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import gcn
from .factors import (PAIR_EXP, PairwiseParams, PieceBuffers, Redistribution,
                      objective_and_gradients, star_blocks)
from .graph import build_graph, normalized_adjacency_operator
from .numerics import stream
from .oracle import (MAX_CONFIGS, _check_limit, exact_elbo, exact_log_partition,
                     exact_observed_ll, exact_posterior_marginals)

FD_STEP = 1e-5
GRAD_TOL = 1e-6
ENUM_TOL = 1e-10
PIECE_CHECK_SLOTS = 3


@dataclass
class CheckResult:
    name: str
    worst: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.threshold


def random_graph(rng, num_nodes, edge_prob=0.45):
    """Each pair j < k is an edge with probability edge_prob."""
    pairs = [(j, k) for j in range(num_nodes) for k in range(j + 1, num_nodes)
             if rng.random() < edge_prob]
    return build_graph(num_nodes, pairs)


def random_instance(rng, num_nodes, num_classes, mode="edge", scheme="average",
                    edge_prob=0.45, min_labeled=0):
    """Small random graph with random factors, labels and a labeled subset.

    Returns (g, redist, scores, pp, labels, train_ids).
    """
    g = random_graph(rng, num_nodes, edge_prob)
    scores = rng.normal(0.0, 1.5, size=(num_nodes, num_classes))
    raw = rng.normal(0.0, 0.6, size=(num_classes, num_classes))
    if mode == "edge":
        alpha = rng.normal(1.0, 0.5, size=g.num_edges)
    elif mode == "layer":
        alpha = rng.normal(1.0, 0.5, size=1)
    else:
        alpha = np.zeros(0)
    pp = PairwiseParams(raw=raw, alpha=alpha, mode=mode)
    redist = Redistribution.for_graph(g, scheme)
    labels = rng.integers(0, num_classes, size=num_nodes).astype(np.int64)
    num_labeled = int(rng.integers(min_labeled, num_nodes))
    train_ids = np.sort(rng.choice(num_nodes, size=num_labeled, replace=False))
    return g, redist, scores, pp, labels, train_ids


def random_r(rng, num_nodes, num_classes, labels, train_ids):
    r = rng.random((num_nodes, num_classes)) + 0.05
    r /= r.sum(axis=1, keepdims=True)
    r[train_ids] = 0.0
    r[train_ids, labels[train_ids]] = 1.0
    return r


def oracle_star_piece(g, node, scores, pp, redist, max_configs=MAX_CONFIGS):
    """The star piece at `node`, solved by the oracle as a graph of its own.

    Node 0 of the star is the center and node p its p-th CSR leaf, joined by
    edge p - 1. Returns (log_z, center marginal, leaf marginals, pairwise
    marginals), with leaves in the order of the node's CSR slots; the
    pairwise marginal P(a, b) is P(center = a) P(leaf = b | center = a).
    """
    lo, hi = g.indptr[node], g.indptr[node + 1]
    leaves = g.indices[lo:hi]
    star = build_graph(len(leaves) + 1, [(0, p) for p in range(1, len(leaves) + 1)])
    unary = np.vstack([redist.center_exp[node] * scores[node],
                       redist.leaf_exp[leaves, None] * scores[leaves]])
    star_pp = PairwiseParams(
        pp.raw, PAIR_EXP * pp.alpha_at(g.slot_edge_ids[lo:hi]), "edge")
    log_z = exact_log_partition(star, unary, star_pp, max_configs)
    labels = np.zeros(star.num_nodes, dtype=np.int64)
    _, marg = exact_posterior_marginals(star, unary, star_pp, labels, [], max_configs)
    pair = np.zeros((len(leaves), pp.num_classes, pp.num_classes))
    for a in range(pp.num_classes):
        labels[0] = a
        _, given = exact_posterior_marginals(star, unary, star_pp, labels, [0], max_configs)
        pair[:, a] = marg[0, a] * given
    return log_z, marg[0], marg[1:], pair


def blocked_piece(g, node, scores, pp, redist, max_slots=PIECE_CHECK_SLOTS):
    """The piece at `node` as `star_blocks` infers it, in blocks of `max_slots` slots.

    The walk runs up to the block holding `node`, and the piece is read
    from that block's results. Returns what `oracle_star_piece` returns.
    """
    out = PieceBuffers(g, pp.num_classes, max_slots)
    for block, (log_z, mu_center, t, rim) in star_blocks(g, scores, pp, redist, out):
        if node < block.nodes.stop:
            i, lo = node - block.nodes.start, block.slots.start
            slots = slice(g.indptr[node] - lo, g.indptr[node + 1] - lo)
            return log_z[i], mu_center[i], rim[:, slots, 0].T, t[:, slots].transpose(1, 2, 0)


def fd_gradient(func, x, step=FD_STEP):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        saved = xf[i]
        xf[i] = saved + step
        hi = func(x)
        xf[i] = saved - step
        lo = func(x)
        xf[i] = saved
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    scale = max(np.linalg.norm(analytic.ravel()), np.linalg.norm(numeric.ravel()), 1e-10)
    return float(np.linalg.norm((analytic - numeric).ravel()) / scale)


def check_piece_inference(sizes, trials, seed, num_classes=3, max_configs=MAX_CONFIGS):
    rng = stream(seed, "selfcheck_pieces")
    worst_z, worst_m = 0.0, 0.0
    for trial in range(trials):
        n = sizes[trial % len(sizes)]
        scheme = ("average", "center")[trial % 2]
        mode = ("edge", "layer", "none")[trial % 3]
        g, redist, scores, pp, _, _ = random_instance(
            rng, n, num_classes, mode=mode, scheme=scheme)
        node = int(rng.integers(n))
        ref_z, ref_c, ref_l, ref_p = oracle_star_piece(g, node, scores, pp, redist, max_configs)
        log_z, center, leaves, pair = blocked_piece(g, node, scores, pp, redist)
        worst_z = max(worst_z, abs(log_z - ref_z))
        worst_m = max(worst_m, np.abs(center - ref_c).max(initial=0.0),
                      np.abs(leaves - ref_l).max(initial=0.0),
                      np.abs(pair - ref_p).max(initial=0.0))
    return [CheckResult("piece log-partition vs enumeration", worst_z, ENUM_TOL),
            CheckResult("piece marginals vs enumeration", worst_m, ENUM_TOL)]


def check_gradients(sizes, trials, seed, num_classes=3, hidden=6):
    rng = stream(seed, "selfcheck_grads")
    worst = {"scores": 0.0, "K": 0.0, "alpha": 0.0, "w0": 0.0, "w1": 0.0}
    for t in range(trials):
        n = sizes[t % len(sizes)]
        scheme = ("average", "center")[t % 2]
        mode = ("edge", "layer", "none")[t % 3]
        g, redist, scores, pp, labels, train_ids = random_instance(
            rng, n, num_classes, mode=mode, scheme=scheme)
        r = random_r(rng, n, num_classes, labels, train_ids)

        _, g_scores, g_raw, g_alpha = objective_and_gradients(r, scores, pp, redist, g)
        fd = fd_gradient(lambda s: objective_and_gradients(r, s, pp, redist, g)[0],
                         scores.copy())
        worst["scores"] = max(worst["scores"], rel_error(g_scores, fd))

        fd = fd_gradient(
            lambda raw: objective_and_gradients(
                r, scores, PairwiseParams(raw, pp.alpha, pp.mode), redist, g)[0],
            pp.raw.copy())
        worst["K"] = max(worst["K"], rel_error(g_raw, fd))

        fd = fd_gradient(
            lambda al: objective_and_gradients(
                r, scores, PairwiseParams(pp.raw, al, pp.mode), redist, g)[0],
            pp.alpha.copy())
        worst["alpha"] = max(worst["alpha"], rel_error(g_alpha, fd))

        # backbone chain: finite-difference the weights through the same objective
        num_feats = int(rng.integers(2, 5))
        features = sp.csr_array(rng.normal(0.0, 1.0, size=(n, num_feats)))
        adj = normalized_adjacency_operator(g)
        # a step of w0[i, j] moves z1[v, j] by FD_STEP * (A X)[v, i]; weights
        # that put a pre-activation within twice that reach of the ReLU kink,
        # where central differences are not exact, are drawn again
        reach = FD_STEP * np.abs((adj @ features).toarray()).max(axis=1, keepdims=True)
        while True:
            params = gcn.GcnParams(rng.normal(0.0, 0.8, size=(num_feats, hidden)),
                                   rng.normal(0.0, 0.8, size=(hidden, num_classes)))
            s, cache = gcn.forward(params, features, adj)
            if (np.abs(cache.z1) > 2.0 * reach).all():
                break

        def through_backbone(p):
            s, _ = gcn.forward(p, features, adj)
            return objective_and_gradients(r, s, pp, redist, g)[0]

        _, gs, _, _ = objective_and_gradients(r, s, pp, redist, g)
        gw0, gw1 = gcn.backward(params, cache, gs)
        fd0 = fd_gradient(lambda w: through_backbone(gcn.GcnParams(w, params.w1)),
                          params.w0.copy())
        fd1 = fd_gradient(lambda w: through_backbone(gcn.GcnParams(params.w0, w)),
                          params.w1.copy())
        worst["w0"] = max(worst["w0"], rel_error(gw0, fd0))
        worst["w1"] = max(worst["w1"], rel_error(gw1, fd1))
    return [CheckResult(f"gradient vs finite differences ({k})", v, GRAD_TOL)
            for k, v in worst.items()]


def check_redistribution_identity(sizes, trials, seed, num_classes=3):
    rng = stream(seed, "selfcheck_redist")
    worst = 0.0
    for t in range(trials):
        n = sizes[t % len(sizes)]
        scheme = ("average", "center")[t % 2]
        g, redist, scores, pp, _, _ = random_instance(rng, n, num_classes, scheme=scheme)
        assign = rng.integers(0, num_classes, size=n)
        # every piece's redistributed factors: centers, then each CSR slot's
        # leaf and piece edge
        centers, leaves = g.slot_centers, g.indices
        total = (redist.center_exp * scores[np.arange(n), assign]).sum()
        total += (redist.leaf_exp[leaves] * scores[leaves, assign[leaves]]).sum()
        total += (PAIR_EXP * pp.alpha_at(g.slot_edge_ids)
                  * pp.K[assign[centers], assign[leaves]]).sum()
        direct = scores[np.arange(n), assign].sum()
        if g.num_edges:
            j, k = g.edges[:, 0], g.edges[:, 1]
            direct += (pp.alpha_at(np.arange(g.num_edges))
                       * pp.K[assign[j], assign[k]]).sum()
        worst = max(worst, abs(total - direct))
    return [CheckResult("redistribution partition of unity", worst, ENUM_TOL)]


def check_elbo_identity(sizes, trials, seed, num_classes=3, max_configs=MAX_CONFIGS):
    """observed_ll - ELBO must equal KL(q || posterior), computed directly."""
    rng = stream(seed, "selfcheck_elbo")
    worst = 0.0
    for t in range(trials):
        n = sizes[t % len(sizes)]
        g, _, scores, pp, labels, train_ids = random_instance(rng, n, num_classes)
        free = np.setdiff1d(np.arange(n), train_ids)
        q_rows = rng.random((len(free), num_classes)) + 0.05
        q_rows /= q_rows.sum(axis=1, keepdims=True)
        r = np.zeros((n, num_classes))
        r[train_ids, labels[train_ids]] = 1.0
        r[free] = q_rows
        gap = exact_observed_ll(g, scores, pp, labels, train_ids, max_configs) \
            - exact_elbo(g, scores, pp, labels, train_ids, r, max_configs)
        kl = direct_kl(g, scores, pp, labels, train_ids, r)
        worst = max(worst, abs(gap - kl))
    return [CheckResult("observed-ll minus ELBO equals KL", worst, ENUM_TOL)]


def direct_kl(g, scores, pp, labels, train_ids, r):
    """KL(q || exact posterior) by enumerating the free nodes' assignments.

    q is read as r's rows on the nodes outside `train_ids`. It sums the
    factors itself, so it checks the oracle's ELBO and observed
    log-likelihood without sharing their code.
    """
    n, c = scores.shape
    free = np.setdiff1d(np.arange(n), train_ids)
    shape = (c,) * len(free)
    block = np.stack(np.unravel_index(np.arange(c ** len(free)), shape), axis=1)
    full = np.broadcast_to(labels, (len(block), n)).copy()
    full[:, free] = block
    logw = scores[np.arange(n)[None, :], full].sum(axis=1)
    if g.num_edges:
        j, k = g.edges[:, 0], g.edges[:, 1]
        alphas = pp.alpha_at(np.arange(g.num_edges))
        logw = logw + (alphas[None, :] * pp.K[full[:, j], full[:, k]]).sum(axis=1)
    log_post = logw - (logw.max() + np.log(np.exp(logw - logw.max()).sum()))
    logq = np.log(r[free[None, :], block]).sum(axis=1)
    w = np.exp(logq)
    return float((w * (logq - log_post)).sum())


def run_selfchecks(sizes, trials, seed, num_classes=3, max_configs=MAX_CONFIGS):
    """Run every suite; raises EnumerationLimitError for oversized requests."""
    _check_limit(max(sizes), num_classes, max_configs)
    results = []
    results += check_piece_inference(sizes, trials, seed, num_classes, max_configs)
    results += check_gradients(sizes, trials, seed, num_classes)
    results += check_redistribution_identity(sizes, trials, seed, num_classes)
    results += check_elbo_identity(sizes, trials, seed, num_classes, max_configs)
    return results
