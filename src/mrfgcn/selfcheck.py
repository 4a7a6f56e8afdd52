"""Randomized self-checks run by the oracle-check command.

Each check pits the code that training runs against direct enumeration
or central finite differences on small random instances and reports the
worst discrepancy seen. Star-piece inference is checked on the rows of
the batched `_piece_stats`. The finite differences are taken of the
value that `objective_and_gradients` returns, the same call that
supplies the analytic gradients; the backbone chain runs on the sparse
adjacency operator and CSR features, as `train` does.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import gcn
from .errors import EnumerationLimitError
from .factors import PairwiseParams, Redistribution, _piece_stats, objective_and_gradients
from .graph import build_graph, normalized_adjacency_operator
from .numerics import stream
from .oracle import OracleLimit, exact_elbo, exact_observed_ll
from .training import Proposal

FD_STEP = 1e-5
GRAD_TOL = 1e-6
ENUM_TOL = 1e-10


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


def enumerate_piece(g, node, scores, pp, redist):
    """Direct enumeration over the assignments of the star piece at `node`.

    Returns (log_z, center marginal, leaf marginals, pairwise marginals),
    with leaves in the order of the node's CSR slots.
    """
    c = pp.num_classes
    lo, hi = g.indptr[node], g.indptr[node + 1]
    leaves = g.indices[lo:hi]
    assign = np.stack(np.unravel_index(np.arange(c ** (len(leaves) + 1)),
                                       (c,) * (len(leaves) + 1)), axis=1)
    logf = redist.center_exp[node] * scores[node][assign[:, 0]]
    alphas = pp.alpha_at(g.slot_edge_ids[lo:hi])
    for pos, (leaf, a) in enumerate(zip(leaves, alphas), start=1):
        logf = logf + redist.leaf_exp[leaf] * scores[leaf][assign[:, pos]]
        logf = logf + redist.pair_exp * a * pp.K[assign[:, 0], assign[:, pos]]
    top = logf.max()
    log_z = top + np.log(np.exp(logf - top).sum())
    probs = np.exp(logf - log_z)
    center = np.bincount(assign[:, 0], weights=probs, minlength=c)
    leaf_marg = np.zeros((len(leaves), c))
    pair = np.zeros((len(leaves), c, c))
    for pos in range(1, len(leaves) + 1):
        leaf_marg[pos - 1] = np.bincount(assign[:, pos], weights=probs, minlength=c)
        for a in range(c):
            sel = assign[:, 0] == a
            pair[pos - 1, a] = np.bincount(assign[sel, pos], weights=probs[sel],
                                           minlength=c)
    return float(log_z), center, leaf_marg, pair


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


def check_piece_inference(sizes, trials, seed, num_classes=3):
    rng = stream(seed, "selfcheck_pieces")
    worst_z, worst_m = 0.0, 0.0
    for t in range(trials):
        n = sizes[t % len(sizes)]
        scheme = ("average", "center")[t % 2]
        mode = ("edge", "layer", "none")[t % 3]
        g, redist, scores, pp, _, _ = random_instance(
            rng, n, num_classes, mode=mode, scheme=scheme)
        node = int(rng.integers(n))
        ref_z, ref_c, ref_l, ref_p = enumerate_piece(g, node, scores, pp, redist)
        log_z, mu_center, pair_marg, leaf_marg = _piece_stats(g, scores, pp, redist)
        slots = slice(g.indptr[node], g.indptr[node + 1])
        worst_z = max(worst_z, abs(log_z[node] - ref_z))
        worst_m = max(worst_m,
                      np.abs(mu_center[node] - ref_c).max(initial=0.0),
                      np.abs(leaf_marg[slots] - ref_l).max(initial=0.0),
                      np.abs(pair_marg[slots] - ref_p).max(initial=0.0))
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

        if pp.mode != "none":
            fd = fd_gradient(
                lambda al: objective_and_gradients(
                    r, scores, PairwiseParams(pp.raw, al, pp.mode), redist, g)[0],
                pp.alpha.copy())
            worst["alpha"] = max(worst["alpha"], rel_error(g_alpha, fd))

        # backbone chain: finite-difference the weights through the same objective
        num_feats = int(rng.integers(2, 5))
        features = sp.csr_array(rng.normal(0.0, 1.0, size=(n, num_feats)))
        params = gcn.GcnParams(rng.normal(0.0, 0.8, size=(num_feats, hidden)),
                               rng.normal(0.0, 0.8, size=(hidden, num_classes)))
        adj = normalized_adjacency_operator(g)

        def through_backbone(p):
            s, _ = gcn.forward(p, features, adj)
            return objective_and_gradients(r, s, pp, redist, g)[0]

        s, cache = gcn.forward(params, features, adj)
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
        total += (redist.pair_exp * pp.alpha_at(g.slot_edge_ids)
                  * pp.K[assign[centers], assign[leaves]]).sum()
        direct = scores[np.arange(n), assign].sum()
        if g.num_edges:
            j, k = g.edges[:, 0], g.edges[:, 1]
            direct += (pp.alpha_at(np.arange(g.num_edges))
                       * pp.K[assign[j], assign[k]]).sum()
        worst = max(worst, abs(total - direct))
    return [CheckResult("redistribution partition of unity", worst, ENUM_TOL)]


def check_elbo_identity(sizes, trials, seed, num_classes=3, limit=None):
    """observed_ll - ELBO must equal KL(q || posterior), computed directly."""
    rng = stream(seed, "selfcheck_elbo")
    worst = 0.0
    for t in range(trials):
        n = sizes[t % len(sizes)]
        g, _, scores, pp, labels, train_ids = random_instance(rng, n, num_classes)
        free = np.setdiff1d(np.arange(n), train_ids)
        q_rows = rng.random((len(free), num_classes)) + 0.05
        q_rows /= q_rows.sum(axis=1, keepdims=True)
        q = Proposal(free, q_rows, n)
        gap = exact_observed_ll(g, scores, pp, labels, train_ids, limit) \
            - exact_elbo(g, scores, pp, labels, train_ids, q, limit)
        kl = _direct_kl(g, scores, pp, labels, train_ids, q)
        worst = max(worst, abs(gap - kl))
    return [CheckResult("observed-ll minus ELBO equals KL", worst, ENUM_TOL)]


def _direct_kl(g, scores, pp, labels, train_ids, q):
    """KL(q || exact posterior) by explicit enumeration of the free nodes."""
    from .oracle import _clamped_blocks, _factor_sum  # deliberate: same inputs
    c = scores.shape[1]
    blocks = list(_clamped_blocks(g, labels, train_ids, c, None))
    logw = np.concatenate([_factor_sum(full, scores, pp, g) for _, _, full in blocks])
    hi = logw.max()
    log_norm = hi + np.log(np.exp(logw - hi).sum())
    kl = 0.0
    offset = 0
    for free, block, _ in blocks:
        if len(free) == 0:
            return 0.0
        rows = q.q[[q.position(node) for node in free]]
        probs = rows[np.arange(len(free))[None, :], block]
        with np.errstate(divide="ignore"):
            logq = np.log(probs).sum(axis=1)
        weight = np.exp(logq)
        log_post = logw[offset:offset + len(block)] - log_norm
        mask = weight > 0
        kl += float((weight[mask] * (logq[mask] - log_post[mask])).sum())
        offset += len(block)
    return kl


def run_selfchecks(sizes, trials, seed, num_classes=3, limit=None):
    """Run every suite; raises EnumerationLimitError for oversized requests."""
    limit = limit or OracleLimit()
    if num_classes ** max(sizes) > limit.max_configurations:
        raise EnumerationLimitError(
            f"{num_classes}^{max(sizes)} assignments exceed the enumeration "
            f"limit {limit.max_configurations}")
    results = []
    results += check_piece_inference(sizes, trials, seed, num_classes)
    results += check_gradients(sizes, trials, seed, num_classes)
    results += check_redistribution_identity(sizes, trials, seed, num_classes)
    results += check_elbo_identity(sizes, trials, seed, num_classes, limit)
    return results
