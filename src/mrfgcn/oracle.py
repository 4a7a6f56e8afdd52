"""Brute-force ground truth for tiny graphs.

Everything here enumerates label assignments directly (in blocks, in
log space) and is deliberately independent of the piecewise inference
code it is used to check: it imports nothing from `training`, and
`exact_elbo` reads q from r, the (n, c) table whose unlabeled rows are
q, as the E-step and the M-step do. Star pieces are checked through it
too: the self-checks run it on one piece as a graph of its own
(`selfcheck.oracle_star_piece`). Enumeration is refused, not truncated,
when the assignment count exceeds the configured limit.
"""

import numpy as np

from .errors import EnumerationLimitError
from .graph import Graph

_BLOCK = 1 << 14
MAX_CONFIGS = 1 << 20   # the default enumeration limit, in assignments


def _logsumexp(*args, **kwargs):
    """scipy's logsumexp, imported on first call, so only oracle users load scipy.special."""
    from scipy.special import logsumexp
    return logsumexp(*args, **kwargs)


def _check_limit(num_free, num_classes, max_configs):
    """Refuse num_classes ** num_free assignments above `max_configs`.

    The count stops growing once it passes the limit, so a huge num_free
    costs no huge power; at most one class gives at most one assignment.
    """
    configs = 1
    for _ in range(num_free if num_classes > 1 else 0):
        if configs > max_configs:
            break
        configs *= num_classes
    if configs > max_configs:
        raise EnumerationLimitError(
            f"{num_classes}^{num_free} assignments exceed the enumeration "
            f"limit {max_configs}")


def _blocks(num_free, num_classes):
    """Yield (block_size, num_free) assignment arrays in counting order."""
    total = num_classes ** num_free
    shape = (num_classes,) * num_free
    for lo in range(0, total, _BLOCK):
        flat = np.arange(lo, min(lo + _BLOCK, total))
        if num_free == 0:
            yield np.zeros((1, 0), dtype=np.int64)
            return
        yield np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int64)


def _factor_sum(assign, scores, pp, g):
    """Global log-factor sum for each full assignment row."""
    n = g.num_nodes
    vals = scores[np.arange(n)[None, :], assign].sum(axis=1)
    if g.num_edges:
        j, k = g.edges[:, 0], g.edges[:, 1]
        alphas = pp.alpha_at(np.arange(g.num_edges))
        vals = vals + (alphas[None, :] * pp.K[assign[:, j], assign[:, k]]).sum(axis=1)
    return vals


def _clamped_blocks(g, labels, train_ids, num_classes, max_configs):
    """Assignments of the unlabeled nodes, embedded into full assignments."""
    train_ids = np.asarray(train_ids, dtype=np.int64)
    free = np.setdiff1d(np.arange(g.num_nodes), train_ids)
    _check_limit(len(free), num_classes, max_configs)
    template = np.zeros(g.num_nodes, dtype=np.int64)
    template[train_ids] = labels[train_ids]
    for block in _blocks(len(free), num_classes):
        full = np.broadcast_to(template, (len(block), g.num_nodes)).copy()
        full[:, free] = block
        yield free, block, full


def exact_log_partition(g: Graph, scores, pp, max_configs=MAX_CONFIGS) -> float:
    """log Z by summing every assignment of every node."""
    c = scores.shape[1]
    _check_limit(g.num_nodes, c, max_configs)
    parts = [_logsumexp(_factor_sum(block, scores, pp, g))
             for block in _blocks(g.num_nodes, c)]
    return float(_logsumexp(parts))


def exact_posterior_marginals(g: Graph, scores, pp, labels, train_ids, max_configs=MAX_CONFIGS):
    """Per-unlabeled-node marginals of the label posterior given the train set.

    Returns (unlabeled_ids, marginals) with one row per unlabeled node.
    """
    c = scores.shape[1]
    free = None
    acc = None
    for free, block, full in _clamped_blocks(g, labels, train_ids, c, max_configs):
        logw = _factor_sum(full, scores, pp, g)
        if acc is None:
            acc = np.full((len(free), c), -np.inf)
        for y in range(c):
            masked = np.where(block == y, logw[:, None], -np.inf)
            acc[:, y] = np.logaddexp(acc[:, y], _logsumexp(masked, axis=0))
    if free is None or len(free) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, c))
    return free, np.exp(acc - _logsumexp(acc, axis=1, keepdims=True))


def exact_observed_ll(g: Graph, scores, pp, labels, train_ids, max_configs=MAX_CONFIGS) -> float:
    """log P(observed labels) = log-sum over completions minus log Z."""
    c = scores.shape[1]
    parts = [_logsumexp(_factor_sum(full, scores, pp, g))
             for _, _, full in _clamped_blocks(g, labels, train_ids, c, max_configs)]
    return float(_logsumexp(parts) - exact_log_partition(g, scores, pp, max_configs))


def exact_elbo(g: Graph, scores, pp, labels, train_ids, r,
               max_configs=MAX_CONFIGS) -> float:
    """Expected complete log-likelihood under q plus the entropy of q.

    q is read from r, the (num_nodes, c) table of `training.make_r`, as
    its rows on the nodes outside `train_ids`; the labeled rows are unread.
    """
    c = scores.shape[1]
    expect, entropy = 0.0, 0.0
    for free, block, full in _clamped_blocks(g, labels, train_ids, c, max_configs):
        logw = _factor_sum(full, scores, pp, g)
        if len(free):
            probs = r[free[None, :], block]
            with np.errstate(divide="ignore"):
                logq = np.log(probs).sum(axis=1)
            weight = np.exp(logq)
        else:
            logq = np.zeros(1)
            weight = np.ones(1)
        expect += float((weight * logw).sum())
        entropy += float(-(weight[weight > 0] * logq[weight > 0]).sum())
    return expect + entropy - exact_log_partition(g, scores, pp, max_configs)
