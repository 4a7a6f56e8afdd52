"""Two-layer graph-convolutional backbone producing per-node label scores.

The forward map is ``A @ relu(A @ drop(X) @ W0) @ W1`` where A is the
normalized adjacency and dropout is active only for a keep probability
below 1. A and X are both ``scipy.sparse.csr_array``: A as
`normalized_adjacency_operator` builds it, X as `Dataset` stores it. The
input dropout draws one mask value per stored entry: a zero stays zero
whether it is dropped or kept, so the dropped input stores only the
kept entries, each scaled by 1/keep. The hidden-layer mask is dense
over the rows the hidden layer computes. Raw scores serve directly as
unary log-factors; no per-node normalization is applied. Backward
passes are exact for the activations cached by the forward call that
produced them, including its dropout masks.

A loss that reads the scores of a few rows reads only their receptive
field: the rows' neighbours' hidden activations, and those nodes'
neighbours' features. `receptive_field` cuts these blocks out of A and X
once, and `forward` runs on them with an outer adjacency A[rows] and an
inner one A[hidden][:, inputs]; the whole graph passes A for both. Every
row of a CSR product sums its stored entries in order, and the hidden
rows are placed back at their node ids before the dense products with
W1, so the field's loss, gradients and scores are bit-identical to the
whole graph's.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import StaleCacheError, StructuralInputError
from .numerics import dropout_mask, softmax_rows, stream


@dataclass
class GcnParams:
    w0: np.ndarray   # (num_features, hidden)
    w1: np.ndarray   # (hidden, num_classes)


@dataclass
class GcnCache:
    """Activations retained by forward() for an exact backward()."""
    outer_t: sp.csr_array   # transpose of the score layer's adjacency
    inner_t: sp.csr_array   # transpose of the hidden layer's adjacency
    hidden: np.ndarray | None   # node id of each row of z1; None for every node
    x0: sp.csr_array    # input after dropout (only the kept entries in train mode)
    z1: np.ndarray      # pre-activation of the hidden layer
    h1d: np.ndarray     # hidden activation after dropout, one row per node
    mask1: np.ndarray | None
    w0_ref: np.ndarray
    w1_ref: np.ndarray


@dataclass(frozen=True)
class Field:
    """The blocks of A and X that the scores of `ids` read, with the
    transposes that backward() multiplies by.

    `rows` are the sorted distinct ids and `positions` each id's row among
    them; `hidden` are the sorted nodes adjacent to a row (itself included)
    and `inputs` the sorted nodes adjacent to a hidden node.
    """
    ids: np.ndarray
    rows: np.ndarray
    positions: np.ndarray
    hidden: np.ndarray
    outer: sp.csr_array      # A[rows], all n columns
    outer_t: sp.csr_array
    inner: sp.csr_array      # A[hidden][:, inputs]
    inner_t: sp.csr_array
    features: sp.csr_array   # X[inputs]


def _require_csr(**inputs):
    """Reject an input that is not CSR; a dense A or X is not converted."""
    for name, x in inputs.items():
        if not (sp.issparse(x) and x.format == "csr"):
            raise StructuralInputError(
                f"{name} must be a scipy.sparse.csr_array, got {type(x).__name__}")


def receptive_field(norm_adj, features, ids) -> Field:
    """Cut the receptive field of `ids` out of the adjacency and the features.

    `norm_adj` and `features` are `scipy.sparse.csr_array`. Row slices keep
    each row's entries in order, and the inner block's columns are
    renumbered by rank among the sorted `inputs`, which keeps that order
    too. A transpose converted to CSR lists each row's entries in ascending
    column order, the order in which a product with the CSC view of the
    transpose adds them up.
    """
    _require_csr(norm_adj=norm_adj, features=features)
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.unique(ids)
    outer = norm_adj[rows]
    hidden = np.unique(outer.indices).astype(np.int64)
    inner = norm_adj[hidden]
    inputs = np.unique(inner.indices)
    rank = np.empty(norm_adj.shape[1], dtype=inner.indices.dtype)
    rank[inputs] = np.arange(len(inputs))
    inner = sp.csr_array((inner.data, rank[inner.indices], inner.indptr),
                         shape=(len(hidden), len(inputs)))
    return Field(ids, rows, np.searchsorted(rows, ids), hidden, outer, outer.T.tocsr(),
                 inner, inner.T.tocsr(), features[inputs])


def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(num_features, hidden, num_classes, seed: int) -> GcnParams:
    """Glorot-uniform weights drawn from the run seed's "gcn_init" stream."""
    rng = stream(seed, "gcn_init")
    return GcnParams(w0=_glorot(rng, num_features, hidden),
                     w1=_glorot(rng, hidden, num_classes))


def _drop_stored(x, keep, rng):
    """CSR of the kept stored entries of CSR `x`, each scaled by 1/keep."""
    kept = np.flatnonzero(dropout_mask(x.data.shape, keep, rng))
    indptr = np.searchsorted(kept, x.indptr).astype(x.indptr.dtype)
    return sp.csr_array((x.data[kept] * (1.0 / keep), x.indices[kept], indptr), shape=x.shape)


def forward(params: GcnParams, features, norm_adj, dropout_keep=1.0, rng=None, field=None):
    """Run the backbone; returns (scores, cache).

    `features` (n, F) and `norm_adj` (n, n) are `scipy.sparse.csr_array`.
    norm_adj is symmetric, so backward() uses it as its own transpose. A
    receptive `field` cut from these features and this adjacency restricts
    the run to its blocks: the hidden layer computes the field's hidden
    rows and the scores have one row per entry of field.rows.

    With dropout_keep < 1 an rng must be supplied; one input mask over the
    stored feature entries and one hidden mask are drawn, in that order.
    Input that is not CSR raises StructuralInputError.
    """
    _require_csr(features=features, norm_adj=norm_adj)
    if field is None:
        outer = outer_t = inner = inner_t = norm_adj
        hidden = None
    else:
        features, outer, outer_t = field.features, field.outer, field.outer_t
        inner, inner_t, hidden = field.inner, field.inner_t, field.hidden
    if features.shape[1] != params.w0.shape[0]:
        raise StructuralInputError(
            f"features width {features.shape[1]} != w0 rows {params.w0.shape[0]}")
    x0 = features
    mask1 = None
    if dropout_keep < 1.0:
        if rng is None:
            raise StructuralInputError("dropout requires an rng stream")
        x0 = _drop_stored(features, dropout_keep, rng)
        mask1 = dropout_mask((inner.shape[0], params.w0.shape[1]), dropout_keep,
                             rng) / dropout_keep
    z1 = inner @ (x0 @ params.w0)
    h1 = np.maximum(z1, 0.0)
    h1d = h1 if mask1 is None else h1 * mask1
    if hidden is not None:
        # BLAS computes a row of a dense product by its place in the matrix
        placed = np.zeros((outer.shape[1], h1d.shape[1]))
        placed[hidden] = h1d
        h1d = placed
    scores = outer @ (h1d @ params.w1)
    cache = GcnCache(outer_t=outer_t, inner_t=inner_t, hidden=hidden, x0=x0, z1=z1, h1d=h1d,
                     mask1=mask1, w0_ref=params.w0, w1_ref=params.w1)
    return scores, cache


def backward(params: GcnParams, cache: GcnCache, grad_scores):
    """Gradients of sum(grad_scores * scores) w.r.t. (w0, w1)."""
    if cache.w0_ref is not params.w0 or cache.w1_ref is not params.w1:
        raise StaleCacheError("forward cache does not match these parameters")
    ag = cache.outer_t @ grad_scores
    gw1 = cache.h1d.T @ ag
    gh1d = ag @ params.w1.T
    if cache.hidden is not None:
        gh1d = gh1d[cache.hidden]
    gh1 = gh1d if cache.mask1 is None else gh1d * cache.mask1
    gz1 = gh1 * (cache.z1 > 0.0)
    gw0 = cache.x0.T @ (cache.inner_t @ gz1)
    return gw0, gw1


def supervised_loss_and_grad(params, features, norm_adj, labels, train_ids,
                             rng=None, dropout_keep=1.0, field=None):
    """Mean cross-entropy over train_ids plus its exact weight gradients.

    The loss reads only the scores of train_ids, so it runs on their
    receptive field: `field` when given (cut for these train_ids), else one
    cut here.
    """
    if field is None:
        field = receptive_field(norm_adj, features, train_ids)
    scores, cache = forward(params, features, norm_adj, dropout_keep=dropout_keep, rng=rng,
                            field=field)
    count = len(field.ids)
    probs = softmax_rows(scores[field.positions])
    picked = probs[np.arange(count), labels[field.ids]]
    # a label probability that underflows to 0 makes the reported loss inf;
    # the loss is only reported, and the gradient below stays finite
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(picked)))
    grad_scores = np.zeros_like(scores)
    grad_scores[field.positions] = probs / count
    grad_scores[field.positions, labels[field.ids]] -= 1.0 / count
    gw0, gw1 = backward(params, cache, grad_scores)
    return loss, gw0, gw1
