"""Two-layer graph-convolutional backbone producing per-node label scores.

The forward map is ``A @ relu(A @ drop(X) @ W0) @ W1`` where A is the
normalized adjacency (dense array or sparse operator) and dropout is
active only for a keep probability below 1. The features X are a CSR
matrix, and the input dropout scales only its stored entries: a zero
stays zero whether it is dropped or kept, so one mask value per nonzero
is drawn, and the dropped input reuses the features' index arrays. The
hidden-layer mask is dense. Raw scores serve directly as
unary log-factors; no per-node normalization is applied. Backward
passes are exact for the activations cached by the forward call that
produced them, including its dropout masks.
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

    def copy(self):
        return GcnParams(self.w0.copy(), self.w1.copy())


@dataclass
class GcnCache:
    """Activations retained by forward() for an exact backward()."""
    norm_adj: object
    x0: object          # input after dropout (CSR in train mode)
    z1: np.ndarray      # pre-activation of the hidden layer
    h1d: np.ndarray     # hidden activation after dropout
    mask1: np.ndarray | None
    w0_ref: np.ndarray
    w1_ref: np.ndarray


def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(num_features, hidden, num_classes, seed: int) -> GcnParams:
    """Glorot-uniform weights drawn from the run seed's "gcn_init" stream."""
    rng = stream(seed, "gcn_init")
    return GcnParams(w0=_glorot(rng, num_features, hidden),
                     w1=_glorot(rng, hidden, num_classes))


def forward(params: GcnParams, features, norm_adj, dropout_keep=1.0, rng=None):
    """Run the backbone; returns (scores, cache).

    With dropout_keep < 1 an rng must be supplied; one input mask over the
    stored feature entries and one hidden mask are drawn, in that order.
    """
    if features.shape[1] != params.w0.shape[0]:
        raise StructuralInputError(
            f"features width {features.shape[1]} != w0 rows {params.w0.shape[0]}")
    x0 = features
    mask1 = None
    if dropout_keep < 1.0:
        if rng is None:
            raise StructuralInputError("dropout requires an rng stream")
        x = sp.csr_array(features)      # shares a CSR input's arrays
        x0 = sp.csr_array((x.data * dropout_mask(x.data.shape, dropout_keep, rng),
                           x.indices, x.indptr), shape=x.shape)
        mask1 = dropout_mask((features.shape[0], params.w0.shape[1]), dropout_keep, rng)
    z1 = norm_adj @ (x0 @ params.w0)
    h1 = np.maximum(z1, 0.0)
    h1d = h1 if mask1 is None else h1 * mask1
    scores = norm_adj @ (h1d @ params.w1)
    cache = GcnCache(norm_adj=norm_adj, x0=x0, z1=z1, h1d=h1d, mask1=mask1,
                     w0_ref=params.w0, w1_ref=params.w1)
    return scores, cache


def backward(params: GcnParams, cache: GcnCache, grad_scores):
    """Gradients of sum(grad_scores * scores) w.r.t. (w0, w1)."""
    if cache.w0_ref is not params.w0 or cache.w1_ref is not params.w1:
        raise StaleCacheError("forward cache does not match these parameters")
    a = cache.norm_adj
    ag = a @ grad_scores
    gw1 = cache.h1d.T @ ag
    gh1d = ag @ params.w1.T
    gh1 = gh1d if cache.mask1 is None else gh1d * cache.mask1
    gz1 = gh1 * (cache.z1 > 0.0)
    gw0 = cache.x0.T @ (a @ gz1)
    return gw0, gw1


def supervised_loss_and_grad(params, features, norm_adj, labels, train_ids,
                             rng=None, dropout_keep=1.0):
    """Mean cross-entropy over train_ids plus its exact weight gradients."""
    scores, cache = forward(params, features, norm_adj, dropout_keep=dropout_keep, rng=rng)
    train_ids = np.asarray(train_ids)
    probs = softmax_rows(scores[train_ids])
    picked = probs[np.arange(len(train_ids)), labels[train_ids]]
    # a label probability that underflows to 0 makes the reported loss inf;
    # the loss is only reported, and the gradient below stays finite
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(picked)))
    grad_scores = np.zeros_like(scores)
    grad_scores[train_ids] = probs / len(train_ids)
    grad_scores[train_ids, labels[train_ids]] -= 1.0 / len(train_ids)
    gw0, gw1 = backward(params, cache, grad_scores)
    return loss, gw0, gw1
