"""Pairwise label factors, star pieces, and the piecewise training objective.

Pairwise log-factors are ``alpha_e * K[y_j, y_k]`` with one shared
symmetric matrix K and (depending on mode) a per-edge, per-layer, or
fixed unit scale. K is stored as an unconstrained matrix and read as
its symmetric part, so any gradient step preserves symmetry exactly.

Each node induces one star piece (itself plus its neighbors). Factor
redistribution assigns every unary log-factor an exponent in each piece
containing its node, and every pairwise log-factor exponent 1/2 in its
two pieces; the exponents of one factor always sum to 1 across pieces,
so the summed redistributed pieces reproduce the global factor sum.

The piecewise objective for a table r of per-node label distributions is

    sum_i <r_i, s_i> + sum_{(j,k) in E} alpha_jk r_j^T K r_k
        - sum_i log Zbar_i

where log Zbar_i is the partition function of the redistributed star
piece at node i, computed in closed form by summing leaf nodes out
first. `_leaf_major_pieces` is the one star-piece inference: it runs
every piece at once, and `objective_and_gradients` reads its buffers
directly. `_piece_stats` presents the same buffers per piece: the piece
at node i is row i of its per-node outputs plus CSR slots
indptr[i]:indptr[i+1] of its per-slot outputs. The enumeration
references (`selfcheck.enumerate_piece` and the tests') are compared
against those rows. Per-slot tensors below index directed orientations:
slot d of a graph covers (center(d), leaf(d)). The one per-slot label
tensor is built leaf label first, as (c_leaf, 2E, c_center), so that
summing a leaf out reduces over the leading axis; the `pair_marg` that
`_piece_stats` returns is its (2E, c_center, c_leaf) view. Sums over
slots per node are products with the graph's cached slot incidence
matrices: `center_incidence` sums each piece's leaf messages, and
`leaf_incidence` sums each node's leaf marginals over the pieces it sits
on the rim of. The pair terms read r only at the edge ends, so
`objective_and_gradients` takes them pre-gathered (`endpoint_rows`) from
a caller that holds r fixed.

`objective_and_gradients` is the one implementation of this objective:
training, the self-checks and the tests all read its value and
gradients from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Graph

COEFFICIENT_MODES = ("edge", "layer", "none")
REDISTRIBUTION_SCHEMES = ("average", "center")


@dataclass
class PairwiseParams:
    raw: np.ndarray      # (c, c) unconstrained; K is its symmetric part
    alpha: np.ndarray    # (E,) for edge mode, (1,) for layer, (0,) for none
    mode: str = "edge"

    def __post_init__(self):
        if self.mode not in COEFFICIENT_MODES:
            raise ConfigError(f"unknown coefficient mode {self.mode!r}")
        expected = {"layer": 1, "none": 0}.get(self.mode)
        if expected is not None and self.alpha.shape != (expected,):
            raise ConfigError(f"{self.mode} mode stores {expected} alpha value(s), "
                              f"got shape {self.alpha.shape}")

    @property
    def num_classes(self) -> int:
        return self.raw.shape[0]

    @property
    def K(self) -> np.ndarray:
        return 0.5 * (self.raw + self.raw.T)

    def alpha_at(self, edge_ids) -> np.ndarray:
        """Per-edge scale for the given dense edge ids."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if self.mode == "edge":
            return self.alpha[edge_ids]
        if self.mode == "layer":
            return np.full(edge_ids.shape, self.alpha[0])
        return np.ones(edge_ids.shape)

    def copy(self):
        return PairwiseParams(self.raw.copy(), self.alpha.copy(), self.mode)

    @classmethod
    def init(cls, num_classes, num_edges, mode="edge", alpha_init=1.0):
        if mode == "edge":
            alpha = np.full(num_edges, float(alpha_init))
        elif mode == "layer":
            alpha = np.array([float(alpha_init)])
        elif mode == "none":
            alpha = np.zeros(0)
        else:
            raise ConfigError(f"unknown coefficient mode {mode!r}")
        return cls(raw=np.zeros((num_classes, num_classes)), alpha=alpha, mode=mode)


@dataclass
class Redistribution:
    """Unary factor exponents per piece; pairwise exponent is a constant.

    A node's exponent depends only on the node and on whether it sits at a
    piece's center or on its rim, so two vectors cover every (node, piece)
    pair. build-time validation checks the partition of unity
    center_exp[i] + d(i) * leaf_exp[i] == 1.
    """

    center_exp: np.ndarray
    leaf_exp: np.ndarray
    pair_exp: float = 0.5

    @classmethod
    def for_graph(cls, g: Graph, scheme: str):
        if scheme == "average":
            u = 1.0 / (g.degrees + 1.0)
            redist = cls(center_exp=u, leaf_exp=u.copy())
        elif scheme == "center":
            redist = cls(center_exp=np.ones(g.num_nodes), leaf_exp=np.zeros(g.num_nodes))
        else:
            raise ConfigError(f"unknown redistribution scheme {scheme!r}")
        unity = redist.center_exp + g.degrees * redist.leaf_exp
        assert np.allclose(unity, 1.0)
        return redist


def _leaf_major_pieces(g: Graph, scores, pp, redist):
    """Batched star inference over all pieces, in the leaf-major layout.

    Returns (log_z, mu_center, t, rim). t[b, d, a] is the joint marginal
    of leaf label b and center label a on slot d under the piece of
    center(d), and rim[b, d] = (sum_a t[b, d, a], sum_a t[b, d, a] K[b, a]).
    """
    centers = g.slot_centers
    leaves = g.indices
    c = pp.num_classes
    k = pp.K
    # t[b, d, a] = leaf_exp * s[leaf(d), b] + pair_exp * alpha_d * K[b, a] for leaf
    # label b, slot d and center label a (K is symmetric), built as one batched
    # rank-2 product: (c, 2E, 2) @ (c, 2, c)
    unary = np.take(scores.T * redist.leaf_exp, leaves, axis=1)
    pair = np.broadcast_to(redist.pair_exp * pp.alpha_at(g.slot_edge_ids), unary.shape)
    t = np.stack([unary, pair], axis=2) @ np.stack([np.ones((c, c)), k], axis=1)
    hi = t.max(axis=0)
    t -= hi
    np.exp(t, out=t)
    mass = t.sum(axis=0)                                   # (2E, c), each >= 1
    msgs = hi + np.log(mass)

    b = redist.center_exp[:, None] * scores + g.center_incidence @ msgs
    b_hi = b.max(axis=1)
    log_z = b_hi + np.log(np.exp(b - b_hi[:, None]).sum(axis=1))
    mu_center = np.exp(b - log_z[:, None])

    # exp(b[centers] - msgs + hi - log_z[centers]) == mu_center[centers] / mass <= 1
    t *= np.take(mu_center, centers, axis=0) / mass
    rim = t @ np.stack([np.ones((c, c)), k], axis=2)
    return log_z, mu_center, t, rim


def _piece_stats(g: Graph, scores, pp, redist):
    """Batched star inference over all pieces.

    Returns (log_z, mu_center, pair_marg, leaf_marg). pair_marg[d] is the
    joint (center label, leaf label) marginal of directed slot d's piece
    edge and leaf_marg[d] the corresponding leaf marginal, both under the
    piece of center(d). Both are views of `_leaf_major_pieces`' buffers.
    """
    log_z, mu_center, t, rim = _leaf_major_pieces(g, scores, pp, redist)
    return log_z, mu_center, t.transpose(1, 2, 0), rim[:, :, 0].T


def endpoint_rows(r, g: Graph):
    """(r[j], r[k]): the rows of r at both ends of every stored edge (j, k)."""
    return r[g.edges[:, 0]], r[g.edges[:, 1]]


def objective_and_gradients(r, scores, pp, redist, g: Graph, r_ends=None):
    """Objective value plus exact gradients in one shared inference pass.

    Gradients are w.r.t. scores, the unconstrained K storage, and the
    alpha parameter vector (None in no-coefficient mode). `r_ends` is
    `endpoint_rows(r, g)`; a caller that holds r fixed over many calls
    passes it in, and it is gathered here when omitted.
    """
    log_z, mu_center, t, rim = _leaf_major_pieces(g, scores, pp, redist)
    if r_ends is None:
        r_ends = endpoint_rows(r, g)
    r_j, r_k = r_ends
    alphas_e = pp.alpha_at(np.arange(g.num_edges))
    alphas_d = pp.alpha_at(g.slot_edge_ids)
    pair_dots = np.einsum("ec,ec->e", r_j @ pp.K, r_k)     # <r_j, K r_k>
    value = float((r * scores).sum() + (alphas_e * pair_dots).sum() - log_z.sum())

    # leaf contribution: the pieces where node i sits on the rim are those
    # of the slots whose leaf is i
    grad_scores = (r - redist.center_exp[:, None] * mu_center
                   - redist.leaf_exp[:, None] * (g.leaf_incidence @ rim[:, :, 0].T))

    g_k = (r_j * alphas_e[:, None]).T @ r_k
    g_k -= redist.pair_exp * (alphas_d @ t).T              # t is leaf-major
    grad_raw = 0.5 * (g_k + g_k.T)

    grad_alpha = None
    if pp.mode != "none":
        dots = rim[:, :, 1].sum(axis=0)                    # <pair_marg[d], K>
        per_edge = pair_dots - redist.pair_exp * np.bincount(
            g.slot_edge_ids, weights=dots, minlength=g.num_edges)
        grad_alpha = per_edge if pp.mode == "edge" else np.array([per_edge.sum()])

    return value, grad_scores, grad_raw, grad_alpha


def diagnose_non_finite(g: Graph, scores, pp, redist):
    """Return the first node whose piece partition is non-finite, or None."""
    if not np.isfinite(scores).all():
        return int(np.flatnonzero(~np.isfinite(scores).all(axis=1))[0])
    log_z, _, _, _ = _leaf_major_pieces(g, scores, pp, redist)
    bad = np.flatnonzero(~np.isfinite(log_z))
    return int(bad[0]) if len(bad) else None
