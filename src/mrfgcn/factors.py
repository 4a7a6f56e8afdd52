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
first. `_leaf_major_pieces` is the one star-piece inference. It runs
the pieces of one block: a run of consecutive centers in CSR order,
whose slots are consecutive too (a `SlotBlock`). Per-slot tensors
below index directed orientations: slot d of a graph covers
(center(d), leaf(d)). A block's per-slot label tensor is built leaf
label first, as (c_leaf, m, c_center) over its m slots, so that summing
a leaf out reduces over the leading axis; its transpose(1, 2, 0) holds
each slot's (center label, leaf label) marginal. The piece at node i is
row i of the per-node outputs plus its slots in its block's per-slot
outputs. The reference they are checked against is
`selfcheck.oracle_star_piece`, which solves one piece as a small graph
of its own with the exact oracle.

`star_blocks` is the one walk over the pieces, and
`objective_and_gradients` and `selfcheck.blocked_piece` its consumers.
It walks the blocks of a workspace (`PieceBuffers`), which cuts the
graph into blocks of at most `SLOT_CLASS_BUDGET` slot-class pairs
(m * c**2), 1 MB per float64 tensor, unless one piece alone holds more;
a piece is never split. It cuts the blocks and builds the slot
incidences once, when it is built. Once per walk it writes the
class-major leaf term, PAIR_EXP * alpha per slot and the stacked
[1, K] operands into the workspace, and every block slices them and
overwrites the workspace's one operand and slot-label tensor.
`training.m_step` builds one workspace per M-step and passes it to all
of its epochs' calls, and the gradient self-check one per instance;
the piece self-check and the tests build one per walk. The objective's
memory is these block-sized tensors plus O(n * c + 2E * c) of per-node
rows, per-slot leaf marginals and <t, K> dots; it never holds the
whole (c, 2E, c) tensor. The K gradient adds the blocks' pair-marginal
sums in block order, so results are deterministic. Sums over slots per
node are products with slot incidence matrices: a block's incidence
sums each piece's leaf messages, and the workspace's `leaf_incidence`
sums each node's leaf marginals over the pieces it sits on the rim of.
The pair terms read r only at the edge ends, so
`objective_and_gradients` takes them pre-gathered (`endpoint_rows`)
from a caller that holds r fixed.

`objective_and_gradients` is the one implementation of this objective:
training, the self-checks and the tests all read its value and
gradients from it, and it names the first non-finite piece or gradient
itself.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NonFiniteObjectiveError
from .graph import Graph

COEFFICIENT_MODES = ("edge", "layer", "none")
REDISTRIBUTION_SCHEMES = ("average", "center")
# every edge sits in the two pieces of its ends, at exponent 1/2 in each
PAIR_EXP = 0.5


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
    """Unary factor exponents per piece; the pairwise exponent is PAIR_EXP.

    A node's exponent depends only on the node and on whether it sits at a
    piece's center or on its rim, so two vectors cover every (node, piece)
    pair. build-time validation checks the partition of unity
    center_exp[i] + d(i) * leaf_exp[i] == 1.
    """

    center_exp: np.ndarray
    leaf_exp: np.ndarray

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


# slot-class pairs per block: each block's (c, m, c) tensor takes at most 1 MB
SLOT_CLASS_BUDGET = 1 << 17


class SlotBlock(NamedTuple):
    """A run of consecutive centers and their CSR slots, which are consecutive too."""
    nodes: slice             # centers lo:hi
    slots: slice             # indptr[lo]:indptr[hi]
    incidence: sp.csr_array  # (hi - lo, slots) 0/1; row i - lo holds the slots centered at i


def _slot_block(g: Graph, lo, hi) -> SlotBlock:
    start, stop = int(g.indptr[lo]), int(g.indptr[hi])
    incidence = sp.csr_array(
        (np.ones(stop - start), np.arange(stop - start), g.indptr[lo:hi + 1] - start),
        shape=(hi - lo, stop - start))
    return SlotBlock(slice(lo, hi), slice(start, stop), incidence)


class PieceBuffers:
    """The workspace of star inference over one graph and class count.

    `blocks` cuts the nodes into runs of consecutive centers of at most
    `max_slots` slots each, by default SLOT_CLASS_BUDGET // c² read when
    the workspace is built; a piece is never split, so a node with more
    than `max_slots` neighbors is a block of its own, and a graph without
    nodes is one empty block. `leaf_incidence` is the (n, 2E) 0/1 matrix
    whose row i holds the slots whose leaf is i. A stable sort by leaf
    lists each row's slots in ascending order, which is also the order of
    their reverses among the slots centered at i: both follow the id of
    the slot's other end. Each walk of `star_blocks` writes its inputs here: the class-major
    leaf term leaf_exp * s (c, n), PAIR_EXP * alpha per slot (2E,) and
    the stacked [1, K] operands. Its blocks write every piece's rows,
    log_z (n,) and mu_center (n, c), and every slot's leaf marginal
    leaf_marg (2E, c) and <t, K> dot (2E,), and each overwrites the
    slot-label tensor (c, m, c) and the (c, m, 2) operand it is built
    from, which then holds rim, with m the largest block's slot count.
    Nothing carries from one walk to the next, so a caller that holds
    the graph and c fixed builds one workspace for all of its walks.
    """

    def __init__(self, g: Graph, num_classes, max_slots=None):
        c, n, slots = num_classes, g.num_nodes, len(g.indices)
        if max_slots is None:
            max_slots = max(SLOT_CLASS_BUDGET // c ** 2, 1)
        bounds = [0]
        while bounds[-1] < n:
            lo = bounds[-1]
            hi = np.searchsorted(g.indptr, g.indptr[lo] + max_slots, side="right") - 1
            bounds.append(max(int(hi), lo + 1))
        # a graph without nodes leaves bounds == [0], which pairs as (0, 0)
        self.blocks = tuple(_slot_block(g, lo, hi) for lo, hi in zip(bounds, bounds[1:] or [0]))
        self.leaf_incidence = sp.csr_array(
            (np.ones(slots), np.argsort(g.indices, kind="stable"), g.indptr), shape=(n, slots))
        m = max(b.slots.stop - b.slots.start for b in self.blocks)
        self.log_z, self.mu_center = np.empty(n), np.empty((n, c))
        self.leaf_marg, self.dots = np.empty((slots, c)), np.empty(slots)
        self.operand, self.tensor = np.empty((c, m, 2)), np.empty((c, m, c))
        self.leaf_term, self.pair = np.empty((c, n)), np.empty(slots)
        self.build, self.read = np.ones((c, 2, c)), np.ones((c, c, 2))


def star_blocks(g: Graph, scores, pp, redist, out: PieceBuffers):
    """Infer every piece of `g` in the blocks of the workspace `out`, in CSR order.

    Yields (block, block's `_leaf_major_pieces`) per block; `out` holds
    every piece's rows once the walk ends. A piece with more slots than
    a block holds is a block of its own.
    """
    np.multiply(scores.T, redist.leaf_exp, out=out.leaf_term)
    np.multiply(PAIR_EXP, pp.alpha_at(g.slot_edge_ids), out=out.pair)
    out.build[:, 1] = out.read[:, :, 1] = pp.K
    for block in out.blocks:
        yield block, _leaf_major_pieces(g, scores, redist, block, out)


def _leaf_major_pieces(g: Graph, scores, redist, block, out):
    """Batched star inference over the pieces of one block, in the leaf-major layout.

    `block` is a `SlotBlock` of `out`, the `PieceBuffers` of `g` whose
    walk inputs `star_blocks` has written. Returns (log_z, mu_center, t,
    rim) over the block: views of `out`'s rows for its centers, and of
    its scratch, which the next block overwrites. t[b, d, a] is the joint
    marginal of leaf label b and center label a on the block's slot d
    (slot indptr[lo] + d of the graph) under the piece of center(d), and
    rim[b, d] = (sum_a t[b, d, a], sum_a t[b, d, a] K[b, a]). The block's
    slots of `out.leaf_marg` and `out.dots` get rim[:, d, 0] and
    sum_b rim[b, d, 1].
    """
    nodes, slots = block.nodes, block.slots
    m = slots.stop - slots.start
    # t[b, d, a] = leaf_exp * s[leaf(d), b] + PAIR_EXP * alpha_d * K[b, a] for leaf
    # label b, slot d and center label a (K is symmetric), built as one batched
    # rank-2 product: (c, m, 2) @ (c, 2, c)
    operand = out.operand[:, :m]
    np.take(out.leaf_term, g.indices[slots], axis=1, out=operand[:, :, 0])
    operand[:, :, 1] = out.pair[slots]
    t = np.matmul(operand, out.build, out=out.tensor[:, :m])
    hi = t.max(axis=0)
    t -= hi
    np.exp(t, out=t)
    mass = t.sum(axis=0)                                   # (m, c), each >= 1
    msgs = hi + np.log(mass)

    b = redist.center_exp[nodes, None] * scores[nodes] + block.incidence @ msgs
    b_hi = b.max(axis=1)
    log_z = out.log_z[nodes]
    log_z[:] = b_hi + np.log(np.exp(b - b_hi[:, None]).sum(axis=1))
    mu_center = np.exp(b - log_z[:, None], out=out.mu_center[nodes])

    # exp(b[centers] - msgs + hi - log_z[centers]) == mu_center[centers] / mass <= 1
    t *= np.take(out.mu_center, g.slot_centers[slots], axis=0) / mass
    rim = np.matmul(t, out.read, out=operand)
    out.leaf_marg[slots] = rim[:, :, 0].T
    out.dots[slots] = rim[:, :, 1].sum(axis=0)
    return log_z, mu_center, t, rim


def endpoint_rows(r, g: Graph):
    """(r[j], r[k]): the rows of r at both ends of every stored edge (j, k)."""
    return r[g.edges[:, 0]], r[g.edges[:, 1]]


@np.errstate(over="ignore", invalid="ignore")
def objective_and_gradients(r, scores, pp, redist, g: Graph, r_ends=None, workspace=None):
    """Objective value plus exact gradients in one shared inference pass.

    Gradients are w.r.t. scores, the unconstrained K storage, and the
    alpha parameter vector (empty in no-coefficient mode). `r_ends` is
    `endpoint_rows(r, g)` and `workspace` a `PieceBuffers(g, c)`; a caller
    that holds r fixed over many calls passes both in, and each is built
    here when omitted. Nothing non-finite leaves the call: overflow and
    invalid operations run silently, and a non-finite value or gradient
    then raises `NonFiniteObjectiveError` naming the first non-finite
    score row, else the first non-finite piece log partition, else (for
    a non-finite value) None, else the gradient at fault.
    """
    c = pp.num_classes
    out = workspace or PieceBuffers(g, c)
    pair_sum = np.zeros((c, c))                            # sum_d PAIR_EXP alpha_d t[:, d, :]
    for block, (_, _, t, _) in star_blocks(g, scores, pp, redist, out):
        pair_sum += out.pair[block.slots] @ t              # t is leaf-major
    if r_ends is None:
        r_ends = endpoint_rows(r, g)
    r_j, r_k = r_ends
    alphas_e = pp.alpha_at(np.arange(g.num_edges))
    pair_dots = np.einsum("ec,ec->e", r_j @ pp.K, r_k)     # <r_j, K r_k>
    value = float((r * scores).sum() + (alphas_e * pair_dots).sum() - out.log_z.sum())

    # leaf contribution: the pieces where node i sits on the rim are those
    # of the slots whose leaf is i
    grad_scores = (r - redist.center_exp[:, None] * out.mu_center
                   - redist.leaf_exp[:, None] * (out.leaf_incidence @ out.leaf_marg))

    g_k = (r_j * alphas_e[:, None]).T @ r_k
    g_k -= pair_sum.T
    grad_raw = 0.5 * (g_k + g_k.T)

    grad_alpha = np.zeros(0)
    if pp.mode != "none":
        per_edge = pair_dots - PAIR_EXP * np.bincount(
            g.slot_edge_ids, weights=out.dots, minlength=g.num_edges)
        grad_alpha = per_edge if pp.mode == "edge" else np.array([per_edge.sum()])

    grads = {"scores": grad_scores, "K": grad_raw, "alpha": grad_alpha}
    bad_grad = [name for name, grad in grads.items() if not np.isfinite(grad).all()]
    if np.isfinite(value) and not bad_grad:
        return value, grad_scores, grad_raw, grad_alpha
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    bad = bad if len(bad) else np.flatnonzero(~np.isfinite(out.log_z))
    if len(bad) or not np.isfinite(value):
        at = f"piece at node {bad[0] if len(bad) else None}"
    else:
        at = f"{bad_grad[0]} gradient"
    raise NonFiniteObjectiveError(f"piecewise objective became non-finite ({at})")

