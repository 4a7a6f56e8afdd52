"""EM training loop: warm start, mean-field E-step, piecewise M-step.

The E-step updates one unlabeled node at a time, in ascending node
order, against the original (un-redistributed) factors:

    log q_i(y) <- s_i(y) + sum_{j in N(i) labeled} a_ij K[y, y_j]
                         + sum_{k in N(i) unlabeled} a_ik (K q_k)[y]

That ascending Gauss-Seidel order is run by dependency level, as level
scheduling runs a sparse triangular solve: a node's level is one more
than the highest level among its lower-numbered unlabeled neighbours,
and one vectorized update per level reproduces the node-by-node sweep.
The unlabeled rows are renumbered level by level for the E-step, so a
level is one contiguous slice of the table, and each level's logits are
computed class-major, (c, L), so that max, sum and TV reduce down axis 0
rather than along the short class axis. A numbering that chains the
unlabeled nodes (a path numbered end to end) puts every node on its own
level, where this is slower than a per-node loop.

The M-step fixes q and runs full-batch Adam ascent on the expected
piecewise objective, updating the backbone weights together with K and
alpha. Each EM round is one M-step on q, then one E-step on the new
scores; the round is validated once, on the argmax of that E-step's q.
The warm start's softmax(scores) is the first q: with K still zero an
E-step would return it unchanged. Labeled nodes stay clamped throughout;
model selection keeps the checkpoint (parameters, and the validated q of
a round) with the best validation accuracy of any warm epoch or round.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import gcn
from .data import Dataset, Split
from .errors import (ConfigError, DegenerateInputError, NonFiniteObjectiveError,
                     StructuralInputError)
from .factors import (PairwiseParams, Redistribution, diagnose_non_finite, endpoint_rows,
                      objective_and_gradients, COEFFICIENT_MODES, REDISTRIBUTION_SCHEMES)
from .graph import Graph, normalized_adjacency_operator
from .numerics import AdamState, adam_step, softmax_rows, stream

_ROW_SUM_TOL = 1e-12
FINAL_E_SWEEPS = 50   # least sweep cap of the E-step that predictions are read from


@dataclass
class Proposal:
    """Mean-field distribution over the unlabeled nodes, one row each."""

    node_ids: np.ndarray   # sorted unlabeled node ids
    q: np.ndarray          # (len(node_ids), c)
    num_nodes: int

    def __post_init__(self):
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        if self.q.shape[0] != len(self.node_ids):
            raise ConfigError("proposal table and node ids disagree")
        if self.q.size:
            # row sums as one matrix-vector product: numpy's sum over a short
            # last axis is several times slower; a nan or inf entry makes its
            # row sum non-finite, where the comparisons below would pass it
            row_sums = self.q @ np.ones(self.q.shape[1])
            if not np.isfinite(row_sums).all():
                raise DegenerateInputError("proposal rows must be finite")
            if self.q.min() < 0:
                raise ConfigError("proposal rows must be non-negative")
            if np.abs(row_sums - 1.0).max() > _ROW_SUM_TOL:
                raise ConfigError("proposal rows must sum to 1")

    def position(self, node) -> int:
        """Row of `node` in the table; a labeled node has none."""
        pos = int(np.searchsorted(self.node_ids, node))
        if pos == len(self.node_ids) or self.node_ids[pos] != node:
            raise ConfigError(f"node {node} has no row in the proposal")
        return pos

    def copy(self):
        return Proposal(self.node_ids.copy(), self.q.copy(), self.num_nodes)

    @classmethod
    def from_scores(cls, scores, unlabeled_ids, num_nodes):
        unlabeled_ids = np.sort(np.asarray(unlabeled_ids, dtype=np.int64))
        return cls(unlabeled_ids, softmax_rows(scores[unlabeled_ids]), num_nodes)


@dataclass
class TrainConfig:
    seed: int = 0
    hidden: int = 16
    dropout_keep: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4
    warm_epochs: int = 200
    patience: int = 50
    em_rounds: int = 5
    e_sweeps: int = 10
    e_tolerance: float = 1e-4
    m_epochs: int = 50
    redistribution: str = "average"
    coefficient_mode: str = "edge"
    alpha_init: float = 1.0

    def __post_init__(self):
        for name in ("lr", "weight_decay", "e_tolerance", "alpha_init"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.hidden < 1 or self.warm_epochs < 0 or self.em_rounds < 0:
            raise ConfigError("hidden must be >= 1 and epoch/round counts >= 0")
        if self.e_sweeps < 1 or self.m_epochs < 1 or self.patience < 1:
            raise ConfigError("e_sweeps, m_epochs and patience must be positive")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ConfigError(f"dropout_keep must be in (0, 1], got {self.dropout_keep}")
        if self.lr <= 0 or self.e_tolerance <= 0 or self.weight_decay < 0:
            raise ConfigError("lr and e_tolerance must be positive, weight_decay >= 0")
        if self.redistribution not in REDISTRIBUTION_SCHEMES:
            raise ConfigError(f"unknown redistribution scheme {self.redistribution!r}")
        if self.coefficient_mode not in COEFFICIENT_MODES:
            raise ConfigError(f"unknown coefficient mode {self.coefficient_mode!r}")


@dataclass
class TrainReport:
    records: list = field(default_factory=list)   # (phase, step, metric, value)
    best_phase: str = ""
    test_accuracy: float = float("nan")

    def add(self, phase, step, metric, value):
        self.records.append((phase, int(step), metric, float(value)))

    def trace(self, phase, metric):
        return [v for p, _, m, v in self.records if p == phase and m == metric]

    def to_text(self) -> str:
        lines = ["# mrfgcn train report",
                 f"# best_phase {self.best_phase}",
                 f"# test_accuracy {self.test_accuracy!r}"]
        lines += [f"{p}\t{s}\t{m}\t{v!r}" for p, s, m, v in self.records]
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


@dataclass
class TrainResult:
    params: gcn.GcnParams
    pairwise: PairwiseParams
    proposal: Proposal
    report: TrainReport


def make_r(q: Proposal, labels, train_ids, num_classes) -> np.ndarray:
    """Full per-node label distribution table: point masses on labeled rows."""
    r = np.zeros((q.num_nodes, num_classes))
    train_ids = np.asarray(train_ids, dtype=np.int64)
    r[train_ids, labels[train_ids]] = 1.0
    r[q.node_ids] = q.q
    return r


def _labeled_mask(num_nodes, train_ids):
    mask = np.zeros(num_nodes, dtype=bool)
    mask[np.asarray(train_ids, dtype=np.int64)] = True
    return mask


def mean_field_site_update(q: Proposal, node, scores, pp: PairwiseParams,
                           g: Graph, labels, train_ids) -> Proposal:
    """Closed-form update of one proposal row; reference implementation."""
    labeled = _labeled_mask(g.num_nodes, train_ids)
    if labeled[node]:
        raise ConfigError(f"node {node} is labeled and cannot be updated")
    k = pp.K
    lo, hi = g.indptr[node], g.indptr[node + 1]
    logits = scores[node].astype(np.float64).copy()
    for leaf, eid in zip(g.indices[lo:hi], g.slot_edge_ids[lo:hi]):
        a = pp.alpha_at(np.array([eid]))[0]
        if labeled[leaf]:
            logits += a * k[:, labels[leaf]]
        else:
            logits += a * (k @ q.q[q.position(leaf)])
    out = q.copy()
    shifted = np.exp(logits - logits.max())
    out.q[q.position(node)] = shifted / shifted.sum()
    return out


def _dependency_levels(coupling) -> np.ndarray:
    """Wavefront level of each row of a symmetric unlabeled coupling matrix.

    A row's level is 0 when it has no lower-numbered neighbour, else one
    more than the highest level among its lower-numbered neighbours. The
    levels come from Kahn-style waves over the lower -> higher edges.
    """
    m = coupling.shape[0]
    src = np.repeat(np.arange(m, dtype=np.int64), np.diff(coupling.indptr))
    up = coupling.indices > src
    src, dst = src[up], coupling.indices[up].astype(np.int64)
    up_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=m), out=up_indptr[1:])
    pending = np.bincount(dst, minlength=m)      # lower neighbours not yet placed
    level = np.zeros(m, dtype=np.int64)
    frontier, depth = np.flatnonzero(pending == 0), 0
    while frontier.size:
        level[frontier] = depth
        starts = up_indptr[frontier]
        lengths = up_indptr[frontier + 1] - starts
        offsets = np.cumsum(lengths) - lengths
        slots = np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())
        targets, hits = np.unique(dst[slots], return_counts=True)
        pending[targets] -= hits
        frontier, depth = targets[pending[targets] == 0], depth + 1
    return level


def _e_step_stats(q: Proposal, scores, pp: PairwiseParams, g: Graph, labels,
                  train_ids, sweeps, tolerance):
    """Sequential sweeps in ascending node order; returns (q, sweeps_run, tv).

    Each sweep runs one dependency level at a time. No two nodes on a level
    are adjacent, and every lower-numbered neighbour sits on a lower level,
    so a level reads this sweep's values below it and last sweep's values
    above it, exactly as the one-node-at-a-time ascending sweep does.

    Within the call the rows are renumbered level by level (ascending within
    a level) and the renumbering is undone on return. Up to 7 classes the
    result is bit-identical to row-major (L, c) logits; from 8 on numpy sums
    a row pairwise, so the class-major sums differ in the last bits.

    Both the fixed labeled-neighbour term and the unlabeled coupling are
    slices of one alpha-weighted adjacency, one row per unlabeled node.
    """
    k, c = pp.K, scores.shape[1]
    train_ids = np.asarray(train_ids, dtype=np.int64)
    train_labels = labels[train_ids]
    if train_labels.size and train_labels.max() >= c:
        raise StructuralInputError(
            f"labeled node has class {train_labels.max()} but the scores have {c} classes")
    if k.shape != (c, c):
        raise StructuralInputError(
            f"pairwise K has shape {k.shape} but the scores have {c} classes")
    if pp.mode == "edge" and len(pp.alpha) != g.num_edges:
        raise StructuralInputError(
            f"pairwise parameters hold {len(pp.alpha)} edge coefficients "
            f"but the graph has {g.num_edges} edges")
    m = len(q.node_ids)
    if m == 0:
        return q.copy(), 0, 0.0
    weights = sp.csr_array((pp.alpha_at(g.slot_edge_ids), g.indices, g.indptr),
                           shape=(g.num_nodes, g.num_nodes))
    rows = weights[q.node_ids]
    # contributions from labeled neighbors never change during the E-step
    base = scores[q.node_ids] + rows[:, train_ids] @ k[train_labels]
    # unlabeled-to-unlabeled coupling, one CSR row per unlabeled node
    coupling = rows[:, q.node_ids]

    # new row i is old row order[i]; the stored entries keep their order, so
    # every row sums its neighbours in the same order as before
    level = _dependency_levels(coupling)
    order = np.argsort(level, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    permuted = coupling[order]
    permuted = sp.csr_array((permuted.data, rank[permuted.indices], permuted.indptr),
                            shape=(m, m))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(level))])
    blocks = [(lo, hi, permuted[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    # class-major logits: every reduction over the classes runs along axis 0
    base_t = np.ascontiguousarray(base[order].T)
    table = q.q[order]
    sweeps_run, max_tv = 0, 0.0
    for _ in range(sweeps):
        max_tv = 0.0
        for lo, hi, block in blocks:
            new = k @ (block @ table).T
            new += base_t[:, lo:hi]
            new -= new.max(axis=0)
            np.exp(new, out=new)
            new /= new.sum(axis=0)
            prev = table[lo:hi].T
            max_tv = max(max_tv, float(0.5 * np.abs(new - prev).sum(axis=0).max()))
            prev[...] = new
        sweeps_run += 1
        if max_tv < tolerance:
            break
    out = np.empty_like(table)
    out[order] = table
    return Proposal(q.node_ids.copy(), out, q.num_nodes), sweeps_run, max_tv


def m_step(params: gcn.GcnParams, pp: PairwiseParams, q: Proposal, features,
           norm_adj, g: Graph, redist: Redistribution, labels, train_ids,
           config: TrainConfig, rng_dropout):
    """Full-batch Adam ascent on the expected piecewise objective.

    Returns (params, pp, objective_trace); q stays fixed, so r and its rows
    at the edge ends are built once. Fresh optimizer state is used for each
    M-step.
    """
    r = make_r(q, labels, train_ids, pp.num_classes)
    r_ends = endpoint_rows(r, g)
    st_w0 = AdamState.for_param(params.w0, lr=config.lr, weight_decay=config.weight_decay)
    st_w1 = AdamState.for_param(params.w1, lr=config.lr)
    st_raw = AdamState.for_param(pp.raw, lr=config.lr)
    st_alpha = AdamState.for_param(pp.alpha, lr=config.lr) if pp.mode != "none" else None

    trace = []
    for _ in range(config.m_epochs):
        scores, cache = gcn.forward(params, features, norm_adj,
                                    dropout_keep=config.dropout_keep, rng=rng_dropout)
        value, grad_scores, grad_raw, grad_alpha = objective_and_gradients(
            r, scores, pp, redist, g, r_ends)
        if not np.isfinite(value):
            node = diagnose_non_finite(g, scores, pp, redist)
            raise NonFiniteObjectiveError(
                f"piecewise objective became non-finite (piece at node {node})")
        gw0, gw1 = gcn.backward(params, cache, grad_scores)
        params = gcn.GcnParams(adam_step(params.w0, -gw0, st_w0),
                               adam_step(params.w1, -gw1, st_w1))
        new_alpha = pp.alpha if st_alpha is None else adam_step(pp.alpha, -grad_alpha, st_alpha)
        pp = PairwiseParams(adam_step(pp.raw, -grad_raw, st_raw), new_alpha, pp.mode)
        trace.append(value)
    return params, pp, trace


def predict(scores, pp: PairwiseParams, q: Proposal, g: Graph, labels, train_ids,
            sweeps=FINAL_E_SWEEPS, tolerance=1e-4) -> np.ndarray:
    """Converge the proposal under fixed factors, then take per-node argmax.

    Labeled nodes report their own label.
    """
    q, _, _ = _e_step_stats(q, scores, pp, g, labels, train_ids, sweeps, tolerance)
    return _argmax_predictions(q, labels, train_ids)


def _argmax_predictions(q: Proposal, labels, train_ids) -> np.ndarray:
    """Per-node argmax of the proposal, with labeled nodes clamped to their label."""
    out = np.empty(q.num_nodes, dtype=np.int64)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    out[train_ids] = labels[train_ids]
    out[q.node_ids] = np.argmax(q.q, axis=1)
    return out


def evaluate(predictions, labels, node_set) -> float:
    node_set = np.asarray(node_set, dtype=np.int64)
    if len(node_set) == 0:
        raise DegenerateInputError("cannot evaluate accuracy over an empty node set")
    return float(np.mean(predictions[node_set] == labels[node_set]))


@dataclass
class _Checkpoint:
    val_accuracy: float
    phase: str
    params: gcn.GcnParams
    pairwise: PairwiseParams
    proposal: Proposal | None


def train(ds: Dataset, split: Split, config: TrainConfig) -> TrainResult:
    """Warm start, then alternate E- and M-steps; return the best checkpoint."""
    g = ds.graph
    labels, train_ids = ds.labels, split.train
    if len(train_ids) == 0:
        raise ConfigError("the train split is empty")
    norm_adj = normalized_adjacency_operator(g)
    features = ds.features
    unlabeled = np.setdiff1d(np.arange(g.num_nodes), train_ids)

    rng_drop = stream(config.seed, "dropout")
    params = gcn.init_params(ds.num_features, config.hidden, ds.num_classes, config.seed)
    pp = PairwiseParams.init(ds.num_classes, g.num_edges,
                             mode=config.coefficient_mode, alpha_init=config.alpha_init)
    redist = Redistribution.for_graph(g, config.redistribution)
    report = TrainReport()

    def eval_scores(p):
        s, _ = gcn.forward(p, features, norm_adj)
        return s

    def val_accuracy_of(predictions):
        if len(split.val) == 0:
            return float("nan")
        return evaluate(predictions, labels, split.val)

    best: _Checkpoint | None = None
    use_selection = len(split.val) > 0

    def consider(acc, phase, p, pw, q):
        # with no validation nodes there is nothing to select on; keep the
        # final state instead of a checkpoint
        nonlocal best
        if not use_selection:
            return True
        if best is None or acc > best.val_accuracy:
            best = _Checkpoint(acc, phase, p.copy(), pw.copy(),
                               None if q is None else q.copy())
            return True
        return False

    # ---- warm start: supervised training of the backbone on the train set
    st_w0 = AdamState.for_param(params.w0, lr=config.lr, weight_decay=config.weight_decay)
    st_w1 = AdamState.for_param(params.w1, lr=config.lr)
    epochs_since_best = 0
    for epoch in range(config.warm_epochs):
        loss, gw0, gw1 = gcn.supervised_loss_and_grad(
            params, features, norm_adj, labels, train_ids,
            rng=rng_drop, dropout_keep=config.dropout_keep)
        params = gcn.GcnParams(adam_step(params.w0, gw0, st_w0),
                               adam_step(params.w1, gw1, st_w1))
        scores = eval_scores(params)
        acc = val_accuracy_of(np.argmax(scores, axis=1))
        report.add("warm", epoch, "supervised_loss", loss)
        report.add("warm", epoch, "val_accuracy", acc)
        if consider(acc, f"warm:{epoch}", params, pp, None):
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    scores = eval_scores(params)
    q = Proposal.from_scores(scores, unlabeled, g.num_nodes)

    # ---- EM rounds
    for rnd in range(1, config.em_rounds + 1):
        params, pp, trace = m_step(params, pp, q, features, norm_adj, g, redist,
                                   labels, train_ids, config, rng_drop)
        scores = eval_scores(params)
        q, sweeps_run, final_tv = _e_step_stats(q, scores, pp, g, labels, train_ids,
                                                config.e_sweeps, config.e_tolerance)
        acc = val_accuracy_of(_argmax_predictions(q, labels, train_ids))
        phase = f"round{rnd}"
        for step, value in enumerate(trace):
            report.add(phase, step, "objective", value)
        report.add(phase, 0, "sweeps_run", sweeps_run)
        report.add(phase, 0, "final_tv", final_tv)
        report.add(phase, 0, "val_accuracy", acc)
        consider(acc, phase, params, pp, q)

    # ---- restore the selected checkpoint and make final predictions; with
    # none selected, scores and q already belong to the final parameters
    if best is not None:
        params, pp = best.params, best.pairwise
        scores = eval_scores(params)
        q = best.proposal if best.proposal is not None else \
            Proposal.from_scores(scores, unlabeled, g.num_nodes)

    q, sweeps_run, final_tv = _e_step_stats(q, scores, pp, g, labels, train_ids,
                                            max(FINAL_E_SWEEPS, config.e_sweeps),
                                            config.e_tolerance)
    predictions = _argmax_predictions(q, labels, train_ids)
    report.best_phase = best.phase if best is not None else "last"
    report.add("final", 0, "sweeps_run", sweeps_run)
    report.add("final", 0, "final_tv", final_tv)
    if len(split.val):
        report.add("final", 0, "val_accuracy", evaluate(predictions, labels, split.val))
    if len(split.test):
        report.test_accuracy = evaluate(predictions, labels, split.test)
        report.add("final", 0, "test_accuracy", report.test_accuracy)
    return TrainResult(params=params, pairwise=pp, proposal=q, report=report)
