"""EM training loop: warm start, mean-field E-step, piecewise M-step.

The E-step updates one unlabeled node at a time, in ascending node
order, against the original (un-redistributed) factors. It sweeps r, the
table the M-step reads (`make_r`), whose labeled rows are clamped one-hot
rows, so a labeled neighbour enters as an unlabeled one does:

    log q_i(y) <- s_i(y) + sum_{k in N(i)} a_ik (K r_k)[y]

That ascending Gauss-Seidel order is run by dependency level, as level
scheduling runs a sparse triangular solve: a node's level is one more
than the highest level among its lower-numbered unlabeled neighbours,
and one vectorized update per level reproduces the node-by-node sweep.
Each level's logits are computed class-major, (c, L), so that the shared
`numerics.softmax_columns` and the TV reduce down axis 0 rather than
along the short class axis. A numbering that chains the unlabeled nodes
(a path numbered end to end) puts every node on its own level, where
this is slower than a per-node loop. The per-node update it reproduces
is written out, as a reference, in `selfcheck.mean_field_site_update`.

The warm start trains the backbone on the labeled nodes' cross-entropy.
Its loss and its per-epoch validation (both `gcn.cross_entropy`) read
the scores of a few rows, so both run on the receptive fields of the
split's sorted ids (`gcn.receptive_field`), which gives the full graph's
loss, gradients and scores bit for bit. It stops after `patience` epochs
in which neither validation accuracy nor validation cross-entropy
improved; the loss falls on an accuracy plateau.

The M-step fixes q and runs full-batch Adam ascent on the expected
piecewise objective, updating the backbone weights together with K and
alpha. Each EM round is one M-step on q, then one E-step on the new
scores; the round is validated once, on the argmax of that E-step's q.
The warm start's softmax(scores) is the first q: with K still zero an
E-step would return it unchanged. Labeled nodes stay clamped throughout;
model selection keeps the phase (parameters, and the validated q of a
round) with the best validation accuracy of any warm epoch or round, the
earliest on a tie. With no validation nodes nothing is selected or
stopped early, and the last state is kept.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import gcn
from .data import Dataset, Split
from .errors import ConfigError, DegenerateInputError, StructuralInputError
from .factors import (PairwiseParams, PieceBuffers, Redistribution, endpoint_rows,
                      objective_and_gradients, COEFFICIENT_MODES, REDISTRIBUTION_SCHEMES)
from .graph import Graph, normalized_adjacency_operator
from .numerics import AdamState, adam_step, softmax_columns, softmax_rows, stream

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
    """Full per-node label distribution table: point masses on labeled rows.

    The proposal must list every node outside `train_ids` once, in order,
    and no other node: the E-step, the M-step and `predict` all read r.
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    labeled = np.zeros(q.num_nodes, dtype=bool)
    labeled[train_ids] = True
    if not np.array_equal(q.node_ids, np.flatnonzero(~labeled)):
        raise StructuralInputError("proposal rows do not cover exactly the unlabeled nodes")
    r = np.zeros((q.num_nodes, num_classes))
    r[train_ids, labels[train_ids]] = 1.0
    r[q.node_ids] = q.q
    return r


def _dependency_levels(g: Graph, free):
    """The free nodes in wavefront order, wave by wave.

    A free node's level is 0 when it has no lower-numbered free neighbour,
    else one more than the highest level among those neighbours. The
    levels come from Kahn-style waves over the graph's lower -> higher
    slots between free nodes, each wave in ascending node order. Returns
    (order, bounds): node ids, so level d is order[bounds[d]:bounds[d + 1]].
    """
    src, dst = g.slot_centers, g.indices
    up = free[src] & free[dst] & (dst > src)
    src, dst = src[up], dst[up].astype(np.int64)     # src stays sorted, as the slots are
    up_indptr = np.zeros(g.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.num_nodes), out=up_indptr[1:])
    pending = np.bincount(dst, minlength=g.num_nodes)   # lower neighbours not yet placed
    frontier, waves = np.flatnonzero(free & (pending == 0)), []
    while frontier.size:
        waves.append(frontier)
        starts = up_indptr[frontier]
        lengths = up_indptr[frontier + 1] - starts
        offsets = np.cumsum(lengths) - lengths
        slots = np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())
        targets, hits = np.unique(dst[slots], return_counts=True)
        pending[targets] -= hits
        frontier = targets[pending[targets] == 0]
    return np.concatenate(waves), np.cumsum([0] + [len(wave) for wave in waves])


def _e_step_stats(q: Proposal, scores, pp: PairwiseParams, g: Graph, labels,
                  train_ids, sweeps, tolerance):
    """Sequential sweeps in ascending node order; returns (q, sweeps_run, tv).

    The sweeps update r = make_r(q, ...) in place: the labeled rows are
    their clamped one-hot rows, so a labeled neighbour enters a node's
    logits as an unlabeled one does, through its row of r. Each sweep runs
    one dependency level at a time. No two nodes on a level are adjacent,
    and every lower-numbered neighbour sits on a lower level, so a level
    reads this sweep's values below it and last sweep's values above it,
    exactly as the one-node-at-a-time ascending sweep does.

    The alpha-weighted adjacency's rows are gathered once, in level order.
    A level's logits are computed class-major, (c, L), and its rows of r
    are read and written class-major through r's flat view. Up to 7 classes
    the result is bit-identical to row-major (L, c) logits; from 8 on numpy
    sums a row pairwise, so the class-major sums differ in the last bits.
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
    r = make_r(q, labels, train_ids, c)
    if len(q.node_ids) == 0:
        return q, 0, 0.0
    free = np.zeros(g.num_nodes, dtype=bool)
    free[q.node_ids] = True
    order, bounds = _dependency_levels(g, free)
    rows = sp.csr_array((pp.alpha_at(g.slot_edge_ids), g.indices, g.indptr),
                        shape=(g.num_nodes, g.num_nodes))[order]
    # class-major: every reduction over the classes runs along axis 0, and
    # r[ids[i], y] is entry ids[i] * c + y of r's flat view
    scores_t = np.ascontiguousarray(scores[order].T)
    levels = [(order[lo:hi] * c + np.arange(c)[:, None], rows[lo:hi], scores_t[:, lo:hi])
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    entries = r.reshape(-1)
    sweeps_run, max_tv = 0, 0.0
    for _ in range(sweeps):
        max_tv = 0.0
        for level_at, block, level_scores in levels:
            new = k @ (block @ r).T
            new += level_scores
            softmax_columns(new)
            max_tv = max(max_tv, float(0.5 * np.abs(new - entries[level_at]).sum(axis=0).max()))
            entries[level_at] = new
        sweeps_run += 1
        if max_tv < tolerance:
            break
    return Proposal(q.node_ids.copy(), r[q.node_ids], q.num_nodes), sweeps_run, max_tv


def m_step(params: gcn.GcnParams, pp: PairwiseParams, q: Proposal, features,
           norm_adj, g: Graph, redist: Redistribution, labels, train_ids,
           config: TrainConfig, rng_dropout):
    """Full-batch Adam ascent on the expected piecewise objective.

    `features` and `norm_adj` are `scipy.sparse.csr_array`, as `forward`
    takes them. Returns (params, pp, objective_trace); q stays fixed, so r,
    its rows at the edge ends and the objective's workspace are built once.
    Fresh optimizer state is used for each M-step. A non-finite objective
    ends the step with the `NonFiniteObjectiveError` it raises.
    """
    r = make_r(q, labels, train_ids, pp.num_classes)
    r_ends = endpoint_rows(r, g)
    workspace = PieceBuffers(g, pp.num_classes)
    st_w0 = AdamState.for_param(params.w0, lr=config.lr, weight_decay=config.weight_decay)
    st_w1 = AdamState.for_param(params.w1, lr=config.lr)
    st_raw = AdamState.for_param(pp.raw, lr=config.lr)
    st_alpha = AdamState.for_param(pp.alpha, lr=config.lr)

    trace = []
    for _ in range(config.m_epochs):
        scores, cache = gcn.forward(params, features, norm_adj,
                                    dropout_keep=config.dropout_keep, rng=rng_dropout)
        value, grad_scores, grad_raw, grad_alpha = objective_and_gradients(
            r, scores, pp, redist, g, r_ends, workspace)
        gw0, gw1 = gcn.backward(params, cache, grad_scores)
        params = gcn.GcnParams(adam_step(params.w0, -gw0, st_w0),
                               adam_step(params.w1, -gw1, st_w1))
        pp = PairwiseParams(adam_step(pp.raw, -grad_raw, st_raw),
                            adam_step(pp.alpha, -grad_alpha, st_alpha), pp.mode)
        trace.append(value)
    return params, pp, trace


def final_sweep_cap(e_sweeps) -> int:
    """Sweep cap of the E-step that predictions are read from."""
    return max(FINAL_E_SWEEPS, e_sweeps)


def predict(scores, pp: PairwiseParams, q: Proposal, g: Graph, labels, train_ids,
            sweeps=FINAL_E_SWEEPS, tolerance=TrainConfig.e_tolerance) -> np.ndarray:
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


def train(ds: Dataset, split: Split, config: TrainConfig) -> TrainResult:
    """Warm start, then alternate E- and M-steps; return the best checkpoint."""
    g = ds.graph
    labels, train_ids, val_ids = ds.labels, split.train, split.val
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

    # the warm start's loss and validation read only their receptive fields;
    # with no validation nodes nothing is selected and nothing stops early
    train_field = gcn.receptive_field(norm_adj, features, train_ids)
    val_field = gcn.receptive_field(norm_adj, features, val_ids) if len(val_ids) else None
    val_labels = labels[val_ids]
    best = None   # (val accuracy, phase, params, pairwise, validated q or None)

    def select(acc, phase, p, pw, q):
        """Keep this phase if it is the first or beats the best; the earliest wins a tie."""
        nonlocal best
        if best is not None and not acc > best[0]:
            return False
        best = (acc, phase, p, pw, q)
        return True

    # ---- warm start: supervised training of the backbone on the train set
    st_w0 = AdamState.for_param(params.w0, lr=config.lr, weight_decay=config.weight_decay)
    st_w1 = AdamState.for_param(params.w1, lr=config.lr)
    epochs_since_best, best_val_loss = 0, float("inf")
    for epoch in range(config.warm_epochs):
        loss, gw0, gw1 = gcn.supervised_loss_and_grad(
            params, features, norm_adj, labels, train_ids, rng=rng_drop,
            dropout_keep=config.dropout_keep, field=train_field)
        params = gcn.GcnParams(adam_step(params.w0, gw0, st_w0),
                               adam_step(params.w1, gw1, st_w1))
        report.add("warm", epoch, "supervised_loss", loss)
        if val_field is None:
            report.add("warm", epoch, "val_accuracy", float("nan"))
            continue
        s, _ = gcn.forward(params, features, norm_adj, field=val_field)
        acc = float(np.mean(np.argmax(s, axis=1) == val_labels))
        val_loss = gcn.cross_entropy(s, val_labels)
        report.add("warm", epoch, "val_accuracy", acc)
        improved = select(acc, f"warm:{epoch}", params, pp, None)
        if val_loss < best_val_loss:
            best_val_loss, improved = val_loss, True
        epochs_since_best = 0 if improved else epochs_since_best + 1
        if epochs_since_best >= config.patience:
            break

    scores, _ = gcn.forward(params, features, norm_adj)
    q = Proposal.from_scores(scores, unlabeled, g.num_nodes)

    # ---- EM rounds, each validated on the argmax of its E-step's q
    for rnd in range(1, config.em_rounds + 1):
        params, pp, trace = m_step(params, pp, q, features, norm_adj, g, redist,
                                   labels, train_ids, config, rng_drop)
        scores, _ = gcn.forward(params, features, norm_adj)
        q, sweeps_run, final_tv = _e_step_stats(q, scores, pp, g, labels, train_ids,
                                                config.e_sweeps, config.e_tolerance)
        phase = f"round{rnd}"
        for step, value in enumerate(trace):
            report.add(phase, step, "objective", value)
        report.add(phase, 0, "sweeps_run", sweeps_run)
        report.add(phase, 0, "final_tv", final_tv)
        acc = float("nan")
        if val_field is not None:
            acc = evaluate(_argmax_predictions(q, labels, train_ids), labels, val_ids)
            select(acc, phase, params, pp, q)
        report.add(phase, 0, "val_accuracy", acc)

    # ---- restore the selected phase and make final predictions; with none
    # selected, scores and q already belong to the final parameters
    report.best_phase = "last"
    if best is not None:
        _, report.best_phase, params, pp, validated = best
        scores, _ = gcn.forward(params, features, norm_adj)
        q = validated if validated is not None else \
            Proposal.from_scores(scores, unlabeled, g.num_nodes)

    q, sweeps_run, final_tv = _e_step_stats(q, scores, pp, g, labels, train_ids,
                                            final_sweep_cap(config.e_sweeps),
                                            config.e_tolerance)
    predictions = _argmax_predictions(q, labels, train_ids)
    report.add("final", 0, "sweeps_run", sweeps_run)
    report.add("final", 0, "final_tv", final_tv)
    if len(val_ids):
        report.add("final", 0, "val_accuracy", evaluate(predictions, labels, val_ids))
    if len(split.test):
        report.test_accuracy = evaluate(predictions, labels, split.test)
        report.add("final", 0, "test_accuracy", report.test_accuracy)
    return TrainResult(params=params, pairwise=pp, proposal=q, report=report)
