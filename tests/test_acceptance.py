"""Acceptance gate: one test per criterion, one printed status line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 1-3, the dataset half of 4, and 11 replay published numbers on
the public citation datasets and skip with instructions when the files
are not installed (see README, MRFGCN_DATA). Everything else runs
self-contained; criterion 12 holds the paper's claim, that EM beats its
backbone, on a Cora-shaped synthetic graph. Criteria 5, 6, 7 and the KL half of 9 run the
`oracle-check` suites of `mrfgcn.selfcheck`, the one implementation of
those checks, with their own seeds, and hold each suite's worst error to
the criterion's tolerance. MRFGCN_ACCEPT_SEEDS trims the seed counts of the
dataset criteria for quick spot checks; the defaults match the stated
criteria.
"""

import itertools
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

from mrfgcn.data import (generate_synthetic, load_dataset, planetoid_split,
                         ratio_split, row_normalize_features)
from mrfgcn.factors import PairwiseParams, Redistribution, objective_and_gradients
from mrfgcn.gcn import forward, init_params
from mrfgcn.graph import build_graph, homophily_beta, normalized_adjacency_operator
from mrfgcn.numerics import softmax_rows, stream
from mrfgcn.oracle import exact_elbo, exact_observed_ll
from mrfgcn.selfcheck import (check_elbo_identity, check_gradients, check_piece_inference,
                              check_redistribution_identity, mean_field_site_update,
                              random_instance, random_r)
from mrfgcn.training import (Proposal, TrainConfig, _e_step_stats, m_step, make_r,
                             predict, train)

from conftest import (dataset_dir, dense_normalized_adjacency, require_dataset,
                      supervised_reference)

_SEEDS = int(os.environ.get("MRFGCN_ACCEPT_SEEDS", "0"))


def _line(num, status, detail=""):
    print(f"\n[criterion {num:>2}] {status}  {detail}")


def _load(name):
    return row_normalize_features(load_dataset(require_dataset(name)))


def _run_seeds(ds, seeds, **overrides):
    accs, times = [], []
    for seed in seeds:
        split = planetoid_split(ds, 20, 500, 1000, seed=seed)
        cfg = TrainConfig(seed=seed, **overrides)
        started = time.monotonic()
        result = train(ds, split, cfg)
        times.append(time.monotonic() - started)
        accs.append(100.0 * result.report.test_accuracy)
    return np.array(accs), np.array(times)


def _skip(num, name):
    if dataset_dir(name) is None:
        _line(num, "SKIP", f"{name} dataset not installed (see README)")
        pytest.skip(f"{name} dataset not installed")


# ---------------------------------------------------------------- criterion 1

def test_c01_gcn_baseline_cora():
    _skip(1, "cora")
    ds = _load("cora")
    seeds = range(_SEEDS or 10)
    accs, times = _run_seeds(ds, seeds, em_rounds=0)
    mean = accs.mean()
    ok = 80.0 <= mean <= 83.0 and times.max() < 120.0
    _line(1, "PASS" if ok else "FAIL",
          f"baseline mean {mean:.2f} over {len(accs)} seeds "
          f"(band [80, 83]), slowest run {times.max():.0f}s (< 120s)")
    assert ok


# ---------------------------------------------------------------- criterion 2

def test_c02_em_model_cora():
    _skip(2, "cora")
    ds = _load("cora")
    seeds = range(_SEEDS or 10)
    em_accs, _ = _run_seeds(ds, seeds)
    base_accs, _ = _run_seeds(ds, seeds, em_rounds=0)
    ok = abs(em_accs.mean() - 83.54) <= 1.5 and em_accs.mean() > base_accs.mean()
    _line(2, "PASS" if ok else "FAIL",
          f"cora {em_accs.mean():.2f} (target 83.54 +/- 1.5) vs baseline "
          f"{base_accs.mean():.2f}")
    assert ok


def test_c02_em_model_citeseer():
    _skip(2, "citeseer")
    ds = _load("citeseer")
    accs, _ = _run_seeds(ds, range(_SEEDS or 10))
    ok = abs(accs.mean() - 73.13) <= 1.5
    _line(2, "PASS" if ok else "FAIL",
          f"citeseer {accs.mean():.2f} (target 73.13 +/- 1.5)")
    assert ok


def test_c02_em_model_pubmed():
    _skip(2, "pubmed")
    ds = _load("pubmed")
    accs, times = _run_seeds(ds, range(_SEEDS or 10))
    ok = abs(accs.mean() - 80.15) <= 1.5 and times.max() < 900.0
    _line(2, "PASS" if ok else "FAIL",
          f"pubmed {accs.mean():.2f} (target 80.15 +/- 1.5), slowest run "
          f"{times.max():.0f}s (< 900s)")
    assert ok


# ---------------------------------------------------------------- criterion 3

def test_c03_dataset_statistics():
    expected = {"cora": (2708, 5429, 1433, 7, 0.83),
                "citeseer": (3327, 4732, 3703, 6, 0.71),
                "pubmed": (19717, 44338, 500, 3, 0.79)}
    available = [n for n in expected if dataset_dir(n) is not None]
    if not available:
        _line(3, "SKIP", "no citation dataset installed (see README)")
        pytest.skip("no citation dataset installed")
    details, ok = [], True
    for name in available:
        nodes, edges, feats, classes, beta_ref = expected[name]
        ds = load_dataset(dataset_dir(name))
        edge_stat = ds.num_citation_rows if ds.num_citation_rows is not None \
            else ds.graph.num_edges
        beta = homophily_beta(ds.graph, ds.labels)
        good = (ds.graph.num_nodes == nodes and edge_stat == edges
                and ds.num_features == feats and ds.num_classes == classes
                and abs(beta - beta_ref) <= 0.01)
        ok &= good
        details.append(f"{name}: beta {beta:.3f} (ref {beta_ref}), "
                       f"{ds.graph.num_nodes}/{edge_stat}/{ds.num_features}"
                       f"/{ds.num_classes}")
    missing = [n for n in expected if n not in available]
    note = f"; not installed: {','.join(missing)}" if missing else ""
    _line(3, "PASS" if ok else "FAIL", "; ".join(details) + note)
    assert ok


# ---------------------------------------------------------------- criterion 4

def test_c04_ablation_direction_on_datasets():
    available = [n for n in ("cora", "citeseer", "pubmed") if dataset_dir(n)]
    if not available:
        _line(4, "SKIP", "dataset ablation needs citation datasets (see README); "
                         "synthetic half reported separately")
        pytest.skip("no citation dataset installed")
    details = []
    for name in available:
        ds = _load(name)
        seeds = range(_SEEDS or 20)
        edge_accs, _ = _run_seeds(ds, seeds, coefficient_mode="edge")
        none_accs, _ = _run_seeds(ds, seeds, coefficient_mode="none")
        details.append(f"{name}: edge {edge_accs.mean():.2f}+/-{edge_accs.std():.2f} "
                       f"vs none {none_accs.mean():.2f}+/-{none_accs.std():.2f}")
    _line(4, "REPORT (soft)", "; ".join(details))


def test_c04_disassortative_synthetic_report():
    seeds = range(5)
    em, base = [], []
    for seed in seeds:
        ds = row_normalize_features(generate_synthetic(
            600, 5, 4, 0.25, feature_dim=10, feature_noise=0.3, seed=seed))
        split = ratio_split(ds, 0.2, 0.2, 0.6, seed=seed)
        shared = dict(seed=seed, warm_epochs=120, patience=40, m_epochs=25,
                      e_sweeps=5)
        em.append(100.0 * train(ds, split, TrainConfig(em_rounds=3, **shared))
                  .report.test_accuracy)
        base.append(100.0 * train(ds, split, TrainConfig(em_rounds=0, **shared))
                    .report.test_accuracy)
    em, base = np.array(em), np.array(base)
    within = em.mean() >= base.mean() - 0.5
    _line(4, "REPORT (soft)",
          f"synthetic beta~0.25: EM model {em.mean():.2f}+/-{em.std():.2f} vs "
          f"GCN {base.mean():.2f}+/-{base.std():.2f} over {len(em)} seeds; "
          f"parity within 0.5pt: {within}")


# ------------------------------------------- criteria 5-7 and 9: the suites
# The oracle-check suites are the one implementation of these checks. A
# criterion runs a suite once per class count, or per (class count, hidden
# width), with its own seeds, and holds the worst error of each of the
# suite's checks to the criterion's own tolerance.

_SIZES = list(range(2, 11))
_CLASS_COUNTS = (2, 3, 4)


def _suite_line(num, results, instances, tol):
    """Print the criterion's line from its suite calls' CheckResults; True if it passes."""
    worst = {}
    for res in results:
        worst[res.name] = max(worst.get(res.name, 0.0), res.worst)
    ok = max(worst.values()) <= tol
    _line(num, "PASS" if ok else "FAIL",
          f"{instances} instances: "
          + ", ".join(f"{name} {err:.2e}" for name, err in worst.items())
          + f" (tol {tol:.0e})")
    return ok


# ---------------------------------------------------------------- criterion 5

def test_c05_oracle_equivalence_on_random_pieces():
    # 34 pieces per class count, sizes 2-10, all modes and schemes, any node
    results = []
    for c in _CLASS_COUNTS:
        results += check_piece_inference(_SIZES, 34, seed=505 + c, num_classes=c)
    assert _suite_line(5, results, 34 * len(_CLASS_COUNTS), 1e-10)


# ---------------------------------------------------------------- criterion 6

def test_c06_gradient_exactness():
    # 3 instances per (class count, hidden width 2-8); each call starts the
    # size cycle at another size, and each spans the three modes
    combos = list(itertools.product(_CLASS_COUNTS, range(2, 9)))
    results = []
    for i, (c, hidden) in enumerate(combos):
        sizes = _SIZES[i % len(_SIZES):] + _SIZES[:i % len(_SIZES)]
        results += check_gradients(sizes, 3, seed=606 + i, num_classes=c, hidden=hidden)
    assert _suite_line(6, results, 3 * len(combos), 1e-6)


# ---------------------------------------------------------------- criterion 7

def test_c07_redistribution_identity():
    # 34 assignments per class count, sizes 2-10, both schemes
    results = []
    for c in _CLASS_COUNTS:
        results += check_redistribution_identity(_SIZES, 34, seed=707 + c, num_classes=c)
    assert _suite_line(7, results, 34 * len(_CLASS_COUNTS), 1e-10)


# ---------------------------------------------------------------- criterion 8

def test_c08_shift_invariance():
    rng = stream(808, "acceptance")
    worst = 0.0
    for trial in range(20):
        scheme = ("average", "center")[trial % 2]
        n, c = int(rng.integers(2, 11)), int(rng.integers(2, 5))
        g, redist, scores, pp, labels, train_ids = random_instance(
            rng, n, c, scheme=scheme)
        r = random_r(rng, n, c, labels, train_ids)
        base = objective_and_gradients(r, scores, pp, redist, g)[0]
        shifted = scores + rng.normal(scale=6.0, size=(n, 1))
        worst = max(worst, abs(
            objective_and_gradients(r, shifted, pp, redist, g)[0] - base))
    ok = worst <= 1e-9
    _line(8, "PASS" if ok else "FAIL",
          f"20 random per-node shifts: worst objective change {worst:.2e} (tol 1e-9)")
    assert ok


# ---------------------------------------------------------------- criterion 9

def test_c09_elbo_coordinate_ascent_and_kl_identity():
    rng = stream(909, "acceptance")
    worst_drop, worst_sweep_drop = 0.0, 0.0
    for _ in range(20):
        n, c = int(rng.integers(4, 11)), 3
        g, _, scores, pp, labels, train_ids = random_instance(
            rng, n, c, min_labeled=1)
        free = np.setdiff1d(np.arange(n), train_ids)
        rows = rng.random((len(free), c)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        q = Proposal(free, rows, n)
        r = make_r(q, labels, train_ids, c)
        start = exact_elbo(g, scores, pp, labels, train_ids, r)
        # the production E-step, one full sweep at a time from the same q
        swept, prev = q, start
        for _ in range(3):
            swept, _, _ = _e_step_stats(swept, scores, pp, g, labels, train_ids,
                                        sweeps=1, tolerance=0.0)
            cur = exact_elbo(g, scores, pp, labels, train_ids,
                             make_r(swept, labels, train_ids, c))
            worst_sweep_drop = max(worst_sweep_drop, prev - cur)
            prev = cur
        # the per-site reference, one node at a time
        prev = start
        for node in free:
            r = mean_field_site_update(r, node, scores, pp, g)
            cur = exact_elbo(g, scores, pp, labels, train_ids, r)
            worst_drop = max(worst_drop, prev - cur)
            prev = cur
    # the KL half: observed-ll minus ELBO against the direct KL, 20 instances
    [kl] = check_elbo_identity(list(range(4, 11)), 20, seed=909, num_classes=3)
    ok = worst_drop <= 1e-9 and kl.worst <= 1e-10 and worst_sweep_drop <= 1e-9
    _line(9, "PASS" if ok else "FAIL",
          f"20 instances: worst per-site ELBO drop {worst_drop:.2e} (tol 1e-9), "
          f"worst KL-identity gap {kl.worst:.2e} (tol 1e-10), "
          f"worst per-sweep ELBO drop of the E-step {worst_sweep_drop:.2e} (tol 1e-9)")
    assert ok


# --------------------------------------------------------------- criterion 10

def test_c10_degenerate_reductions():
    rng = stream(1010, "acceptance")
    # (a) edgeless graph: piecewise objective equals the exact log-likelihood
    g = build_graph(6, [])
    scores = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6).astype(np.int64)
    r = np.zeros((6, 3))
    r[np.arange(6), labels] = 1.0
    pp = PairwiseParams.init(3, 0, mode="edge")
    gap_edgeless = 0.0
    for scheme in ("average", "center"):
        redist = Redistribution.for_graph(g, scheme)
        value = objective_and_gradients(r, scores, pp, redist, g)[0]
        exact = exact_observed_ll(g, scores, pp, labels, np.arange(6))
        gap_edgeless = max(gap_edgeless, abs(value - exact))

    # (b) dead pairwise factors (alpha = 0, K = 0): the M-step is exactly a
    # supervised soft-target trajectory (center scheme; see decisions ledger),
    # and a full train() run never moves K or alpha and predicts by argmax
    g2 = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6),
                         (1, 5)])
    feats = rng.normal(size=(7, 3))
    labels2 = rng.integers(0, 3, size=7).astype(np.int64)
    train_ids = np.array([0, 3, 5])
    params = init_params(3, 5, 3, seed=4)
    pp2 = PairwiseParams.init(3, g2.num_edges, mode="edge", alpha_init=0.0)
    redist2 = Redistribution.for_graph(g2, "center")
    adj = normalized_adjacency_operator(g2)
    free = np.setdiff1d(np.arange(7), train_ids)
    s0, _ = forward(params, sp.csr_array(feats), adj)
    q = Proposal.from_scores(s0, free, 7)
    cfg = TrainConfig(m_epochs=30, dropout_keep=1.0, lr=0.03, weight_decay=0.0)
    stepped, pp_after, _ = m_step(params, pp2, q, sp.csr_array(feats), adj, g2, redist2,
                                  labels2, train_ids, cfg, stream(0, "d"))
    ref = supervised_reference(params, feats, dense_normalized_adjacency(g2),
                                make_r(q, labels2, train_ids, 3), 30, 0.03)
    traj_gap = max(np.abs(stepped.w0 - ref.w0).max(),
                   np.abs(stepped.w1 - ref.w1).max())
    pairwise_moved = max(np.abs(pp_after.raw).max(), np.abs(pp_after.alpha).max())

    ds = row_normalize_features(generate_synthetic(
        120, 3, 3, 0.8, feature_dim=8, feature_noise=0.3, seed=2))
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    res = train(ds, split, TrainConfig(seed=1, hidden=8, warm_epochs=25,
                                       em_rounds=2, e_sweeps=4, m_epochs=6,
                                       alpha_init=0.0))
    end_k = np.abs(res.pairwise.raw).max()
    end_alpha = np.abs(res.pairwise.alpha).max()
    s_final, _ = forward(res.params, ds.features, normalized_adjacency_operator(ds.graph))
    q_gap = np.abs(res.proposal.q
                   - softmax_rows(s_final[res.proposal.node_ids])).max()
    predicted = predict(s_final, res.pairwise, res.proposal, ds.graph, ds.labels,
                        split.train)
    expected = np.argmax(s_final, axis=1)
    expected[split.train] = ds.labels[split.train]
    argmax_match = np.array_equal(predicted, expected)

    ok = (gap_edgeless <= 1e-10 and traj_gap <= 1e-12 and pairwise_moved == 0.0
          and end_k == 0.0 and end_alpha == 0.0 and q_gap <= 1e-12 and argmax_match)
    _line(10, "PASS" if ok else "FAIL",
          f"edgeless objective gap {gap_edgeless:.2e}; dead-pairwise M-step vs "
          f"supervised reference {traj_gap:.2e}; K/alpha drift {pairwise_moved:.1e}"
          f"/{max(end_k, end_alpha):.1e}; E-step==softmax gap {q_gap:.2e}; "
          f"argmax predictions: {argmax_match}")
    assert ok


# --------------------------------------------------------------- criterion 11

def test_c11_determinism_full_cora():
    _skip(11, "cora")
    ds = _load("cora")
    split = planetoid_split(ds, 20, 500, 1000, seed=0)
    cfg = TrainConfig(seed=0)
    a = train(ds, split, cfg)
    b = train(ds, split, cfg)
    ok = a.report.to_text() == b.report.to_text()
    _line(11, "PASS" if ok else "FAIL",
          f"two full runs, identical reports: {ok} "
          f"(test accuracy {a.report.test_accuracy:.4f})")
    assert ok


# --------------------------------------------------------------- criterion 12
# The Cora shape of `perfbench/workloads.py` `WORKLOADS["cora_train"]`,
# restated here so that re-basing the benchmark does not move the gate:
# 540 nodes, 7 classes, 2 edges per node, homophily target 0.8, 1433
# features at density 0.026, graph seed 11; planetoid splits of 8 per
# class, 100 validation and 200 test nodes. The split seeds were fixed
# before the gate was first run; each is also that run's training seed.

def test_c12_em_beats_its_backbone_offline():
    ds = row_normalize_features(generate_synthetic(540, 7, 2, 0.8, 1433, 0.026, seed=11))
    em, base = [], []
    for seed in range(5):
        split = planetoid_split(ds, 8, 100, 200, seed=seed)
        em.append(train(ds, split, TrainConfig(seed=seed)).report.test_accuracy)
        base.append(train(ds, split, TrainConfig(seed=seed, em_rounds=0))
                    .report.test_accuracy)
    gains = np.subtract(em, base)
    ok = gains.mean() >= 0.02
    _line(12, "PASS" if ok else "FAIL",
          f"Cora-shaped synthetic, 5 split seeds: EM {np.mean(em):.3f} vs backbone "
          f"{np.mean(base):.3f}, mean gain {gains.mean():+.3f} (>= +0.02), "
          f"smallest {gains.min():+.3f}")
    assert ok
