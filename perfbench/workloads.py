"""The benchmark's workloads: their inputs, set-up and one operation each.

Inputs come from `data.generate_synthetic` at the workload seed and are
written to disk before anything is timed; the program then only reads
those files. Operations call the package through the same public
functions that `mrfgcn train` and `mrfgcn evaluate` call.
"""

import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mrfgcn import checkpoint, data, gcn, graph, training
from mrfgcn.factors import PairwiseParams

# Each run cycles through this many planetoid splits, as `mrfgcn train
# --seeds a,b,c` does, so one graph's split luck weighs less in a run.
SPLITS = 3
DATA_DIR = "data"
CHECKPOINT = "model.ckpt"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "train" or "evaluate"
    layout: str             # "citation" (.content/.cites) or "generic" (tsv directory)
    nodes: int
    classes: int
    edges_per_node: int
    homophily: float
    features: int
    noise: float
    per_class: int
    num_val: int
    num_test: int
    accuracy_floor: float   # well above chance (1 / classes), well below observed
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("cora_train", "train", "citation", 540, 7, 2, 0.8, 1433, 0.026,
             8, 100, 200, 0.3,
             "Cora-shaped train at 1/5 scale: 1433 sparse binary features, so "
             "dropout and the GCN dominate"),
    Workload("dense_train", "train", "generic", 400, 10, 10, 0.6, 64, 0.45,
             10, 100, 200, 0.3,
             "average degree 20 and 10 classes: the piecewise objective over the "
             "(2E, c, c) tensor dominates"),
    Workload("pubmed_evaluate", "evaluate", "generic", 19717, 3, 2, 0.8, 500, 0.2,
             20, 500, 1000, 0.6,
             "Pubmed-shaped evaluate requests on a fixed checkpoint: inference "
             "E-step sweeps dominate, no dropout, backward or factors"),
)}


def run_seed(seed, index):
    """Split and training seed of split `index` for a workload seed."""
    return seed * SPLITS + index


# ---- inputs

def _save_citation(ds, directory):
    with open(directory / "synthetic.content", "w", encoding="utf-8") as fh:
        for node, (row, label) in enumerate(zip(ds.features, ds.labels)):
            fh.write(f"{node}\t" + "\t".join("%.17g" % x for x in row) + f"\tclass{label}\n")
    with open(directory / "synthetic.cites", "w", encoding="utf-8") as fh:
        for j, k in ds.graph.edges:
            fh.write(f"{j}\t{k}\n")


def _signature_checkpoint(ds):
    """Evaluate-only model that reads the generator's one-hot class signature.

    Built without `train`, so a change to training cannot change it. The
    scales give confident unaries, and a coupling under which the E-step
    stops at the tolerance after the same number of sweeps (9 on
    Pubmed-sized graphs) for every seed, so requests do equal work.
    """
    c = ds.num_classes
    w0 = np.zeros((ds.num_features, 16))
    w0[np.arange(c), np.arange(c)] = 50.0
    w1 = np.zeros((16, c))
    w1[np.arange(c), np.arange(c)] = 2.0
    pairwise = PairwiseParams(np.diag(np.full(c, 0.5)), np.ones(ds.graph.num_edges), "edge")
    return gcn.GcnParams(w0, w1), pairwise


def write_inputs(workload: Workload, seed, work_dir):
    """Generate the workload's files under `work_dir` from `seed`."""
    work_dir = Path(work_dir)
    ds = data.generate_synthetic(workload.nodes, workload.classes, workload.edges_per_node,
                                 workload.homophily, workload.features, workload.noise, seed)
    directory = work_dir / DATA_DIR
    directory.mkdir(parents=True)
    if workload.layout == "citation":
        _save_citation(ds, directory)
    else:
        data.save_generic(ds, directory)
    if workload.kind == "evaluate":
        # the model sees the features the way `mrfgcn evaluate` prepares them
        checkpoint.save_checkpoint(work_dir / CHECKPOINT,
                                   *_signature_checkpoint(data.row_normalize_features(ds)))


# ---- set-up and operations

def train_config(seed):
    """`TrainConfig` defaults with early stopping off.

    Every call then runs all warm-start epochs; with early stopping the
    warm start ended anywhere from 109 to 200 epochs depending on the
    split, which moved the work per call by about a sixth.
    """
    defaults = training.TrainConfig(seed=seed)
    return dataclasses.replace(defaults, patience=defaults.warm_epochs)


@dataclass
class Prepared:
    ds: data.Dataset
    norm_adj: object
    seeds: list             # run seed of each split, also the training seed
    splits: list
    model: tuple | None     # (GcnParams, PairwiseParams) on evaluate workloads


def setup(workload: Workload, seed, work_dir) -> Prepared:
    """Load and prepare everything the operations read, as the CLI does."""
    work_dir = Path(work_dir)
    ds = data.row_normalize_features(data.load_dataset(work_dir / DATA_DIR))
    norm_adj = graph.normalized_adjacency_operator(ds.graph)
    seeds = [run_seed(seed, i) for i in range(SPLITS)]
    splits = [data.planetoid_split(ds, workload.per_class, workload.num_val,
                                   workload.num_test, seed=s) for s in seeds]
    model = checkpoint.load_checkpoint(work_dir / CHECKPOINT) \
        if workload.kind == "evaluate" else None
    return Prepared(ds, norm_adj, seeds, splits, model)


@dataclass
class Outcome:
    op_s: float
    test_accuracy: float
    evaluate_accuracy: float
    problems: list


def _evaluate_request(prep, split, params, pairwise):
    """What `mrfgcn evaluate` does after loading: a fresh proposal, then predict."""
    g = prep.ds.graph
    scores, _ = gcn.forward(params, prep.ds.features, prep.norm_adj)
    unlabeled = np.setdiff1d(np.arange(g.num_nodes), split.train)
    q = training.Proposal.from_scores(scores, unlabeled, g.num_nodes)
    predictions = training.predict(scores, pairwise, q, g, prep.ds.labels, split.train)
    return predictions, q, training.evaluate(predictions, prep.ds.labels, split.test)


def _rows_are_distributions(q):
    return bool(q.q.min() >= 0.0 and np.abs(q.q.sum(axis=1) - 1.0).max() <= 1e-9)


def _check(workload, accuracies, predictions, proposals, objective):
    problems = []
    for name, value in accuracies.items():
        if not np.isfinite(value) or value < workload.accuracy_floor:
            problems.append(f"{name} {value!r} below floor {workload.accuracy_floor}")
    if predictions.min() < 0 or predictions.max() >= workload.classes:
        problems.append("prediction outside [0, classes)")
    if not all(_rows_are_distributions(q) for q in proposals):
        problems.append("proposal rows are not distributions")
    if not np.all(np.isfinite(objective)):
        problems.append("non-finite piecewise objective")
    return problems


def operation(workload: Workload, prep: Prepared, index, work_dir) -> Outcome:
    """One closed-loop operation on split `index`; checks run after the timing."""
    split = prep.splits[index]
    if workload.kind == "evaluate":
        start = time.perf_counter()
        predictions, q, accuracy = _evaluate_request(prep, split, *prep.model)
        elapsed = time.perf_counter() - start
        problems = _check(workload, {"test_accuracy": accuracy}, predictions, [q], [])
        return Outcome(elapsed, accuracy, accuracy, problems)

    # what `mrfgcn train` does for one seed: train, then save the checkpoint
    path = Path(work_dir) / CHECKPOINT
    start = time.perf_counter()
    result = training.train(prep.ds, split, train_config(prep.seeds[index]))
    checkpoint.save_checkpoint(path, result.params, result.pairwise)
    elapsed = time.perf_counter() - start
    # then what `mrfgcn evaluate` does with that checkpoint
    predictions, q, accuracy = _evaluate_request(prep, split, *checkpoint.load_checkpoint(path))
    objective = [v for _, _, metric, v in result.report.records if metric == "objective"]
    problems = _check(workload, {"test_accuracy": result.report.test_accuracy,
                                 "evaluate_accuracy": accuracy},
                      predictions, [result.proposal, q], objective)
    return Outcome(elapsed, result.report.test_accuracy, accuracy, problems)


if __name__ == "__main__":
    # python3 -m workloads '<Workload fields as JSON>' <seed> <directory>,
    # with src/ and perfbench/ on PYTHONPATH
    write_inputs(Workload(**json.loads(sys.argv[1])), int(sys.argv[2]), sys.argv[3])
