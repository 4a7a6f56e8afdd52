import os
import struct
from pathlib import Path

import numpy as np
import pytest

from mrfgcn.checkpoint import _MAGIC, _VERSION
from mrfgcn.gcn import GcnParams
from mrfgcn.numerics import AdamState, adam_step, softmax_rows

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves without hypothesis
    pass
else:
    # every property test draws the same examples on every run, and keeps no
    # example database between runs; each test sets its own max_examples
    settings.register_profile("tier1", database=None, deadline=None, derandomize=True)
    settings.load_profile("tier1")


def write_checkpoint_records(path, arrays):
    """A checkpoint holding `arrays` as its records, in the file layout.

    For files the program does not write itself: ones with another record
    count than five, and ones whose records do not fit together. Unlike the
    program's writer it keeps a 0-d array as a rank-0 record.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            arr = np.asarray(arr, dtype="<f8")
            fh.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def dense_normalized_adjacency(g):
    """The normalized adjacency as a dense n x n array, built entry by entry.

    Entry (i, j) is 1/sqrt((d(i)+1)(d(j)+1)) when j is a neighbor of i or
    i == j, else 0. The reference that the program's CSR operator is
    checked against; the program itself never holds A densely.
    """
    inv_sqrt = 1.0 / np.sqrt(g.degrees + 1.0)
    a = np.zeros((g.num_nodes, g.num_nodes), dtype=np.float64)
    centers = g.slot_centers
    a[centers, g.indices] = inv_sqrt[centers] * inv_sqrt[g.indices]
    idx = np.arange(g.num_nodes)
    a[idx, idx] = inv_sqrt * inv_sqrt
    return a


def raw_pair_cases():
    """(num_nodes, raw pairs) for build_graph: empty graphs, self-loops only,
    repeats in both orientations, and 40 random multigraphs of 2-79 nodes."""
    rng = np.random.default_rng(21)
    yield 0, []
    yield 1, []
    yield 1, [(0, 0), (0, 0)]
    yield 5, []
    yield 5, [(3, 3), (0, 0), (3, 3)]
    yield 2, [(1, 0), (0, 1), (1, 0)]
    for _ in range(40):
        n = int(rng.integers(2, 80))
        raw = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
        raw = np.concatenate([raw, raw[:, ::-1], raw[: len(raw) // 2]])   # both ways, repeats
        yield n, raw[rng.permutation(len(raw))]


def supervised_reference(params, features, adj, r, epochs, lr):
    """Independent soft-target trajectory: Adam on the sum of r-weighted CE.

    Full batch, no dropout and no weight decay, on dense features and a
    dense A. The reference that an M-step with dead pairwise factors is
    checked against.
    """
    st0 = AdamState.for_param(params.w0, lr=lr)
    st1 = AdamState.for_param(params.w1, lr=lr)
    for _ in range(epochs):
        z1 = adj @ (features @ params.w0)
        h1 = np.maximum(z1, 0.0)
        scores = adj @ (h1 @ params.w1)
        grad_scores = softmax_rows(scores) - r
        ag = adj @ grad_scores
        gw1 = h1.T @ ag
        gz1 = (ag @ params.w1.T) * (z1 > 0)
        gw0 = features.T @ (adj @ gz1)
        params = GcnParams(adam_step(params.w0, gw0, st0),
                           adam_step(params.w1, gw1, st1))
    return params


def write_citation(directory, name, content_rows, cite_rows):
    """content_rows: (node_name, feature list, class string); cite_rows: (cited, citing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{name}.content", "w", encoding="utf-8") as fh:
        for node, feats, cls in content_rows:
            fh.write("\t".join([node, *(str(x) for x in feats), cls]) + "\n")
    with open(directory / f"{name}.cites", "w", encoding="utf-8") as fh:
        for a, b in cite_rows:
            fh.write(f"{a}\t{b}\n")
    return directory


def dataset_dir(name):
    """Path to a real citation dataset, or None when it is not installed."""
    root = Path(os.environ.get("MRFGCN_DATA", Path(__file__).resolve().parent.parent / "data"))
    for candidate in (root / name, root / name.capitalize()):
        if list(candidate.glob("*.content")) or (candidate / "features.tsv").exists():
            return candidate
    return None


def require_dataset(name):
    path = dataset_dir(name)
    if path is None:
        pytest.skip(f"{name} dataset not installed; see README (MRFGCN_DATA) "
                    f"to run this criterion")
    return path
