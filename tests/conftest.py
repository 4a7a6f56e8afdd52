import itertools
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from mrfgcn.checkpoint import _MAGIC, _VERSION

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves without hypothesis
    pass
else:
    # every property test draws the same examples on every run, and keeps no
    # example database between runs; each test sets its own max_examples
    settings.register_profile("tier1", database=None, deadline=None, derandomize=True)
    settings.load_profile("tier1")


def enum_piece(g, node, scores, pp, redist):
    """Independent enumeration over the star piece at `node` (pure python loops).

    Returns (log_z, center marginal, pairwise marginals), the latter in the
    order of the node's CSR slots.
    """
    c = pp.num_classes
    lo, hi = g.indptr[node], g.indptr[node + 1]
    leaves = [int(v) for v in g.indices[lo:hi]]
    alphas = pp.alpha_at(g.slot_edge_ids[lo:hi])
    k = pp.K
    weights = {}
    for assign in itertools.product(range(c), repeat=len(leaves) + 1):
        lf = redist.center_exp[node] * scores[node][assign[0]]
        for pos, (leaf, a) in enumerate(zip(leaves, alphas), start=1):
            lf += redist.leaf_exp[leaf] * scores[leaf][assign[pos]]
            lf += redist.pair_exp * a * k[assign[0], assign[pos]]
        weights[assign] = math.exp(lf)
    z = sum(weights.values())
    center = np.zeros(c)
    pair = np.zeros((len(leaves), c, c))
    for assign, w in weights.items():
        center[assign[0]] += w / z
        for pos in range(len(leaves)):
            pair[pos, assign[0], assign[pos + 1]] += w / z
    return math.log(z), center, pair


def write_checkpoint_records(path, arrays):
    """A checkpoint holding `arrays` as its records, in the file layout.

    For files the program does not write itself: backbone-only ones, and
    ones whose records do not fit together. Unlike the program's writer it
    keeps a 0-d array as a rank-0 record.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            arr = np.asarray(arr, dtype="<f8")
            fh.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


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
