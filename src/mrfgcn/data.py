"""Dataset loading, node splits, and synthetic graph generation.

Two on-disk layouts are supported:

* citation pair: ``<name>.content`` rows are
  ``node_id f_1 ... f_k class_label`` and ``<name>.cites`` rows are
  ``cited_id citing_id``;
* generic directory: ``edges.tsv`` (two integer columns),
  ``features.tsv`` (one row of reals per node), ``labels.tsv`` (one
  integer per node) and optionally ``split.tsv`` (node_id and one of
  train/val/test).

Files are UTF-8, whitespace-separated; lines starting with ``#`` are
ignored. Node features are held as a CSR matrix: the loaders keep only
the nonzero entries of each row as they read it.
"""

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ParseError, StructuralInputError
from .graph import Graph, build_graph
from .numerics import stream

log = logging.getLogger(__name__)

_PARTNER_RETRIES = 100
_SAVE_BLOCK_ROWS = 1024   # feature rows made dense at a time by save_generic


@dataclass(eq=False)
class Dataset:
    graph: Graph
    features: sp.csr_array   # (n, f) float64 CSR; dense input is converted
    labels: np.ndarray       # (n,) int64 in [0, num_classes)
    num_classes: int
    node_names: list | None = None
    num_citation_rows: int | None = None   # raw resolved cite lines, pre-dedup
    skipped_citations: int = 0

    def __post_init__(self):
        self.features = sp.csr_array(self.features, dtype=np.float64)
        n = self.graph.num_nodes
        if self.features.shape[0] != n:
            raise StructuralInputError(
                f"features have {self.features.shape[0]} rows for {n} nodes")
        if self.labels.shape != (n,):
            raise StructuralInputError(f"labels shape {self.labels.shape} for {n} nodes")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise StructuralInputError("label id outside [0, num_classes)")

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.train = np.sort(np.asarray(self.train, dtype=np.int64))
        self.val = np.sort(np.asarray(self.val, dtype=np.int64))
        self.test = np.sort(np.asarray(self.test, dtype=np.int64))
        combined = np.concatenate([self.train, self.val, self.test])
        if len(np.unique(combined)) != len(combined):
            raise StructuralInputError("split sets must be pairwise disjoint")


class _CsrRows:
    """Collects feature rows one at a time, keeping only their nonzero entries."""

    def __init__(self):
        self.indptr, self.indices, self.values = [0], [np.zeros(0, np.int64)], [np.zeros(0)]

    def append(self, row):
        row = np.asarray(row, dtype=np.float64)
        nonzero = np.flatnonzero(row)
        self.indices.append(nonzero)
        self.values.append(row[nonzero])
        self.indptr.append(self.indptr[-1] + len(nonzero))

    def tocsr(self, width) -> sp.csr_array:
        return sp.csr_array((np.concatenate(self.values), np.concatenate(self.indices),
                             np.asarray(self.indptr)), shape=(len(self.indptr) - 1, width))


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield line_no, stripped.split()


def load_citation(content_file, cites_file) -> Dataset:
    """Load the two-file citation layout; class ids follow first appearance."""
    names, rows, class_ids = [], _CsrRows(), []
    class_map = {}
    width = None
    for line_no, parts in _data_lines(content_file):
        if len(parts) < 2:
            raise ParseError(content_file, line_no, "expected node_id, features, class_label")
        name, feats, cls = parts[0], parts[1:-1], parts[-1]
        if width is None:
            width = len(feats)
        elif len(feats) != width:
            raise StructuralInputError(
                f"{content_file}:{line_no}: feature width {len(feats)} != {width}")
        try:
            rows.append([float(x) for x in feats])
        except ValueError as exc:
            raise ParseError(content_file, line_no, f"bad feature value ({exc})") from None
        if cls not in class_map:
            class_map[cls] = len(class_map)
        names.append(name)
        class_ids.append(class_map[cls])
    if width is None:
        raise StructuralInputError(f"{content_file}: no data rows")

    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise StructuralInputError(f"{content_file}: duplicate node ids")

    edges, skipped, raw_rows = [], 0, 0
    for line_no, parts in _data_lines(cites_file):
        if len(parts) != 2:
            raise ParseError(cites_file, line_no, "expected cited_id citing_id")
        a, b = index.get(parts[0]), index.get(parts[1])
        if a is None or b is None:
            skipped += 1
            continue
        raw_rows += 1
        edges.append((a, b))
    if skipped:
        log.warning("%s: skipped %d citation rows with unknown node ids", cites_file, skipped)

    graph = build_graph(len(names), edges)
    return Dataset(graph=graph, features=rows.tocsr(width),
                   labels=np.asarray(class_ids, dtype=np.int64),
                   num_classes=len(class_map), node_names=names,
                   num_citation_rows=raw_rows, skipped_citations=skipped)


def planetoid_split(ds: Dataset, per_class=20, num_val=500, num_test=1000, seed=0) -> Split:
    """Fixed-count-per-class train set, then val/test from the remainder."""
    rng = stream(seed, "planetoid_split")
    train_parts = []
    for cls in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == cls)
        if len(members) < per_class:
            raise ConfigError(
                f"class {cls} has {len(members)} nodes, needs {per_class} for the train set")
        train_parts.append(rng.choice(members, size=per_class, replace=False))
    train = np.concatenate(train_parts)
    pool = np.setdiff1d(np.arange(ds.graph.num_nodes), train)
    if len(pool) < num_val + num_test:
        raise ConfigError(
            f"{len(pool)} nodes remain after the train draw, need {num_val + num_test}")
    perm = rng.permutation(pool)
    return Split(train=train, val=perm[:num_val], test=perm[num_val:num_val + num_test])


def ratio_split(ds: Dataset, train_frac, val_frac, test_frac, seed=0) -> Split:
    """Unstratified uniform split; floors each count, remainder goes to test."""
    fracs = (train_frac, val_frac, test_frac)
    if min(fracs) <= 0:
        raise ConfigError(f"split fractions must be positive, got {fracs}")
    total = sum(fracs)
    if total > 1.0 + 1e-9:
        raise ConfigError(f"split fractions sum to {total} > 1")
    n = ds.graph.num_nodes
    n_train, n_val, n_test = (int(np.floor(n * f)) for f in fracs)
    if abs(total - 1.0) <= 1e-9:
        n_test = n - n_train - n_val
    perm = stream(seed, "ratio_split").permutation(n)
    return Split(train=perm[:n_train], val=perm[n_train:n_train + n_val],
                 test=perm[n_train + n_val:n_train + n_val + n_test])


def load_split_file(path, num_nodes=None) -> Split:
    """Read a split.tsv of (node_id, train|val|test) rows."""
    sets = {"train": [], "val": [], "test": []}
    for line_no, parts in _data_lines(path):
        if len(parts) != 2 or parts[1] not in sets:
            raise ParseError(path, line_no, "expected `node_id train|val|test`")
        node = int(parts[0])
        if num_nodes is not None and not 0 <= node < num_nodes:
            raise ParseError(path, line_no, f"node id {node} out of range")
        sets[parts[1]].append(node)
    return Split(train=np.array(sets["train"], dtype=np.int64),
                 val=np.array(sets["val"], dtype=np.int64),
                 test=np.array(sets["test"], dtype=np.int64))


def generate_synthetic(num_nodes, num_classes, edges_per_node, homophily_target,
                       feature_dim, feature_noise, seed) -> Dataset:
    """Random graph with a tunable same-label edge rate.

    Every node draws `edges_per_node` partners; a partner shares the node's
    label with probability `homophily_target`, otherwise it is uniform over
    the other classes. Features are a noisy one-hot class signature.
    """
    if not 0.0 <= homophily_target <= 1.0:
        raise ConfigError(f"homophily_target must be in [0, 1], got {homophily_target}")
    if feature_dim < num_classes:
        raise ConfigError(
            f"feature_dim {feature_dim} cannot encode {num_classes} classes")
    if not 0.0 <= feature_noise <= 1.0:
        raise ConfigError(f"feature_noise must be in [0, 1], got {feature_noise}")
    rng = stream(seed, "synthetic")
    labels = rng.integers(0, num_classes, size=num_nodes).astype(np.int64)
    members = [np.flatnonzero(labels == c) for c in range(num_classes)]

    edges = []
    for node in range(num_nodes):
        for _ in range(edges_per_node):
            partner = None
            for _ in range(_PARTNER_RETRIES):
                want_same = rng.random() < homophily_target
                pool = members[labels[node]]
                if want_same and len(pool) > 1:
                    partner = int(pool[rng.integers(len(pool))])
                    while partner == node:
                        partner = int(pool[rng.integers(len(pool))])
                    break
                if not want_same and len(pool) < num_nodes:
                    partner = int(rng.integers(num_nodes))
                    while labels[partner] == labels[node]:
                        partner = int(rng.integers(num_nodes))
                    break
            if partner is None:
                raise ConfigError(
                    f"node {node} (class {labels[node]}) has no valid partner pool")
            edges.append((node, partner))

    base = np.zeros((num_nodes, feature_dim), dtype=np.float64)
    base[np.arange(num_nodes), labels] = 1.0
    noise_mask = rng.random((num_nodes, feature_dim)) < feature_noise
    bits = rng.integers(0, 2, size=(num_nodes, feature_dim)).astype(np.float64)
    features = np.where(noise_mask, bits, base)

    return Dataset(graph=build_graph(num_nodes, edges), features=features,
                   labels=labels, num_classes=num_classes)


def row_normalize_features(ds: Dataset) -> Dataset:
    """Scale each nonzero feature row to sum to 1; zero rows stay zero."""
    scaled = ds.features.copy()
    sums = scaled.sum(axis=1)
    sums[sums == 0] = 1.0
    scaled.data /= np.repeat(sums, np.diff(scaled.indptr))
    return replace(ds, features=scaled)


def save_generic(ds: Dataset, directory, split: Split | None = None):
    """Write the generic directory layout (deterministic byte-for-byte)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "edges.tsv", "w", encoding="utf-8") as fh:
        for j, k in ds.graph.edges:
            fh.write(f"{j}\t{k}\n")
    with open(directory / "features.tsv", "w", encoding="utf-8") as fh:
        # dense blocks of rows: every zero is written, as in the file layout
        for start in range(0, ds.graph.num_nodes, _SAVE_BLOCK_ROWS):
            for row in ds.features[start:start + _SAVE_BLOCK_ROWS].toarray():
                fh.write("\t".join("%.17g" % x for x in row) + "\n")
    with open(directory / "labels.tsv", "w", encoding="utf-8") as fh:
        for lab in ds.labels:
            fh.write(f"{lab}\n")
    if split is not None:
        with open(directory / "split.tsv", "w", encoding="utf-8") as fh:
            for name in ("train", "val", "test"):
                for node in getattr(split, name):
                    fh.write(f"{node}\t{name}\n")


def load_generic(directory) -> Dataset:
    directory = Path(directory)
    rows, width = _CsrRows(), None
    for line_no, parts in _data_lines(directory / "features.tsv"):
        try:
            values = [float(x) for x in parts]
        except ValueError as exc:
            raise ParseError(directory / "features.tsv", line_no, str(exc)) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise StructuralInputError(f"{directory}/features.tsv: ragged feature rows")
        rows.append(values)
    if width is None:
        raise StructuralInputError(f"{directory}/features.tsv: no data rows")
    features = rows.tocsr(width)

    labels = []
    for line_no, parts in _data_lines(directory / "labels.tsv"):
        if len(parts) != 1:
            raise ParseError(directory / "labels.tsv", line_no, "expected one label per row")
        labels.append(int(parts[0]))
    labels = np.asarray(labels, dtype=np.int64)

    edges = []
    edges_path = directory / "edges.tsv"
    if edges_path.exists():
        for line_no, parts in _data_lines(edges_path):
            if len(parts) != 2:
                raise ParseError(edges_path, line_no, "expected two integer columns")
            edges.append((int(parts[0]), int(parts[1])))

    graph = build_graph(features.shape[0], edges)
    return Dataset(graph=graph, features=features, labels=labels,
                   num_classes=int(labels.max()) + 1 if len(labels) else 0)


def load_dataset(path) -> Dataset:
    """Auto-detect the layout at `path` (generic directory or citation pair)."""
    path = Path(path)
    if path.is_dir():
        if (path / "features.tsv").exists():
            return load_generic(path)
        contents = sorted(path.glob("*.content"))
        if contents:
            stem = contents[0].with_suffix("")
            return load_citation(contents[0], stem.with_suffix(".cites"))
        raise ConfigError(f"{path}: no features.tsv or *.content file found")
    if path.suffix == ".content":
        return load_citation(path, path.with_suffix(".cites"))
    raise ConfigError(f"{path}: not a dataset directory or .content file")
