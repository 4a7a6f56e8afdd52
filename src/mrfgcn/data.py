"""Dataset loading, node splits, and synthetic graph generation.

Two on-disk layouts are supported:

* citation pair: ``<name>.content`` rows are
  ``node_id f_1 ... f_k class_label`` and ``<name>.cites`` rows are
  ``cited_id citing_id``;
* generic directory: ``edges.tsv`` (two integer columns),
  ``features.tsv`` (one row of reals per node), ``labels.tsv`` (one
  integer per node) and optionally ``split.tsv`` (node_id and one of
  train/val/test).

Files are UTF-8, whitespace-separated; blank lines and lines starting
with ``#`` are ignored (a ``#`` later in a row is data, and an error).

Every numeric table (feature columns, labels, edges, split ids) goes
through one block reader, ``_read_table``: blocks of about
``_BLOCK_VALUES`` values, each parsed by one ``np.loadtxt`` call. Reals
take numpy's syntax: optional sign, digits with an optional point,
optional exponent. Integers are decimal digits with an optional sign.
Spellings only Python takes (``1_000``, non-ASCII digits) are errors, as
is ``1.0`` where an integer is expected. Values must be finite: ``nan``,
``inf`` and overflowing values such as ``1e999`` are rejected with their
line rather than trained on. Integers are never negative, and node ids
(edge endpoints, split ids) lie in [0, number of nodes). When a block
breaks a rule, the same call is repeated line by line to name the first
bad line. ``labels.tsv`` holds one row per feature row, and ``split.tsv``
lists each node at most once. Node features are held as a CSR matrix:
each dense block's nonzeros are appended to its values and column
arrays, so one dense block exists at a time and the finished CSR is
never held twice. Each append reallocates both (``ndarray.resize``), a
cost that grows faster than the value count: tens of ms of a Pubmed load.
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
_BLOCK_VALUES = 1 << 17   # values per dense block, parsed by the loaders or written by save_generic


@dataclass(eq=False)
class Dataset:
    graph: Graph
    features: sp.csr_array   # (n, f) float64 CSR; dense input is converted
    labels: np.ndarray       # (n,) int64 in [0, num_classes)
    num_classes: int
    num_citation_rows: int | None = None   # raw resolved cite lines, pre-dedup

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


def _data_lines(path):
    """Yield (line_no, stripped line) for the rows of `path` that carry data."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield line_no, stripped


def _loadtxt(lines, dtype):
    """The one parse call, for a block of rows and for a single row alike."""
    if not any(lines):   # .content rows without feature columns; loadtxt drops them
        return np.zeros((len(lines), 0), dtype)
    # comments=None: a '#' inside a row is data, as in _data_lines
    return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)


def _parse_line(path, line_no, text, dtype, what):
    """One row through the block parser's call; a value it rejects names `line_no`."""
    try:
        return _loadtxt([text], dtype)
    except ValueError as exc:
        detail = str(exc).partition(" at row ")[0]
        raise ParseError(path, line_no, f"bad {what} ({detail})") from None


def _read_table(path, rows, dtype, width, width_error, what, upper=None):
    """Parse (line_no, text) rows of `width` numbers into 2-D blocks.

    `width` None takes the first row's token count. Each block of about
    _BLOCK_VALUES values goes through one `_loadtxt` call. Every value
    must be finite and, when `upper` is given, lie in [0, upper). A block
    that fails, comes back with another shape or breaks a value rule is
    parsed again line by line to raise the error of its first bad line:
    `width_error(line_no, found, width)`, or a ParseError for a value.
    """
    def valid(values):
        return np.isfinite(values).all() and (
            upper is None or 0 <= values.min() and values.max() < upper)

    def parse(line_nos, lines):
        try:
            block = _loadtxt(lines, dtype)
            if block.shape == (len(lines), width) and valid(block):
                return block
        except ValueError:
            pass
        for line_no, text in zip(line_nos, lines):
            found = len(text.split())
            if found != width:
                raise width_error(line_no, found, width)
            row = _parse_line(path, line_no, text, dtype, what)
            if not np.isfinite(row).all():
                raise ParseError(path, line_no, f"non-finite {what}")
            if not valid(row):
                value = row[(row < 0) | (row >= upper)][0]
                raise ParseError(path, line_no, f"{what} {value} out of range")
        raise StructuralInputError(f"{path}:{line_nos[0]}: rows do not parse as one table")

    line_nos, lines, block_rows = [], [], None
    for line_no, text in rows:
        if block_rows is None:
            width = len(text.split()) if width is None else width
            block_rows = -(-_BLOCK_VALUES // max(width, 1))
        line_nos.append(line_no)
        lines.append(text)
        if len(lines) >= block_rows:
            yield parse(line_nos, lines)
            line_nos, lines = [], []
    if lines:
        yield parse(line_nos, lines)


def _read_features(path, rows, width_error) -> sp.csr_array | None:
    """CSR of the feature rows (None when there are none), one dense block at a time."""
    values, columns = np.zeros(0), np.zeros(0, np.int64)
    counts, width = [np.zeros(1, np.int64)], None
    for block in _read_table(path, rows, np.float64, None, width_error, "feature value"):
        block_rows, block_columns = np.nonzero(block)
        start, end = len(values), len(values) + len(block_columns)
        # resize reallocates and copies; no view of either exists (refcheck=False)
        values.resize(end, refcheck=False)
        columns.resize(end, refcheck=False)
        values[start:] = block[block_rows, block_columns]
        columns[start:] = block_columns
        counts.append(np.count_nonzero(block, axis=1))
        width = block.shape[1]
    if width is None:
        return None
    indptr = np.cumsum(np.concatenate(counts))
    return sp.csr_array((values, columns, indptr), shape=(len(indptr) - 1, width))


def _read_ints(path, width, what, message, rows=None, upper=np.inf) -> np.ndarray:
    """(rows, width) int64 table of `rows` (default: the file's data lines),
    each value in [0, upper); a row of another width raises ParseError(message)."""
    def width_error(line_no, found, expected):
        return ParseError(path, line_no, message)
    rows = _data_lines(path) if rows is None else rows
    blocks = list(_read_table(path, rows, np.int64, width, width_error, what, upper))
    return np.concatenate(blocks) if blocks else np.zeros((0, width), np.int64)


def load_citation(content_file, cites_file) -> Dataset:
    """Load the two-file citation layout; class ids follow first appearance."""
    names, class_ids, class_map, short_rows = [], [], {}, []

    def feature_rows():
        # only the feature substring of a row reaches the block reader; a row
        # too short to hold a name and a class ends the rows, and is reported
        # after the rows before it, which may hold an earlier error
        for line_no, text in _data_lines(content_file):
            name, *rest = text.split(None, 1)
            if not rest:
                short_rows.append(line_no)
                return
            head = rest[0].rsplit(None, 1)
            names.append(name)
            class_ids.append(class_map.setdefault(head[-1], len(class_map)))
            yield line_no, head[0] if len(head) == 2 else ""

    def width_error(line_no, found, width):
        return StructuralInputError(f"{content_file}:{line_no}: feature width {found} != {width}")

    features = _read_features(content_file, feature_rows(), width_error)
    if short_rows:
        raise ParseError(content_file, short_rows[0], "expected node_id, features, class_label")
    if features is None:
        raise StructuralInputError(f"{content_file}: no data rows")

    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise StructuralInputError(f"{content_file}: duplicate node ids")

    ends, skipped = [], 0   # endpoint pairs, flattened
    for line_no, text in _data_lines(cites_file):
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(cites_file, line_no, "expected cited_id citing_id")
        a, b = index.get(parts[0]), index.get(parts[1])
        if a is None or b is None:
            skipped += 1
            continue
        ends += (a, b)
    if skipped:
        log.warning("%s: skipped %d citation rows with unknown node ids", cites_file, skipped)
    edges = np.array(ends, dtype=np.int64).reshape(-1, 2)
    raw_rows = len(edges)

    graph = build_graph(len(names), edges)
    return Dataset(graph=graph, features=features,
                   labels=np.asarray(class_ids, dtype=np.int64),
                   num_classes=len(class_map), num_citation_rows=raw_rows)


def planetoid_split(ds: Dataset, per_class=20, num_val=500, num_test=1000, seed=0) -> Split:
    """Fixed-count-per-class train set, then val/test from the remainder."""
    for name, count in (("per_class", per_class), ("num_val", num_val),
                        ("num_test", num_test)):
        if count < 0:
            raise ConfigError(f"{name} must be non-negative, got {count}")
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


def check_ratio_fractions(*fracs) -> float:
    """The sum of a ratio split's fractions: each finite and positive, the sum at most 1."""
    if not np.isfinite(fracs).all():
        raise ConfigError(f"split fractions must be finite, got {fracs}")
    if min(fracs) <= 0:
        raise ConfigError(f"split fractions must be positive, got {fracs}")
    total = sum(fracs)
    if total > 1.0 + 1e-9:
        raise ConfigError(f"split fractions sum to {total} > 1")
    return total


def ratio_split(ds: Dataset, train_frac, val_frac, test_frac, seed=0) -> Split:
    """Unstratified uniform split; floors each count, remainder goes to test."""
    fracs = (train_frac, val_frac, test_frac)
    total = check_ratio_fractions(*fracs)
    n = ds.graph.num_nodes
    n_train, n_val, n_test = (int(np.floor(n * f)) for f in fracs)
    if abs(total - 1.0) <= 1e-9:
        n_test = n - n_train - n_val
    perm = stream(seed, "ratio_split").permutation(n)
    return Split(train=perm[:n_train], val=perm[n_train:n_train + n_val],
                 test=perm[n_train + n_val:n_train + n_val + n_test])


def load_split_file(path, num_nodes) -> Split:
    """Read a split.tsv of (node_id, train|val|test) rows; ids are read as in edges.tsv.

    The ids go through the block reader, which holds them to [0, num_nodes).
    A row that is not `node_id train|val|test` ends the ids, and is
    reported after the rows before it, which may hold an earlier error.
    Once every id has parsed, the first row that lists a node again is
    reported with the line that listed it first.
    """
    message = "expected `node_id train|val|test`"
    kinds, line_nos, bad_rows = [], [], []

    def id_rows():
        for line_no, text in _data_lines(path):
            parts = text.split()
            if len(parts) != 2 or parts[1] not in ("train", "val", "test"):
                bad_rows.append(line_no)
                return
            kinds.append(parts[1])
            line_nos.append(line_no)
            yield line_no, parts[0]

    ids = _read_ints(path, 1, "node id", message, id_rows(), num_nodes)[:, 0]
    if bad_rows:
        raise ParseError(path, bad_rows[0], message)
    unique, first = np.unique(ids, return_index=True)
    if len(unique) < len(ids):
        again = np.setdiff1d(np.arange(len(ids)), first)[0]
        earlier = first[np.searchsorted(unique, ids[again])]
        raise ParseError(path, line_nos[again], f"node {ids[again]} listed again "
                                                f"(first on line {line_nos[earlier]})")
    kind_of = np.array(kinds, dtype=str)
    return Split(train=ids[kind_of == "train"], val=ids[kind_of == "val"],
                 test=ids[kind_of == "test"])


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
    features = ds.features
    sums = features.sum(axis=1)
    sums[sums == 0] = 1.0
    values = np.repeat(sums, np.diff(features.indptr))
    np.divide(features.data, values, out=values)
    scaled = sp.csr_array((values, features.indices, features.indptr), shape=features.shape)
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
        rows = max(1, _BLOCK_VALUES // max(ds.num_features, 1))
        for start in range(0, ds.graph.num_nodes, rows):
            for row in ds.features[start:start + rows].toarray():
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

    def width_error(line_no, found, width):
        return StructuralInputError(f"{directory}/features.tsv: ragged feature rows")

    features_path = directory / "features.tsv"
    features = _read_features(features_path, _data_lines(features_path), width_error)
    if features is None:
        raise StructuralInputError(f"{directory}/features.tsv: no data rows")
    n = features.shape[0]
    labels = _read_ints(directory / "labels.tsv", 1, "label", "expected one label per row")[:, 0]
    if len(labels) != n:
        raise StructuralInputError(
            f"{directory}/labels.tsv: {len(labels)} label rows for {n} feature rows")
    edges_path = directory / "edges.tsv"
    edges = (_read_ints(edges_path, 2, "node id", "expected two integer columns", upper=n)
             if edges_path.exists() else np.zeros((0, 2), np.int64))
    return Dataset(graph=build_graph(n, edges), features=features, labels=labels,
                   num_classes=int(labels.max()) + 1)


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
