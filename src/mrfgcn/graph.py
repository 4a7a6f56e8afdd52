"""Immutable undirected graph storage and structural queries.

Edges are stored once as (j, k) with j < k, deduplicated and free of
self-loops; edge ids are their position in lexicographic order. A CSR
neighbor layout is kept alongside, in which every undirected edge
appears twice (once per orientation). The CSR view also records, for
each directed slot, its center and the undirected edge id, which the
factor code uses for per-piece bookkeeping, and each node's degree.
`build_graph` fills every field once, read-only; how the star pieces
are cut into blocks and summed back is `factors.PieceBuffers`'s.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, StructuralInputError


@dataclass(frozen=True)
class Graph:
    num_nodes: int
    edges: np.ndarray        # (E, 2) int64, j < k, lexicographically sorted
    indptr: np.ndarray       # (n+1,) CSR row pointers over directed slots
    indices: np.ndarray      # (2E,) neighbor of the slot's center node
    slot_edge_ids: np.ndarray  # (2E,) undirected edge id of each slot
    degrees: np.ndarray      # (n,) slots per center, np.diff(indptr)
    slot_centers: np.ndarray  # (2E,) center node of every slot (CSR row expansion)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _unique_edges(pairs, n):
    """The distinct (j, k), j < k, of in-range pairs, in lexicographic order.

    A pair is keyed j * n + k, which orders keys as (j, k) orders pairs; the
    largest key, n * n - 1, fits in int64 for any n below 3e9. Sorting and
    dropping repeats is several times faster here than np.unique, which
    hashes integer keys.
    """
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.sort(np.minimum(pairs[:, 0], pairs[:, 1]) * n
                   + np.maximum(pairs[:, 0], pairs[:, 1]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack([keys // n, keys % n], axis=1)


def build_graph(num_nodes, raw_edges) -> Graph:
    """Normalize raw pairs into a Graph.

    Self-loops are dropped, duplicates (in either orientation) merged, and
    edge ids assigned lexicographically by (j, k).
    """
    if num_nodes < 0:
        raise StructuralInputError(f"num_nodes must be non-negative, got {num_nodes}")
    pairs = np.asarray(list(raw_edges) if not isinstance(raw_edges, np.ndarray) else raw_edges,
                       dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise StructuralInputError("raw_edges must be a sequence of (j, k) pairs")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= num_nodes).any(axis=1)][0]
        raise StructuralInputError(
            f"edge endpoint out of range [0, {num_nodes}): {tuple(int(x) for x in bad)}")

    n = np.int64(num_nodes)
    edges = _unique_edges(pairs, n)

    num_edges = len(edges)
    slots_center = np.concatenate([edges[:, 0], edges[:, 1]])
    slots_leaf = np.concatenate([edges[:, 1], edges[:, 0]])
    slots_eid = np.concatenate([np.arange(num_edges), np.arange(num_edges)]).astype(np.int64)

    # slot keys are distinct, so every sort gives this one order
    order = np.argsort(slots_center * n + slots_leaf)
    slots_center = slots_center[order]
    slots_leaf = slots_leaf[order]
    slots_eid = slots_eid[order]

    counts = np.bincount(slots_center, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    for arr in (edges, indptr, slots_leaf, slots_eid, counts, slots_center):
        arr.flags.writeable = False
    return Graph(num_nodes=int(num_nodes), edges=edges, indptr=indptr, indices=slots_leaf,
                 slot_edge_ids=slots_eid, degrees=counts, slot_centers=slots_center)


def normalized_adjacency_operator(g: Graph) -> sp.csr_array:
    """Symmetrically normalized adjacency with self-connections, as CSR.

    Entry (i, j) is 1/sqrt((d(i)+1)(d(j)+1)) when j is a neighbor of i or
    i == j, else 0.
    """
    inv_sqrt = 1.0 / np.sqrt(g.degrees + 1.0)
    centers = g.slot_centers
    rows = np.concatenate([centers, np.arange(g.num_nodes, dtype=np.int64)])
    cols = np.concatenate([g.indices, np.arange(g.num_nodes, dtype=np.int64)])
    vals = inv_sqrt[rows] * inv_sqrt[cols]
    return sp.csr_array((vals, (rows, cols)), shape=(g.num_nodes, g.num_nodes))


def homophily_beta(g: Graph, labels) -> float:
    """Mean fraction of same-label neighbors, over nodes that have neighbors."""
    labels = np.asarray(labels)
    if labels.shape != (g.num_nodes,):
        raise StructuralInputError(
            f"labels must have one entry per node, got shape {labels.shape}")
    if g.num_edges == 0:
        raise DegenerateInputError("homophily is undefined on a graph with no edges")
    same = (labels[g.slot_centers] == labels[g.indices]).astype(np.float64)
    same_counts = np.bincount(g.slot_centers, weights=same, minlength=g.num_nodes)
    deg = g.degrees
    has_nb = deg > 0
    return float(np.mean(same_counts[has_nb] / deg[has_nb]))
