"""Graph representation, dataset ingestion, and subgraph machinery.

Graphs are undirected, stored in CSR form with every edge present in both
directions and no self-loops.  Node features, integer class labels and the
train/val/test masks live alongside the structure so that a single object
can be handed to the partitioning, augmentation and training stages.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import GadError

UNLABELED = -1


def _unique(a) -> np.ndarray:
    """``np.unique`` of a 1-D int64 array by sort and adjacent mask, several times faster."""
    a = np.sort(np.asarray(a, dtype=np.int64).ravel())
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _csr_from_pairs(num_nodes: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build symmetric CSR (offsets, targets) from an array of (u, v) pairs.

    Self-loops are dropped, duplicates removed, and both directions stored.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        if pairs.min() < 0 or pairs.max() >= num_nodes:
            raise GadError("edge endpoint out of range")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # one key u*n + v per direction sorts as the (u, v) rows would
    key = _unique(np.concatenate([pairs[:, 0] * num_nodes + pairs[:, 1],
                                  pairs[:, 1] * num_nodes + pairs[:, 0]]))
    u, v = np.divmod(key, num_nodes)
    return csr_offsets(np.bincount(u, minlength=num_nodes)), v.astype(np.int64, copy=False)


def csr_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of rows holding ``counts`` entries: 0, then their running sum."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def csr_rows(offsets: np.ndarray) -> np.ndarray:
    """Row id of every CSR entry: row u repeated once per entry it owns."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with features, labels and split masks."""

    num_nodes: int
    offsets: np.ndarray        # int64, len num_nodes + 1
    targets: np.ndarray        # int64, len 2 * num_edges
    features: np.ndarray       # float64, (num_nodes, feature_dim)
    labels: np.ndarray         # int64, UNLABELED where unknown
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    node_names: tuple[str, ...] | None = None
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.num_nodes
        if self.offsets.shape != (n + 1,):
            raise GadError("offsets length must be num_nodes + 1")
        if self.offsets[-1] != len(self.targets):
            raise GadError("offsets[-1] must equal len(targets)")
        if np.any(np.diff(self.offsets) < 0):
            raise GadError("offsets must be nondecreasing")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise GadError("feature row count must match num_nodes")
        for name in ("labels", "train_mask", "val_mask", "test_mask"):
            if getattr(self, name).shape != (n,):
                raise GadError(f"{name} length must be num_nodes")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise GadError("train/val/test masks must be pairwise disjoint")

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.targets) // 2

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels != UNLABELED]
        return int(labeled.max()) + 1 if labeled.size else 0

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, u: int) -> np.ndarray:
        return self.targets[self.offsets[u]:self.offsets[u + 1]]

    @cached_property
    def rows(self) -> np.ndarray:
        """Source node of every entry of ``targets`` (cached)."""
        return csr_rows(self.offsets)

    def edge_list(self) -> np.ndarray:
        """Unique undirected edges as an (m, 2) array with u < v, sorted."""
        keep = self.rows < self.targets
        return np.stack([self.rows[keep], self.targets[keep]], axis=1)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        pairs: np.ndarray,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        train_mask: np.ndarray | None = None,
        val_mask: np.ndarray | None = None,
        test_mask: np.ndarray | None = None,
        node_names: tuple[str, ...] | None = None,
        class_names: tuple[str, ...] | None = None,
    ) -> "Graph":
        offsets, targets = _csr_from_pairs(num_nodes, np.asarray(pairs))
        if features is None:
            features = np.zeros((num_nodes, 1))
        features = np.asarray(features, dtype=np.float64)
        if labels is None:
            labels = np.full(num_nodes, UNLABELED, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)

        def _mask(m):
            return np.zeros(num_nodes, dtype=bool) if m is None else np.asarray(m, dtype=bool)

        return cls(
            num_nodes=num_nodes,
            offsets=offsets,
            targets=targets,
            features=features,
            labels=labels,
            train_mask=_mask(train_mask),
            val_mask=_mask(val_mask),
            test_mask=_mask(test_mask),
            node_names=node_names,
            class_names=class_names,
        )


@dataclass(frozen=True, eq=False)
class SubgraphView:
    """Induced subgraph over a subset of a parent graph's nodes.

    ``local_ids`` maps local index -> global node id (sorted ascending);
    ``owned`` marks nodes that belong to this partition, as opposed to
    replicas copied in from elsewhere.
    """

    graph: Graph
    local_ids: np.ndarray      # int64 global ids, ascending
    owned: np.ndarray          # bool per local node
    offsets: np.ndarray        # local CSR
    targets: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.local_ids)

    @property
    def num_edges(self) -> int:
        return len(self.targets) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def rows(self) -> np.ndarray:
        """Local source node of every entry of ``targets`` (cached)."""
        return csr_rows(self.offsets)

    @property
    def owned_ids(self) -> np.ndarray:
        return self.local_ids[self.owned]

    @property
    def replica_ids(self) -> np.ndarray:
        return self.local_ids[~self.owned]

    def local_labels(self) -> np.ndarray:
        return self.graph.labels[self.local_ids]

    def local_train_mask(self) -> np.ndarray:
        """Training mask restricted to owned nodes (replicas never enter the loss)."""
        return self.graph.train_mask[self.local_ids] & self.owned

    def edge_list_global(self) -> np.ndarray:
        """Local edges as global-id pairs with u < v, sorted."""
        gu = self.local_ids[self.rows]
        gv = self.local_ids[self.targets]
        keep = gu < gv
        out = np.stack([gu[keep], gv[keep]], axis=1)
        order = np.lexsort((out[:, 1], out[:, 0]))
        return out[order]


def gather_rows(g: Graph, node_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(offsets, targets)`` of ``g``'s rows ``node_ids``, in that order.

    Only those rows are read: the cost is their entry count, not ``g``'s.
    """
    starts = g.offsets[node_ids]
    counts = g.offsets[node_ids + 1] - starts
    offsets = csr_offsets(counts)
    # entry e of row r sits at g.offsets[node_ids[r]] + (e - offsets[r])
    at = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
    return offsets, g.targets[at]


def induce_subgraph(g: Graph, node_ids, owned_ids) -> SubgraphView:
    """Subgraph of ``g`` induced by ``node_ids``; ``owned_ids`` flags ownership.

    Requires owned_ids to be a subset of node_ids; all edges of ``g`` with
    both endpoints inside ``node_ids`` are kept.  Only the members' own CSR
    rows are read, not all of ``g``'s entries.
    """
    node_ids = _unique(node_ids)
    owned_ids = _unique(owned_ids)
    if node_ids.size and (node_ids[0] < 0 or node_ids[-1] >= g.num_nodes):
        raise GadError("node id out of range")
    if not np.isin(owned_ids, node_ids).all():
        raise GadError("owned_ids must be a subset of node_ids")

    local_of = np.full(g.num_nodes, -1, dtype=np.int64)
    local_of[node_ids] = np.arange(len(node_ids))

    span, targets = gather_rows(g, node_ids)
    local = local_of[targets]
    keep = local >= 0
    rows_l = csr_rows(span)[keep]
    cols_l = local[keep]

    offsets = csr_offsets(np.bincount(rows_l, minlength=len(node_ids)))
    # rows_l never falls, so the (row, col) keys are in order, as they are
    # whenever g's rows are sorted, unless a column falls within a row
    if ((np.diff(rows_l) == 0) & (np.diff(cols_l) < 0)).any():
        cols_l = cols_l[np.lexsort((cols_l, rows_l))]

    owned = np.zeros(len(node_ids), dtype=bool)
    owned[local_of[owned_ids]] = True
    return SubgraphView(
        graph=g,
        local_ids=node_ids,
        owned=owned,
        offsets=offsets,
        targets=cols_l,
    )


def normalized_adjacency(sub: SubgraphView) -> sp.csr_matrix:
    """Symmetric-normalized adjacency with self-loops over ``sub``, in CSR.

    Entry (i, j) is 1/sqrt((d_i + 1)(d_j + 1)) with d the local degree;
    diagonal entries are 1/(d_i + 1).
    """
    n = sub.num_nodes
    dinv = 1.0 / np.sqrt(sub.degrees + 1.0)
    data = dinv[sub.rows] * dinv[sub.targets]
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([sub.rows, diag])
    cols = np.concatenate([sub.targets, diag])
    data = np.concatenate([data, dinv * dinv])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def full_view(g: Graph) -> SubgraphView:
    """The whole graph as a SubgraphView with every node owned."""
    ids = np.arange(g.num_nodes, dtype=np.int64)
    return SubgraphView(
        graph=g,
        local_ids=ids,
        owned=np.ones(g.num_nodes, dtype=bool),
        offsets=g.offsets.copy(),
        targets=g.targets.copy(),
    )


def make_split_masks(
    num_nodes: int, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint train/val/test masks from fractions via a seeded shuffle.

    Sizes are floor(fraction * num_nodes); leftover nodes stay unassigned.
    """
    f = tuple(float(x) for x in fractions)
    if any(x < 0 for x in f) or sum(f) > 1.0 + 1e-9:
        raise GadError("split fractions must be nonnegative and sum to <= 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_nodes)
    sizes = [int(np.floor(x * num_nodes)) for x in f]
    masks = []
    start = 0
    for s in sizes:
        m = np.zeros(num_nodes, dtype=bool)
        m[perm[start:start + s]] = True
        masks.append(m)
        start += s
    return masks[0], masks[1], masks[2]


def _apply_split(num_nodes, split_spec, seed):
    if (
        isinstance(split_spec, (tuple, list))
        and len(split_spec) == 3
        and all(np.isscalar(x) for x in split_spec)
    ):
        return make_split_masks(num_nodes, tuple(split_spec), seed)
    train, val, test = (np.asarray(m, dtype=bool) for m in split_spec)
    return train, val, test


def _read_edge_pairs(path, name_to_idx) -> np.ndarray:
    """Index pairs of an edge file: one ``u v`` per line, ``#`` starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        text = re.sub(r"#[^\n]*", "", fh.read())
    lines = text.split("\n")
    counts = np.array([len(ln.split()) for ln in lines], dtype=np.int64)
    ends = np.cumsum(counts)
    bad = np.flatnonzero((counts != 0) & (counts != 2))
    # an unknown id before the first malformed line is reported first
    tokens = text.split()[:ends[bad[0]] - counts[bad[0]]] if bad.size else text.split()
    try:
        idx = np.fromiter(map(name_to_idx.__getitem__, tokens), np.int64, count=len(tokens))
    except KeyError as exc:
        lineno = np.searchsorted(ends, tokens.index(exc.args[0]), side="right") + 1
        raise GadError(f"{path}:{lineno}: unknown node id {exc.args[0]!r}") from None
    if bad.size:
        raise GadError(f"{path}:{bad[0] + 1}: expected 'u v', got {lines[bad[0]].strip()!r}")
    return idx.reshape(-1, 2)


def _parses(lines) -> bool:
    """Whether ``np.loadtxt`` reads every one of ``lines`` as float64 values."""
    try:
        np.loadtxt(lines, dtype=np.float64, comments=None)
    except ValueError:
        return False
    return True


def _parse_feature_rows(rows, path, dim=None, int_labels=False):
    """Parse 'id v1 ... vD label' rows; returns (names, features, labels).

    One ``np.loadtxt`` call parses all values.  If it fails, a width is off
    or a label is not an integer (with ``int_labels``), the loop below reads
    the rows one by one and raises for the first bad one.
    """
    heads = [line.split(None, 1) for _, line in rows]
    tails = [h[-1].rsplit(None, 1) for h in heads]
    if rows and all(len(t) == 2 for t in tails):
        try:
            feats = np.loadtxt([t[0] for t in tails], dtype=np.float64, ndmin=2, comments=None)
            labels = [int(t[1]) if int_labels else t[1] for t in tails]
            if dim in (None, feats.shape[1]):
                return [h[0] for h in heads], feats, labels
        except ValueError:
            pass
    for lineno, line in rows:
        parts = line.split()
        if len(parts) < 3:
            raise GadError(f"{path}:{lineno}: malformed feature row")
        if dim is None:
            dim = len(parts) - 2
        if len(parts) != dim + 2:
            raise GadError(
                f"{path}:{lineno}: inconsistent feature dimension "
                f"(expected {dim}, got {len(parts) - 2})"
            )
        if not _parses(parts[1:-1]):
            tok = next(t for t in parts[1:-1] if not _parses([t]))
            raise GadError(f"{path}:{lineno}: feature value {tok!r} is not a number")
        try:
            int(parts[-1]) if int_labels else None
        except ValueError:
            raise GadError(f"{path}:{lineno}: label {parts[-1]!r} is not an integer") from None
    return [], np.zeros(0), []   # reached only without rows


def load_dataset(edge_path, feature_path, split_spec, seed: int) -> Graph:
    """Load a graph from an edge-list file plus a feature file.

    The feature file is either the native format (a JSON header line
    ``{"num_nodes": N, "dim": D, "classes": C}`` followed by N rows of
    ``id v1 ... vD label`` with integer labels) or the Cora ``.content``
    layout (same rows, string labels, no header).  Node ids are arbitrary
    strings interned in file order.  Values are read by NumPy's parser, so
    ``1_0`` and non-ASCII digits are rejected; only the edge file may hold
    ``#`` comments.  A native label of ``UNLABELED`` (-1) keeps its node out
    of all three split masks.
    """
    feature_path = Path(feature_path)
    with open(feature_path, "r", encoding="utf-8") as fh:
        lines = [(i, s) for i, ln in enumerate(fh.read().split("\n"), 1) if (s := ln.strip())]
    if not lines:
        raise GadError(f"{feature_path}: empty feature file")

    class_names: tuple[str, ...] | None = None
    if lines[0][1].startswith("{"):
        try:
            header = json.loads(lines[0][1])
            dim, num_nodes, n_classes = (int(header[k]) for k in ("dim", "num_nodes", "classes"))
        except KeyError as exc:
            raise GadError(f"{feature_path}:1: header has no {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:   # JSONDecodeError is a ValueError
            raise GadError(f"{feature_path}:1: malformed header ({exc})") from None
        names, feats, labels = _parse_feature_rows(
            lines[1:], feature_path, dim=dim, int_labels=True
        )
        if len(names) != num_nodes:
            raise GadError(f"{feature_path}: row count does not match header")
        labels = np.array(labels, dtype=np.int64)
        if labels.size and (labels.min() < UNLABELED or labels.max() >= n_classes):
            raise GadError(f"{feature_path}: label outside 0..classes-1")
    else:
        names, feats, raw_labels = _parse_feature_rows(lines, feature_path)
        class_names = tuple(sorted(set(raw_labels)))
        lut = {c: i for i, c in enumerate(class_names)}
        labels = np.array([lut[x] for x in raw_labels], dtype=np.int64)

    if len(set(names)) != len(names):
        raise GadError(f"{feature_path}: duplicate node id")
    name_to_idx = {name: i for i, name in enumerate(names)}
    pairs = _read_edge_pairs(edge_path, name_to_idx)
    labeled = labels != UNLABELED
    train, val, test = (m & labeled for m in _apply_split(len(names), split_spec, seed))
    return Graph.from_edges(
        num_nodes=len(names),
        pairs=pairs,
        features=feats,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        node_names=tuple(names),
        class_names=class_names,
    )

