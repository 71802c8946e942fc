"""Graph representation, dataset ingestion, and subgraph machinery.

Graphs are undirected, stored in CSR form with every edge present in both
directions and no self-loops.  Node features, integer class labels and the
train/val/test masks live alongside the structure so that a single object
can be handed to the partitioning, augmentation and training stages.
"""

from __future__ import annotations

import io
import json
import re
import warnings
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


class Csr:
    """What a symmetric CSR structure derives from its ``offsets`` and ``targets``.

    The base of :class:`Graph`, :class:`SubgraphView` and the partitioner's
    ``CoarseGraph``.  Each row's targets ascend, with no duplicate, which
    :meth:`edge_list` needs to come out sorted: :class:`Graph` rejects other
    rows, and :func:`induce_subgraph` and the partitioner's contraction keep
    the order.
    """

    offsets: np.ndarray
    targets: np.ndarray

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.targets) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def rows(self) -> np.ndarray:
        """Source node of every entry of ``targets`` (cached)."""
        return csr_rows(self.offsets)

    def edge_list(self) -> np.ndarray:
        """Unique undirected edges as an (m, 2) array with u < v, sorted."""
        keep = self.rows < self.targets
        return np.stack([self.rows[keep], self.targets[keep]], axis=1)


@dataclass(frozen=True, eq=False)
class Graph(Csr):
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
        # a step between two entries may fall only where a new row starts
        step = np.diff(self.targets)
        starts = self.offsets[1:-1]
        step[starts[(starts > 0) & (starts < len(self.targets))] - 1] = 1
        if (step <= 0).any():
            raise GadError("each row's targets must ascend")
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
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels != UNLABELED]
        return int(labeled.max()) + 1 if labeled.size else 0

    def neighbors(self, u: int) -> np.ndarray:
        return self.targets[self.offsets[u]:self.offsets[u + 1]]

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
class SubgraphView(Csr):
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
        """Local edges as global-id pairs with u < v, sorted (``local_ids`` ascend)."""
        return self.local_ids[self.edge_list()]


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

    # g's rows ascend and local_of keeps their order, so the local rows do
    offsets = csr_offsets(np.bincount(rows_l, minlength=len(node_ids)))
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
        offsets=g.offsets,
        targets=g.targets,
    )


def make_split_masks(
    num_nodes: int, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint train/val/test masks from fractions via a seeded shuffle.

    Sizes are floor(fraction * num_nodes); leftover nodes stay unassigned.
    """
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or any(x < 0 for x in f) or sum(f) > 1.0 + 1e-9:
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


# the ASCII characters str.split() splits at
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _read_edge_pairs(path, names: list[str]) -> np.ndarray:
    """Index pairs into ``names`` of an edge file: one ``u v`` per line, ``#`` starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        text = re.sub(r"#[^\n]*", "", fh.read())
    pairs = _integer_pairs(text, names)
    return _named_pairs(text, names, path) if pairs is None else pairs


def _named_pairs(text: str, names: list[str], path) -> np.ndarray:
    """The pairs of comment-free ``text``, each id looked up by name; names the first bad line."""
    name_to_idx = {name: i for i, name in enumerate(names)}
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


def _integer_pairs(text: str, names: list[str]) -> np.ndarray | None:
    """The pairs of comment-free ``text`` if every name and id is an integer as ``str`` writes it.

    One ``np.loadtxt`` reads the ids.  Its integer parser also takes
    ``007``, ``+7`` and ``-0``, each longer than ``str`` of its value, so
    every id is spelled as its name exactly when the text's non-space
    characters number the sum of the names' lengths over the ids.  numpy < 2
    reads a token that fails that parser, such as ``1e3`` or one beyond
    int64, as a float, to a value whose name may be longer than the token;
    it warns as it does, so the warning is raised and turned away.  Ids map
    through a table over the names' span, or a sorted search when the span
    is sparse.  Any other text, a miss, a width error or an overflow returns
    None, for the dict path to read or reject.
    """
    # str(v) is ASCII, and the character count below counts bytes
    if not names or not text.isascii():
        return None
    try:
        values = np.fromiter(map(int, names), np.int64, count=len(names))
    except (ValueError, OverflowError):
        return None
    canonical = list(map(str, values.tolist()))
    if names != canonical:
        return None
    width = len(text.encode("ascii").translate(None, _ASCII_SPACE))
    if width == 0:   # np.loadtxt warns on text without data
        return np.zeros((0, 2), dtype=np.int64)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ids = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2,
                             encoding="utf-8")
    except (ValueError, DeprecationWarning):
        return None
    lo, hi = int(values.min()), int(values.max())
    # lines of one or three ids each parse too
    if ids.shape[1] != 2 or ids.min() < lo or ids.max() > hi:
        return None
    # a table of up to 4 entries a name: on planted-50k (500k ids, 50k
    # names) its lookup takes 1.5 ms against the sorted search's 71 ms
    if hi - lo < 4 * len(values):
        table = np.full(hi - lo + 1, -1, dtype=np.int64)
        table[values - lo] = np.arange(len(values))
        idx = table[ids - lo]   # a miss, -1, reads the last name, of another value
    else:   # a sparse span, as Cora's ids up to about 1.2M for 2,708 papers
        order = np.argsort(values)
        idx = order[np.searchsorted(values[order], ids)]
    if (values[idx] != ids).any():
        return None
    lengths = np.fromiter(map(len, canonical), np.int64, count=len(canonical))
    return idx if lengths[idx].sum() == width else None


def _parses(lines) -> bool:
    """Whether ``np.loadtxt`` reads every one of ``lines`` as float64 values."""
    try:
        np.loadtxt(lines, dtype=np.float64, comments=None)
    except ValueError:
        return False
    return True


def _digit_rows(rows):
    """``(names, features, labels)`` of rows of one-digit values, else None.

    Values are one ASCII digit each, one space or tab apart.  Each is its
    byte minus ``ord("0")``, an exact float64, so the array equals
    ``np.loadtxt``'s.  The first row's second value character turns other
    files away before any row is split; any later row of another layout
    returns None.
    """
    first = rows[0][1].split(None, 1)[-1].rsplit(None, 1)[0]
    if first[1:2] not in ("", " ", "\t"):
        return None
    heads = [line.split(None, 1) for _, line in rows]
    tails = [h[-1].rsplit(None, 1) for h in heads]
    if not all(len(t) == 2 for t in tails):
        return None
    width = len(tails[0][0])
    out = np.empty((len(rows), width // 2 + 1))
    for row, (text, _) in zip(out, tails):
        b = text.encode()
        digits = b[::2]
        if (len(b) != width or digits.translate(None, b"0123456789")
                or b[1::2].translate(None, b" \t")):
            return None
        row[:] = np.frombuffer(digits, np.uint8)
    out -= ord("0")
    return [h[0] for h in heads], out, [t[1] for t in tails]


def _table_rows(rows, dim: int):
    """``(names, features, labels)`` of the rows, in one ``np.loadtxt`` call."""
    table = np.loadtxt(
        [line for _, line in rows],
        dtype=[("id", object), ("x", np.float64, (dim,)), ("y", object)],
        comments=None, ndmin=1, encoding="utf-8",
    )
    return table["id"].tolist(), table["x"].copy(), table["y"].tolist()


def _parse_feature_rows(rows, path, dim=None, int_labels=False):
    """Parse 'id v1 ... vD label' rows; returns (names, features, labels).

    One ``np.loadtxt`` call parses the rows whole, unless every value is a
    single digit (see :func:`_digit_rows`).  If it fails, a width differs
    from ``dim`` or the first row's, or a label is not an integer (with
    ``int_labels``), the loop below reads the rows one by one and raises for
    the first bad one.
    """
    width = len(rows[0][1].split()) - 2 if rows else 0
    if width > 0 and dim in (None, width):
        try:
            names, feats, labels = _digit_rows(rows) or _table_rows(rows, width)
            return names, feats, [int(x) for x in labels] if int_labels else labels
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
    ``#`` comments.  One ``np.loadtxt`` call reads all rows; a file whose
    values are all single ASCII digits, one space or tab apart (Cora's 0/1
    words), is converted from its bytes instead, to the values NumPy's
    parser gives.  When every id is an integer as ``str`` writes it, one
    ``np.loadtxt`` call reads the edge file too; other names and spellings
    (``007``, ``+7``) are looked up by name.  Any row or line those calls
    reject is read again one by one, which names the first bad one.  A
    native label of ``UNLABELED`` (-1) keeps its node out of all three
    split masks, which :func:`make_split_masks` draws from the fractions
    ``split_spec``.
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
    pairs = _read_edge_pairs(edge_path, names)
    labeled = labels != UNLABELED
    train, val, test = (m & labeled for m in make_split_masks(len(names), split_spec, seed))
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

