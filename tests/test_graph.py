import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from gad.augment import replication_budget
from gad.errors import GadError
from gad.graph import (
    Graph,
    _csr_from_pairs,
    csr_rows,
    full_view,
    induce_subgraph,
    load_dataset,
    make_split_masks,
    normalized_adjacency,
)

import loader_oracle


def _graph(pairs, n=None, **kw):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(pairs.max()) + 1 if pairs.size else 1
    return Graph.from_edges(n, pairs, **kw)


def triangle():
    return _graph([[0, 1], [1, 2], [0, 2]])


def test_dedup_and_symmetry():
    # "0 1\n1 0\n0 1" collapses to one undirected edge
    g = _graph([[0, 1], [1, 0], [0, 1]], n=2)
    assert g.num_edges == 1
    assert g.degrees.tolist() == [1, 1]
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0]


def test_self_loops_dropped():
    g = _graph([[0, 0], [0, 1], [2, 2]], n=3)
    assert g.num_edges == 1


def test_degree_sum_twice_edges():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pairs = rng.integers(0, 30, size=(60, 2))
        g = _graph(pairs, n=30)
        assert g.degrees.sum() == 2 * g.num_edges


def test_edge_list_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, 40, size=(120, 2))
    g = _graph(pairs, n=40)
    rebuilt = Graph.from_edges(40, g.edge_list())
    assert np.array_equal(g.offsets, rebuilt.offsets)
    assert np.array_equal(g.targets, rebuilt.targets)


def _csr_unique_rows(num_nodes, pairs):
    """Reference CSR: both directions, deduplicated by np.unique over rows."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    both = np.unique(np.concatenate([pairs, pairs[:, ::-1]]), axis=0)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(both[:, 0], minlength=num_nodes), out=offsets[1:])
    return offsets, both[:, 1]


class TestCsrFromPairs:
    @pytest.mark.parametrize(
        "num_nodes, pairs",
        [
            (4, [[0, 1], [0, 1], [1, 0], [2, 3], [3, 2], [3, 2]]),   # duplicates, reversed
            (3, [[0, 0], [1, 1], [1, 2], [2, 2]]),                   # self-loops
            (3, [[1, 1]]),                                            # only a self-loop
            (5, np.zeros((0, 2), dtype=np.int64)),                    # no edges
            (1, np.zeros((0, 2), dtype=np.int64)),                    # single node
            (1, [[0, 0]]),                                            # single node, self-loop
        ],
    )
    def test_matches_unique_rows(self, num_nodes, pairs):
        offsets, targets = _csr_from_pairs(num_nodes, pairs)
        want_offsets, want_targets = _csr_unique_rows(num_nodes, pairs)
        assert offsets.dtype == targets.dtype == np.int64
        assert offsets.tolist() == want_offsets.tolist()
        assert targets.tolist() == want_targets.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_multigraph_matches_unique_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        pairs = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
        pairs = np.concatenate([pairs, pairs[: len(pairs) // 2, ::-1]])   # reversed repeats
        offsets, targets = _csr_from_pairs(n, pairs)
        want_offsets, want_targets = _csr_unique_rows(n, pairs)
        assert np.array_equal(offsets, want_offsets)
        assert np.array_equal(targets, want_targets)


def test_masks_disjoint_enforced():
    m = np.zeros(3, dtype=bool)
    bad = m.copy()
    bad[0] = True
    with pytest.raises(GadError):
        Graph.from_edges(3, np.zeros((0, 2)), train_mask=bad, val_mask=bad)


class TestArrayLengths:
    def test_short_labels_rejected(self):
        with pytest.raises(GadError, match="labels length"):
            Graph.from_edges(3, [[0, 1]], labels=np.array([0, 1]))

    def test_masks_of_one_wrong_length_rejected(self):
        m = np.zeros(4, dtype=bool)
        with pytest.raises(GadError, match="train_mask length"):
            Graph.from_edges(3, [[0, 1]], train_mask=m, val_mask=m, test_mask=m)

    def test_masks_of_mixed_lengths_rejected(self):
        # a GadError, not numpy's broadcasting ValueError from the overlap check
        with pytest.raises(GadError, match="val_mask length"):
            Graph.from_edges(3, [[0, 1]], train_mask=np.zeros(3, bool), val_mask=np.zeros(2, bool))

    def test_feature_rows_checked(self):
        with pytest.raises(GadError, match="feature row count"):
            Graph.from_edges(3, [[0, 1]], features=np.zeros((2, 4)))
        with pytest.raises(GadError, match="feature row count"):
            dataclasses.replace(triangle(), features=np.zeros(3))   # 1-D

    @pytest.mark.parametrize(
        "targets", [[2, 1, 0, 2, 0, 1], [1, 1, 0, 2, 0, 1], [1, 2, 2, 0, 1, 0]]
    )
    def test_rows_must_ascend(self, targets):
        # a falling or repeated target inside a row; the steps across the
        # row starts (2 -> 0, 2 -> 0) are allowed
        g = triangle()
        with pytest.raises(GadError, match="targets must ascend"):
            dataclasses.replace(g, targets=np.array(targets, dtype=np.int64))
        assert g.targets.tolist() == [1, 2, 0, 2, 0, 1]

    def test_rows_follow_csr(self):
        rng = np.random.default_rng(2)
        g = _graph(rng.integers(0, 25, size=(70, 2)), n=27)   # nodes 25, 26 isolated
        expect = [u for u in range(g.num_nodes) for _ in g.neighbors(u)]
        assert g.rows.tolist() == expect
        assert csr_rows(np.zeros(1, dtype=np.int64)).tolist() == []


class TestDensity:
    """The density 2|e| / (|v| (|v| - 1)) as it scales the replication
    budget ceil(alpha * (1 + density) * |v|), here with alpha 1."""

    @staticmethod
    def budget(g):
        return replication_budget(g.num_nodes, g.num_edges, 1.0)

    def test_complete_graph(self):
        k4 = _graph([[a, b] for a in range(4) for b in range(a + 1, 4)])
        assert self.budget(k4) == 8   # density 1

    def test_path4(self):
        assert self.budget(_graph([[0, 1], [1, 2], [2, 3]])) == 6   # density 0.5

    def test_single_node(self):
        assert self.budget(_graph([], n=1)) == 1   # density 0

    def test_monotone_in_edges(self):
        # fixed node count, growing edge set
        all_pairs = [[a, b] for a in range(6) for b in range(a + 1, 6)]
        budgets = [self.budget(_graph(all_pairs[:m], n=6)) for m in range(len(all_pairs) + 1)]
        assert budgets == sorted(budgets) and (budgets[0], budgets[-1]) == (6, 12)


class TestInduceSubgraph:
    def test_triangle_pair(self):
        sub = induce_subgraph(triangle(), [0, 1], [0, 1])
        assert sub.num_edges == 1

    def test_identity(self):
        g = _graph(np.random.default_rng(2).integers(0, 20, (50, 2)), n=20)
        sub = induce_subgraph(g, np.arange(20), np.arange(20))
        assert sub.num_edges == g.num_edges

    def test_star_leaves_only(self):
        star = _graph([[0, i] for i in range(1, 5)])
        sub = induce_subgraph(star, [1, 2, 3], [1, 2, 3])
        assert sub.num_edges == 0

    def test_owned_flags(self):
        sub = induce_subgraph(triangle(), [0, 1, 2], [1])
        assert sub.owned.tolist() == [False, True, False]
        assert sub.owned_ids.tolist() == [1]
        assert sorted(sub.replica_ids.tolist()) == [0, 2]

    def test_out_of_range(self):
        with pytest.raises(GadError):
            induce_subgraph(triangle(), [0, 7], [0])

    def test_owned_must_be_subset(self):
        with pytest.raises(GadError):
            induce_subgraph(triangle(), [0, 1], [2])

    def test_edges_match_brute_force(self):
        rng = np.random.default_rng(3)
        g = _graph(rng.integers(0, 25, (80, 2)), n=25)
        ids = np.unique(rng.integers(0, 25, 10))
        sub = induce_subgraph(g, ids, ids)
        expected = sum(
            1 for u, v in g.edge_list() if u in set(ids) and v in set(ids)
        )
        assert sub.num_edges == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_mask_rule(self, seed):
        # the rule reads only the members' CSR rows; the reference masks all
        # 2m entries of g, and both must give the same offsets and targets
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = _graph(rng.integers(0, n, (int(rng.integers(0, 4 * n + 1)), 2)), n=n)
        if seed % 2:
            # targets in another order inside some CSR row are rejected
            targets = g.targets.copy()
            for u in range(n):
                rng.shuffle(targets[g.offsets[u]:g.offsets[u + 1]])
            if not np.array_equal(targets, g.targets):
                with pytest.raises(GadError, match="targets must ascend"):
                    Graph(n, g.offsets, targets, g.features, g.labels,
                          g.train_mask, g.val_mask, g.test_mask)
        subsets = [[], [int(rng.integers(0, n))], np.arange(n)]
        subsets += [rng.integers(0, n, int(rng.integers(1, 2 * n + 1))) for _ in range(5)]
        for ids in subsets:
            sub = induce_subgraph(g, ids, ids)
            offsets, targets = _induce_by_mask(g, ids)
            assert np.array_equal(sub.offsets, offsets)
            assert np.array_equal(sub.targets, targets)
            assert sub.offsets.dtype == sub.targets.dtype == np.int64
            # g's edges inside ids, as global (u, v) pairs in lexicographic order
            edges = g.edge_list()
            edges = edges[np.isin(edges, ids).all(axis=1)]
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            assert np.array_equal(sub.edge_list_global(), edges)


def _induce_by_mask(g, node_ids):
    """Local CSR of the subgraph induced by ``node_ids``, masking every entry of g."""
    node_ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    member = np.zeros(g.num_nodes, dtype=bool)
    member[node_ids] = True
    local_of = np.full(g.num_nodes, -1, dtype=np.int64)
    local_of[node_ids] = np.arange(len(node_ids))
    keep = member[g.rows] & member[g.targets]
    rows_l = local_of[g.rows[keep]]
    cols_l = local_of[g.targets[keep]]
    offsets = np.zeros(len(node_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_l, minlength=len(node_ids)), out=offsets[1:])
    return offsets, cols_l[np.lexsort((cols_l, rows_l))]


class TestNormalizedAdjacency:
    def test_isolated_node(self):
        g = _graph([], n=1)
        mat = normalized_adjacency(full_view(g)).toarray()
        np.testing.assert_allclose(mat, [[1.0]])

    def test_single_edge(self):
        g = _graph([[0, 1]])
        mat = normalized_adjacency(full_view(g)).toarray()
        np.testing.assert_allclose(mat, [[0.5, 0.5], [0.5, 0.5]])

    def test_k3_all_one_third(self):
        # hand computation: degrees 2, so every entry 1/sqrt(3*3) = 1/3
        mat = normalized_adjacency(full_view(triangle())).toarray()
        np.testing.assert_allclose(mat, np.full((3, 3), 1.0 / 3.0))

    def test_exact_symmetry_and_finite(self):
        rng = np.random.default_rng(4)
        g = _graph(rng.integers(0, 30, (90, 2)), n=30)
        mat = normalized_adjacency(full_view(g))
        diff = (mat - mat.T).toarray()
        assert np.abs(diff).max() == 0.0
        assert np.isfinite(mat.toarray()).all()

    def test_local_degrees_used(self):
        # triangle induced to one edge: local degrees are 1, not 2
        sub = induce_subgraph(triangle(), [0, 1], [0, 1])
        mat = normalized_adjacency(sub).toarray()
        np.testing.assert_allclose(mat, [[0.5, 0.5], [0.5, 0.5]])


class TestSplitMasks:
    def test_sizes_and_disjoint(self):
        tr, va, te = make_split_masks(100, (0.45, 0.18, 0.37), seed=5)
        assert (tr.sum(), va.sum(), te.sum()) == (45, 18, 37)
        assert not (tr & va).any() and not (tr & te).any() and not (va & te).any()

    def test_deterministic(self):
        a = make_split_masks(50, (0.5, 0.2, 0.3), seed=9)
        b = make_split_masks(50, (0.5, 0.2, 0.3), seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_bad_fractions(self):
        with pytest.raises(GadError):
            make_split_masks(10, (0.8, 0.3, 0.2), seed=0)
        with pytest.raises(GadError):
            make_split_masks(10, (0.5, 0.2), seed=0)


class TestLoaders:
    def _write_native(self, tmp_path, rows, edges):
        feat = tmp_path / "features.txt"
        header = {"num_nodes": len(rows), "dim": len(rows[0][1]), "classes": 2}
        with open(feat, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, vec, label in rows:
                fh.write(f"{name} {' '.join(map(str, vec))} {label}\n")
        edge = tmp_path / "edges.txt"
        with open(edge, "w") as fh:
            fh.write("# comment line\n")
            for u, v in edges:
                fh.write(f"{u} {v}\n")
        return edge, feat

    def test_native_round_trip(self, tmp_path):
        rows = [("a", [1.0, 0.0], 0), ("b", [0.0, 1.0], 1), ("c", [1.0, 1.0], 0)]
        edge, feat = self._write_native(tmp_path, rows, [("a", "b"), ("b", "c")])
        g = load_dataset(edge, feat, (0.34, 0.33, 0.33), seed=0)
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.feature_dim == 2
        assert g.node_names == ("a", "b", "c")
        assert g.labels.tolist() == [0, 1, 0]

    def test_unlabeled_nodes_left_out_of_split(self, tmp_path):
        # every 5th node is UNLABELED; the split covers every node
        rows = [(f"n{i}", [float(i % 3), 1.0], -1 if i % 5 == 0 else i % 2) for i in range(30)]
        edge, feat = self._write_native(tmp_path, rows, [("n0", "n1"), ("n1", "n2")])
        split = (0.5, 0.2, 0.3)
        g = load_dataset(edge, feat, split, seed=3)
        labeled = g.labels != -1
        assert (~labeled).sum() == 6
        for got, drawn in zip((g.train_mask, g.val_mask, g.test_mask),
                              make_split_masks(30, split, 3)):
            assert np.array_equal(got, drawn & labeled)
        assert not (g.train_mask | g.val_mask | g.test_mask)[~labeled].any()

    def test_unknown_edge_id(self, tmp_path):
        rows = [("a", [1.0], 0), ("b", [0.0], 1)]
        edge, feat = self._write_native(tmp_path, rows, [("a", "zzz")])
        with pytest.raises(GadError, match="unknown node id"):
            load_dataset(edge, feat, (0.5, 0.25, 0.25), seed=0)

    def test_inconsistent_feature_dim(self, tmp_path):
        feat = tmp_path / "bad.content"
        feat.write_text("a 1 0 red\nb 1 blue\n")
        edge = tmp_path / "e.cites"
        edge.write_text("a b\n")
        with pytest.raises(GadError, match="inconsistent feature dimension"):
            load_dataset(edge, feat, (0.5, 0.25, 0.25), seed=0)

    def test_content_layout_string_labels(self, tmp_path):
        feat = tmp_path / "toy.content"
        feat.write_text("31336 1 0 1 Neural_Networks\n1061127 0 1 1 Rule_Learning\n")
        edge = tmp_path / "toy.cites"
        edge.write_text("31336 1061127\n")
        g = load_dataset(edge, feat, (0.5, 0.5, 0.0), seed=1)
        assert g.num_nodes == 2
        assert g.class_names == ("Neural_Networks", "Rule_Learning")
        assert g.num_edges == 1

    @pytest.mark.parametrize("body", ["", "\n\n", "# only a comment\n", "  # indented\n\t\n# two\n"])
    def test_empty_edge_file_no_warning(self, tmp_path, body):
        feat = tmp_path / "toy.content"
        feat.write_text("a 1 0 x\nb 0 1 y\n")
        edge = tmp_path / "toy.cites"
        edge.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_dataset(edge, feat, (0.5, 0.5, 0.0), seed=0)
        assert g.num_nodes == 2 and g.num_edges == 0
        assert g.offsets.tolist() == [0, 0, 0] and g.targets.dtype == np.int64

    @pytest.mark.parametrize(
        "rows, lineno, match",
        [
            ("a 1 0 x\n\nb 1 oops y\n", 3, "feature value 'oops' is not a number"),
            ("a 1 0 x\nb 1_0 1 y\n", 2, "feature value '1_0' is not a number"),
            ("a 1e 0 x\nb 1 1 y\n", 1, "feature value '1e' is not a number"),
            # float() reads a non-ASCII digit, so the oracle cannot judge these
            ("a 1 0 x\nb \u0663 1 y\n", 2, "feature value '\u0663' is not a number"),
            ("a \u0663 0 x\nb 1 1 y\n", 1, "feature value '\u0663' is not a number"),
        ],
    )
    def test_non_numeric_value_names_line(self, tmp_path, rows, lineno, match):
        feat = tmp_path / "toy.content"
        feat.write_text(rows, encoding="utf-8")
        edge = tmp_path / "toy.cites"
        edge.write_text("a b\n")
        with pytest.raises(GadError, match=f"toy.content:{lineno}: {match}"):
            load_dataset(edge, feat, (0.5, 0.5, 0.0), seed=0)

    def test_non_integer_label_names_line(self, tmp_path):
        feat = tmp_path / "features.txt"
        feat.write_text('{"num_nodes": 2, "dim": 1, "classes": 2}\na 1 0\n\nb 0 one\n')
        edge = tmp_path / "edges.txt"
        edge.write_text("a b\n")
        with pytest.raises(GadError, match="features.txt:4: label 'one' is not an integer"):
            load_dataset(edge, feat, (0.5, 0.5, 0.0), seed=0)


# spellings of the same whitespace, line ends and values that both loaders must read alike
_SEPS = [" ", "\t", "  ", " \t ", "\t\t"]
_ENDS = ["\n", "\r\n"]
_VALUE_FORMS = [
    lambda x: f"{x:.6f}", lambda x: f"{x:e}", lambda x: f"{x:.3E}", lambda x: repr(x),
    lambda x: f"{-abs(x):g}", lambda x: str(int(x)), lambda x: "inf", lambda x: "-inf",
    lambda x: "nan", lambda x: "-Infinity", lambda x: f"+{abs(x):.2f}",
]


def _noise_lines(rng, end):
    """Zero to two blank or whitespace-only lines."""
    return "".join(rng.choice(["", " ", "\t", " \t  "]) + end for _ in range(rng.integers(0, 3)))


def _random_dataset(tmp_path, seed, layout, digits=False, integers=False):
    """Seeded random feature and edge files in ``layout`` ('native' or 'content').

    With ``digits``, every value is one of ``0``-``9``, one space or tab
    from the next, as in Cora's word columns; for every third seed, one row
    (when there are two values or more) has a wider gap between two values.
    With ``integers``, every node name is an integer as ``str`` writes it:
    a dense span around 0 with one gap on even seeds, a sparse one on odd
    seeds, over all of int64 on every fourth.
    Returns (edge_path, feature_path, feature_lines, edge_lines): the lines
    as written, so that a test can break one of them and write them again.
    """
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 25)), int(rng.integers(1, 6))
    if not integers:
        names = [f"{rng.choice(['n', 'paper-', 'x.', ''])}{i * 7 + 3}" for i in rng.permutation(n)]
    elif seed % 2 == 0:   # n of the n + 1 integers around 0, one inside missing
        names = [str(v) for v in rng.permutation(np.delete(np.arange(n + 1), rng.integers(1, n)))
                 - n // 2]
    else:
        top = 2**63 - 1 if seed % 4 == 3 else 10**6
        pool = np.unique(np.r_[-top - 1, top, rng.integers(-top, top, 3 * n, endpoint=True)])
        names = [str(v) for v in rng.choice(pool, n, replace=False)]
    classes = ["Neural_Networks", "Rule_Learning", "Theory", "x"]
    end = _ENDS[seed % 2]
    wide = int(rng.integers(n)) if digits and d > 1 and seed % 3 == 0 else -1

    def row(cells, gaps=None):
        lead = rng.choice(["", " ", "\t"])
        if gaps is None:
            gaps = [str(rng.choice(_SEPS)) for _ in cells[:-1]]
        return lead + "".join(c + g for c, g in zip(cells, gaps)) + cells[-1]

    feature_lines = []
    if layout == "native":
        feature_lines.append(json.dumps({"num_nodes": n, "dim": d, "classes": 3}))
    for i, name in enumerate(names):
        gaps = None
        if digits:
            values = [str(x) for x in rng.integers(0, 10, d)]
            gaps = [str(rng.choice(_SEPS))] + [str(rng.choice(_SEPS[:2])) for _ in range(d - 1)]
            if i == wide:
                gaps[1 + rng.integers(d - 1)] = str(rng.choice(_SEPS[2:]))
            gaps.append(str(rng.choice(_SEPS)))
        else:
            values = [_VALUE_FORMS[rng.integers(len(_VALUE_FORMS))](float(x))
                      for x in rng.normal(0, 10, d)]
        label = str(rng.integers(-1, 3)) if layout == "native" else str(rng.choice(classes))
        feature_lines.append(row([name] + values + [label], gaps))
    edge_lines = []
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        u, v = rng.choice(names, 2)
        edge_lines.append(row([u, v]) + rng.choice(["", " # inline", "\t#x y z", "#"]))
        if rng.random() < 0.2:
            edge_lines.append(rng.choice(["# whole line", "   # indented", "#"]))
    return (*_write_dataset(tmp_path, layout, feature_lines, edge_lines, rng, end),
            feature_lines, edge_lines)


def _write_dataset(tmp_path, layout, feature_lines, edge_lines, rng=None, end="\n"):
    rng = rng or np.random.default_rng(0)
    feat = tmp_path / ("features.txt" if layout == "native" else "toy.content")
    edge = tmp_path / ("edges.txt" if layout == "native" else "toy.cites")
    for path, lines in ((feat, feature_lines), (edge, edge_lines)):
        text = "".join(_noise_lines(rng, end) + ln + end for ln in lines)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + _noise_lines(rng, end))
    return edge, feat


def _assert_same_graph(a, b):
    for name in ("offsets", "targets", "features", "labels", "train_mask", "val_mask", "test_mask"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
        assert x.flags.c_contiguous, name
    assert a.num_nodes == b.num_nodes
    assert a.node_names == b.node_names
    assert a.class_names == b.class_names


def _load_both(edge, feat, seed):
    """Each loader's Graph, or the text of the GadError it raised."""
    out = []
    for load in (load_dataset, loader_oracle.load_dataset):
        try:
            out.append(load(edge, feat, (0.4, 0.3, 0.3), seed))
        except GadError as exc:
            out.append(str(exc))
    return out


class TestLoaderOracle:
    """``load_dataset`` against the row-by-row parser in ``loader_oracle``."""

    DIGITS = False     # the value mode of every _random_dataset here
    INTEGERS = False   # and its name mode

    def _dataset(self, tmp_path, seed, layout):
        return _random_dataset(tmp_path, seed, layout, self.DIGITS, self.INTEGERS)

    @pytest.mark.parametrize("layout", ["native", "content"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_files_identical(self, tmp_path, seed, layout):
        edge, feat, _, _ = self._dataset(tmp_path, seed, layout)
        new, old = _load_both(edge, feat, seed)
        assert not isinstance(old, str), old
        _assert_same_graph(new, old)

    # each fault breaks a valid random dataset at a line picked by the seed;
    # f holds the feature rows (the header excluded), e the edge lines
    FAULTS = {
        "malformed row": lambda rng, f, e: _edit_row(rng, f, lambda p: p[:1]),
        "two-token row": lambda rng, f, e: _edit_row(rng, f, lambda p: p[:1] + p[-1:]),
        "short row": lambda rng, f, e: _edit_row(rng, f, lambda p: p[:-2] + p[-1:]),
        "long row": lambda rng, f, e: _edit_row(rng, f, lambda p: p[:-1] + ["1", p[-1]]),
        "duplicate id": lambda rng, f, e: _edit_row(rng, f, lambda p: f[0].split()[:1] + p[1:]),
        "missing row": lambda rng, f, e: f.pop(int(rng.integers(len(f)))),
        "no rows": lambda rng, f, e: f.clear(),
        "one-token edge": lambda rng, f, e: _insert(rng, e, "a0"),
        "three-token edge": lambda rng, f, e: _insert(rng, e, "a b c # note"),
        "unknown id": lambda rng, f, e: _insert(rng, e, f"{f[-1].split()[0]}\tnobody"),
        "unknown then malformed": lambda rng, f, e: e.extend(["nobody x", "a b c"]),
        "malformed then unknown": lambda rng, f, e: e.extend(["a b c", "nobody x"]),
        "unknown twice": lambda rng, f, e: e.extend(["# c", "ghost ghost", "ghost"]),
    }

    @pytest.mark.parametrize("layout", ["native", "content"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_errors_identical(self, tmp_path, seed, fault, layout):
        rng = np.random.default_rng(seed)
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, seed, layout)
        first = 1 if layout == "native" else 0
        rows = feature_lines[first:]
        self.FAULTS[fault](rng, rows, edge_lines)
        edge, feat = _write_dataset(tmp_path, layout, feature_lines[:first] + rows, edge_lines, rng)
        new, old = _load_both(edge, feat, seed)
        if isinstance(old, str):
            assert new == old
        else:   # the fault left a valid file: a dropped row no edge named, say
            _assert_same_graph(new, old)

    @pytest.mark.parametrize("text", ["", "\n", " \t\r\n\n  \n"])
    def test_empty_feature_file_identical(self, tmp_path, text):
        feat = tmp_path / "toy.content"
        with open(feat, "w", newline="") as fh:
            fh.write(text)
        edge = tmp_path / "toy.cites"
        edge.write_text("")
        new, old = _load_both(edge, feat, 0)
        assert new == old == f"{feat}: empty feature file"

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_header_width_mismatch_identical(self, tmp_path, delta):
        # every row agrees with every other, but not with the header's dim
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, 4, "native")
        header = json.loads(feature_lines[0])
        header["dim"] += delta
        feature_lines[0] = json.dumps(header)
        edge, feat = _write_dataset(tmp_path, "native", feature_lines, edge_lines)
        new, old = _load_both(edge, feat, 4)
        assert new == old and "inconsistent feature dimension" in old

    def test_label_out_of_range_identical(self, tmp_path):
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, 1, "native")
        feature_lines[-1] = feature_lines[-1].rsplit(None, 1)[0] + " 3"
        edge, feat = _write_dataset(tmp_path, "native", feature_lines, edge_lines)
        new, old = _load_both(edge, feat, 1)
        assert new == old == f"{feat}: label outside 0..classes-1"


class TestDigitLoaderOracle(TestLoaderOracle):
    """The same checks on files of one-digit values, which are read from their bytes."""

    DIGITS = True

    # near misses of the one-digit layout, in the first row (turned away at
    # its second character) or the last (turned away by the row check)
    NEAR_MISSES = {
        "two-digit value": lambda p: p[:1] + ["10"] + p[2:],
        "negative value": lambda p: p[:1] + ["-1"] + p[2:],
        "one value short": lambda p: p[:-2] + p[-1:],
        # the row keeps its length: a digit stands where a gap was
        "values run together": lambda p: p[:2] + [p[2] + "0" + p[3]] + p[4:],
    }

    @pytest.mark.parametrize("layout", ["native", "content"])
    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("miss", sorted(NEAR_MISSES))
    def test_digit_near_misses_identical(self, tmp_path, miss, where, layout):
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, 4, layout)
        first = 1 if layout == "native" else 0
        rows = feature_lines[first:]
        assert len(rows[where].split()) > 4   # three values or more
        rows[where] = " ".join(self.NEAR_MISSES[miss](rows[where].split()))
        edge, feat = _write_dataset(tmp_path, layout, feature_lines[:first] + rows, edge_lines)
        new, old = _load_both(edge, feat, 4)
        if miss in ("one value short", "values run together"):
            assert new == old and "inconsistent feature dimension" in old
        else:
            _assert_same_graph(new, old)


class TestIntegerLoaderOracle(TestLoaderOracle):
    """The same checks on files whose node names are integers as ``str`` writes them."""

    INTEGERS = True

    # other spellings of a name v, or ids beyond int64; each stands in one
    # edge line of a valid file, which no name then matches
    SPELLINGS = {
        "zero-padded": lambda v: f"-0{v[1:]}" if v.startswith("-") else f"00{v}",
        "plus sign": lambda v: f"+{v}",
        "minus zero": lambda v: "-0",
        "underscore": lambda v: f"{v}_0",
        "beyond int64": lambda v: "9" * 20,
        "below int64": lambda v: "-" + "9" * 20,
        "float": lambda v: f"{v}.0",
        "non-ASCII digit": lambda v: "\u0663",
    }

    @pytest.mark.parametrize("layout", ["native", "content"])
    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    @pytest.mark.parametrize("seed", range(4))
    def test_other_spellings_identical(self, tmp_path, seed, spelling, layout):
        rng = np.random.default_rng(seed)
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, seed, layout)
        names = [line.split()[0] for line in feature_lines[layout == "native":]]
        _insert(rng, edge_lines, f"{names[-1]} {self.SPELLINGS[spelling](names[0])} # odd")
        edge, feat = _write_dataset(tmp_path, layout, feature_lines, edge_lines, rng)
        new, old = _load_both(edge, feat, seed)
        assert new == old and "unknown node id" in old

    @staticmethod
    def _pair_dataset(tmp_path, line):
        """A ``.content`` file named 1000, 7, 0 and int64's lowest value, and ``line`` as its edges."""
        names = ["1000", "7", "0", str(-2**63)]
        feature_lines = [f"{name} {i}.5 -{i}e-3 Theory" for i, name in enumerate(names)]
        return _write_dataset(tmp_path, "content", feature_lines, ["1000 0", line])

    # pairs whose lengths cancel: numpy < 2 reads a token its integer parser
    # refuses as a float, '1e3' as 1000 and one beyond int64 as its lowest
    # value, each shorter than str() of what it reads
    @pytest.mark.parametrize("line", ["1e3 +7", "9999999999999999999 -0"])
    def test_cancelling_spellings_identical(self, tmp_path, line):
        new, old = _load_both(*self._pair_dataset(tmp_path, line), 0)
        assert new == old and old.endswith(f"unknown node id {line.split()[0]!r}")

    def test_integer_read_as_float_turned_away(self, tmp_path, monkeypatch):
        # numpy < 2's np.loadtxt, which warns as it reads '1e3' as 1000
        edge, feat = self._pair_dataset(tmp_path, "1e3 +7")
        loadtxt = np.loadtxt

        def numpy1_loadtxt(fname, *args, **kwargs):
            if isinstance(fname, io.StringIO):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                fname = io.StringIO(fname.getvalue().replace("1e3", "1000"))
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr("gad.graph.np.loadtxt", numpy1_loadtxt)
        with pytest.raises(GadError, match="unknown node id '1e3'"):
            load_dataset(edge, feat, (0.4, 0.3, 0.3), 0)

    @pytest.mark.parametrize("where", ["below", "inside", "above"])
    @pytest.mark.parametrize("seed", range(4))
    def test_unknown_ids_identical(self, tmp_path, seed, where):
        # an id that no name holds, below, inside or above the names' span
        rng = np.random.default_rng(seed)
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, seed, "native")
        values = sorted(int(line.split()[0]) for line in feature_lines[1:])
        absent = {"below": values[0] - 1, "above": values[-1] + 1,
                  "inside": next(a + 1 for a, b in zip(values, values[1:]) if b > a + 1)}[where]
        _insert(rng, edge_lines, f"{values[0]} {absent}")
        edge, feat = _write_dataset(tmp_path, "native", feature_lines, edge_lines, rng)
        new, old = _load_both(edge, feat, seed)
        assert new == old and old.endswith(f"unknown node id {str(absent)!r}")

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x0b", "\x1c"])
    @pytest.mark.parametrize("seed", range(4))
    def test_other_spaces_identical(self, tmp_path, seed, space):
        # str.split() splits at each of these spaces, so the file is valid
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, seed, "native")
        names = [line.split()[0] for line in feature_lines[1:]]
        edge_lines.append(f"{names[0]}{space}{names[-1]}\t# caf\u00e9")
        edge, feat = _write_dataset(tmp_path, "native", feature_lines, edge_lines)
        new, old = _load_both(edge, feat, seed)
        assert not isinstance(old, str), old
        _assert_same_graph(new, old)

    # names int() reads but str() does not write, and the id str() writes
    @pytest.mark.parametrize("name, written", [
        ("007", "7"), ("+7", "7"), ("-0", "0"), ("7_0", "70"), ("\u0667", "7"),
    ])
    def test_other_name_spellings_identical(self, tmp_path, name, written):
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, 1, "content")
        names = [line.split()[0] for line in feature_lines]
        assert written not in names
        feature_lines[0] = feature_lines[0].replace(names[0], name, 1)
        edge_lines.append(f"{names[1]} {written}")
        edge, feat = _write_dataset(tmp_path, "content", feature_lines, edge_lines)
        new, old = _load_both(edge, feat, 1)
        assert new == old and old.endswith(f"unknown node id {written!r}")

    @pytest.mark.parametrize("ids", [1, 3])
    def test_every_line_of_one_wrong_width_identical(self, tmp_path, ids):
        _, _, feature_lines, _ = self._dataset(tmp_path, 0, "native")
        names = [line.split()[0] for line in feature_lines[1:]]
        edge_lines = [" ".join(names[i:i + ids]) for i in range(len(names) - ids + 1)]
        edge, feat = _write_dataset(tmp_path, "native", feature_lines, edge_lines)
        new, old = _load_both(edge, feat, 0)
        assert new == old and "expected 'u v'" in old

    def test_name_beyond_int64_identical(self, tmp_path):
        _, _, feature_lines, edge_lines = self._dataset(tmp_path, 2, "content")
        # the first row's name becomes one that int64 cannot hold, in every line
        name = feature_lines[0].split()[0]
        feature_lines, edge_lines = (
            [" ".join("9" * 20 if t == name else t for t in ln.split()) for ln in lines]
            for lines in (feature_lines, edge_lines)
        )
        edge, feat = _write_dataset(tmp_path, "content", feature_lines, edge_lines)
        new, old = _load_both(edge, feat, 2)
        assert not isinstance(old, str), old
        _assert_same_graph(new, old)


class _LoadtxtCalled(Exception):
    pass


def _forbid_loadtxt(monkeypatch):
    """Make ``np.loadtxt``, as ``gad.graph`` reaches it, raise ``_LoadtxtCalled``."""
    def loadtxt(*args, **kwargs):
        raise _LoadtxtCalled
    monkeypatch.setattr("gad.graph.np.loadtxt", loadtxt)


class _DictPathCalled(Exception):
    pass


def _forbid_dict_path(monkeypatch):
    """Make the edge file's dict path, ``gad.graph._named_pairs``, raise ``_DictPathCalled``."""
    def named_pairs(*args):
        raise _DictPathCalled
    monkeypatch.setattr("gad.graph._named_pairs", named_pairs)


class TestDigitRows:
    """Files of one-digit values are read from their bytes, without ``np.loadtxt``."""

    @pytest.mark.parametrize("layout", ["native", "content"])
    def test_one_digit_files_skip_loadtxt(self, tmp_path, monkeypatch, layout):
        edge, feat, _, _ = _random_dataset(tmp_path, 1, layout, digits=True)
        expected = loader_oracle.load_dataset(edge, feat, (0.4, 0.3, 0.3), 1)
        _forbid_loadtxt(monkeypatch)
        _assert_same_graph(load_dataset(edge, feat, (0.4, 0.3, 0.3), 1), expected)

    def test_decimal_file_reaches_loadtxt(self, tmp_path, monkeypatch):
        feat = tmp_path / "features.txt"
        feat.write_text('{"num_nodes": 2, "dim": 2, "classes": 2}\n'
                        "a 1.000000 0.000000 0\nb 0.000000 1.000000 1\n")
        edge = tmp_path / "edges.txt"
        edge.write_text("a b\n")
        _forbid_loadtxt(monkeypatch)
        with pytest.raises(_LoadtxtCalled):
            load_dataset(edge, feat, (0.5, 0.5, 0.0), seed=0)


class TestOneParse:
    """Decimal rows and integer ids each take one ``np.loadtxt`` call, and no dict lookup."""

    @pytest.mark.parametrize("layout", ["native", "content"])
    @pytest.mark.parametrize("seed", range(4))   # dense and sparse spans of names
    def test_one_loadtxt_per_file(self, tmp_path, monkeypatch, seed, layout):
        edge, feat, _, edge_lines = _random_dataset(tmp_path, seed, layout, integers=True)
        expected = loader_oracle.load_dataset(edge, feat, (0.4, 0.3, 0.3), seed)
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr("gad.graph.np.loadtxt",
                            lambda *args, **kwargs: calls.append(args) or loadtxt(*args, **kwargs))
        _forbid_dict_path(monkeypatch)
        _assert_same_graph(load_dataset(edge, feat, (0.4, 0.3, 0.3), seed), expected)
        # the rows as a list of lines, then the edge file's ids, unless it has none
        has_edges = any(ln.split("#")[0].strip() for ln in edge_lines)
        assert [type(a[0]) for a in calls] == [list] + [io.StringIO] * has_edges

    def test_other_spelling_reaches_dict(self, tmp_path, monkeypatch):
        edge, feat, _, _ = _random_dataset(tmp_path, 0, "native", integers=True)
        with open(edge, "a") as fh:
            fh.write("0 007\n")
        _forbid_dict_path(monkeypatch)
        with pytest.raises(_DictPathCalled):
            load_dataset(edge, feat, (0.4, 0.3, 0.3), 0)


def _edit_row(rng, rows, edit):
    """Replace a random row by ``edit`` of its tokens, joined by a space."""
    i = int(rng.integers(len(rows)))
    rows[i] = " ".join(edit(rows[i].split()))


def _insert(rng, lines, line):
    lines.insert(int(rng.integers(len(lines) + 1)), line)
