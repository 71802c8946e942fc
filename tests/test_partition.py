import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from partition_oracle import grow_parts_heap

from gad import partition, rngs
from gad.errors import GadError
from gad.graph import Graph
from gad.partition import (
    CoarseGraph,
    Partitioning,
    balance_cap,
    coarsen,
    edge_cut,
    level_zero,
    partition_coarse,
    partition_graph,
    random_balanced_partition,
    uncoarsen,
)
from gad.synthetic import sbm_graph


def _graph(pairs, n=None):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(pairs.max()) + 1 if pairs.size else 1
    return Graph.from_edges(n, pairs)


def two_triangles():
    # bridge between 2 and 3
    return _graph([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])


def brute_force_cut(g, assignment):
    return sum(1 for u, v in g.edge_list() if assignment[u] != assignment[v])


class TestCoarsen:
    def test_single_edge_merges(self):
        levels = coarsen(_graph([[0, 1]]), target_fraction=0.6, seed=0)
        assert levels[-1].num_nodes == 1
        assert levels[-1].node_weight.tolist() == [2]

    def test_max_weight_edge_wins(self):
        # path a-b-c with weights 5 and 1: when b is visited first it must
        # merge across the weight-5 edge
        from gad.partition import _match_heavy_edges

        g = level_zero(_graph([[0, 1], [1, 2]]))
        for u in range(3):
            for pos in range(g.offsets[u], g.offsets[u + 1]):
                v = int(g.targets[pos])
                g.edge_weights[pos] = 5 if {u, v} == {0, 1} else 1

        class VisitB:
            def permutation(self, n):
                return np.array([1, 0, 2])

        partner = _match_heavy_edges(g, VisitB())
        assert partner[1] == 0 and partner[0] == 1
        assert partner[2] == 2

    def test_tie_breaks_to_lowest_id(self):
        from gad.partition import _match_heavy_edges

        # node 1 sees equal-weight edges to 0 and 2: lowest id wins
        g = level_zero(_graph([[0, 1], [1, 2]]))

        class VisitB:
            def permutation(self, n):
                return np.array([1, 0, 2])

        partner = _match_heavy_edges(g, VisitB())
        assert partner[1] == 0

    def test_target_fraction_or_stall(self):
        g = sbm_graph([100, 100], 0.1, 0.01, seed=2)
        levels = coarsen(g, target_fraction=0.2, seed=0)
        shrink_ratios = [
            levels[i + 1].num_nodes / levels[i].num_nodes for i in range(len(levels) - 1)
        ]
        assert levels[-1].num_nodes <= 0.2 * g.num_nodes or all(
            r <= 0.95 for r in shrink_ratios
        )

    def test_node_weight_conserved(self):
        g = sbm_graph([50, 50], 0.1, 0.02, seed=3)
        for level in coarsen(g, 0.2, seed=1):
            assert level.node_weight.sum() == g.num_nodes

    def test_edge_weight_counts_fine_edges(self):
        g = sbm_graph([30, 30], 0.2, 0.05, seed=4)
        levels = coarsen(g, 0.3, seed=2)
        assert len(levels) > 2
        for prev, cur in zip(levels, levels[1:]):
            # each contracted row's columns strictly ascend: sorted, no duplicate (row, col)
            assert (np.diff(cur.rows * cur.num_nodes + cur.targets) > 0).all()
            # total coarse edge weight + internalized weight == total fine weight
            fine_total = prev.edge_weights.sum()
            coarse_total = cur.edge_weights.sum()
            f2c = cur.fine_to_coarse
            internal = 0
            rows = np.repeat(np.arange(prev.num_nodes), prev.degrees)
            internal = prev.edge_weights[(f2c[rows] == f2c[prev.targets])].sum()
            assert coarse_total + internal == fine_total

    def test_levels_hold_only_their_arrays(self):
        # no level keeps a row id per entry once it is contracted
        g = sbm_graph([200, 200], 0.1, 0.01, seed=4)
        tracemalloc.start()
        levels = coarsen(g, 0.1, seed=2)
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        tracemalloc.stop()
        assert len(levels) > 3
        own = sum(a.nbytes for lv in levels
                  for a in (lv.offsets, lv.targets, lv.edge_weights, lv.node_weight, lv.fine_to_coarse)
                  if a is not None and a is not g.offsets and a is not g.targets)
        assert sum(t.size for t in arrays.traces) == own

    def test_edgeless_graph_stops(self):
        levels = coarsen(_graph([], n=5), 0.2, seed=0)
        assert levels[-1].num_nodes == 5

    def test_contract_ids_follow_first_member(self):
        # coarse ids are handed out in id order of each pair's smaller node
        from gad.partition import _contract

        g = level_zero(_graph([[0, 3], [1, 2], [2, 4], [3, 4]]))
        partner = np.array([3, 1, 4, 0, 2])
        cur = _contract(g, partner)
        assert cur.fine_to_coarse.tolist() == [0, 1, 2, 0, 2]
        assert cur.node_weight.tolist() == [2, 1, 2]


class TestPartitionCoarse:
    def test_balance_cap_arithmetic(self):
        # k=3, eps=0.1, 10 nodes: floor(1.1 * ceil(10/3)) = 4
        assert balance_cap(10, 3, 0.1) == 4

    def test_bridge_cut_is_optimal(self):
        g = two_triangles()
        # enumeration oracle: all balanced 2-partitions of 6 nodes
        best = min(
            brute_force_cut(g, np.array(a))
            for a in itertools.product([0, 1], repeat=6)
            if 2 <= sum(a) <= 4 and 0 < sum(a) < 6
        )
        assert best == 1
        p = partition_graph(g, 2, epsilon=0.34, restarts=8, seed=0)
        assert p.edge_cut == best

    def test_k_equals_nodes(self):
        g = two_triangles()
        p = partition_graph(g, 6, epsilon=0.0, restarts=2, seed=0)
        assert sorted(p.assignment.tolist()) == list(range(6))
        assert p.edge_cut == g.num_edges

    def test_heavy_node_still_assigned(self):
        # a coarse node heavier than the cap closes its part but stays assigned
        cg = level_zero(_graph([[0, 1], [1, 2], [2, 3]]))
        cg.node_weight[:] = [5, 1, 1, 1]
        assign = partition_coarse(cg, 2, 0.0, restarts=2, seed=0)
        assert (assign >= 0).all()
        assert len(np.unique(assign)) == 2

    def test_restart_over_cap_loses_to_one_that_fits(self, monkeypatch):
        # path 0-..-5, k=2, cap 3: restart 0 cuts 1 edge but puts 4 nodes in
        # part 0; restarts 1 and 2 fit and cut 2 and 4 edges
        scripted = iter([[0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 1, 0], [0, 1, 0, 1, 1, 0]])
        monkeypatch.setattr(
            partition, "_grow_parts", lambda cg, k, cap, rng: np.array(next(scripted))
        )
        cg = level_zero(_graph([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]))
        assign = partition_coarse(cg, 2, 0.0, restarts=3, seed=0)
        assert assign.tolist() == [0, 0, 1, 1, 1, 0]

    def test_all_nodes_assigned(self):
        g = sbm_graph([40, 40, 40], 0.15, 0.01, seed=5)
        assign = partition_coarse(level_zero(g), 3, 0.1, restarts=4, seed=1)
        assert (assign >= 0).all()
        assert len(np.unique(assign)) == 3

    def test_disconnected_orphan_warns(self):
        # nodes 4 and 5 are isolated: no adjacent part, so they land on the
        # lightest part with a warning
        g = _graph([[0, 1], [1, 2], [2, 3]], n=6)
        with pytest.warns(UserWarning, match="no adjacent part"):
            assign = partition_coarse(level_zero(g), 2, 1.0, restarts=1, seed=0)
        assert (assign >= 0).all()


def random_level(seed, heavy=False, isolated=0):
    """A coarse level with tied integer edge weights (1-3), symmetric.

    ``heavy`` draws node weights from 1-40 so parts close on the cap;
    ``isolated`` leaves that many nodes without edges.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 120))
    linked = n - isolated
    pairs = rng.integers(0, linked, size=(int(rng.integers(n, 4 * n)), 2))
    g = _graph(pairs, n=n)
    lo = np.minimum(g.rows, g.targets)
    hi = np.maximum(g.rows, g.targets)
    return CoarseGraph(
        num_nodes=n,
        offsets=g.offsets,
        targets=g.targets,
        edge_weights=1 + (lo * 7919 + hi * 104729 + seed) % 3,
        node_weight=rng.integers(1, 41 if heavy else 2, size=n).astype(np.int64),
        fine_to_coarse=None,
    )


def _grow_both(cg, k, cap, seed):
    out = []
    for grow in (grow_parts_heap, partition._grow_parts):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assign = grow(cg, k, cap, rngs.stream(seed, rngs.RESTART, 0))
        out.append((assign, [str(w.message) for w in caught]))
    return out


class TestGrowPartsOracle:
    """The dense-score growth against the heap rule in partition_oracle."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_random_levels_match_heap(self, k, epsilon):
        warned = 0
        for seed in range(6):
            for heavy, isolated in ((False, 0), (True, 0), (False, 5), (True, 5)):
                cg = random_level(100 * k + seed, heavy=heavy, isolated=isolated)
                cap = balance_cap(int(cg.node_weight.sum()), k, epsilon)
                (want, want_msgs), (got, got_msgs) = _grow_both(cg, k, cap, seed)
                assert got.tolist() == want.tolist()
                assert got_msgs == want_msgs
                warned += bool(want_msgs)
        assert warned > 0   # the orphan fallback ran

    def test_closes_on_cap(self):
        # a path whose middle node outweighs the cap: part 0 must stop before it
        cg = level_zero(_graph([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]))
        cg.node_weight[:] = [1, 1, 9, 1, 1, 1]
        for seed in range(8):
            (want, _), (got, _) = _grow_both(cg, 2, 7, seed)
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_graph_matches_heap(self, seed, monkeypatch):
        g = sbm_graph([60, 40, 50, 30], 0.12, 0.02, seed=seed)
        got = [partition_graph(g, k, epsilon=0.1, restarts=3, seed=seed) for k in (2, 5, 8)]
        monkeypatch.setattr(partition, "_grow_parts", grow_parts_heap)
        for p, k in zip(got, (2, 5, 8)):
            want = partition_graph(g, k, epsilon=0.1, restarts=3, seed=seed)
            assert p.assignment.tolist() == want.assignment.tolist()
            assert p.edge_cut == want.edge_cut


class TestUncoarsen:
    def test_identity_projection(self):
        g = two_triangles()
        levels = [level_zero(g)]
        assign = np.array([0, 0, 0, 1, 1, 1])
        p = uncoarsen(levels, assign, 2, epsilon=0.1)
        assert np.array_equal(p.assignment, assign)
        assert p.edge_cut == 1

    def test_projection_through_levels(self):
        g = sbm_graph([60, 60], 0.15, 0.01, seed=6)
        levels = coarsen(g, 0.3, seed=3)
        coarse_assign = partition_coarse(levels[-1], 2, 0.1, restarts=4, seed=3)
        p = uncoarsen(levels, coarse_assign, 2, epsilon=0.1)
        # cut recomputed on the original graph matches a direct edge scan
        assert p.edge_cut == brute_force_cut(g, p.assignment)

    def test_rebalance_matches_rescan(self):
        # the heap rebalance moves the same nodes, in the same order, as
        # rescanning the over-full part from its lowest id before every move
        from gad.partition import _rebalance_counts

        def rescan(lv, assign, k, cap):
            """The rebalanced assignment, and how many moves it made, how
            many of them fell back to a non-adjacent part, and how many took
            a node that had no target when a higher id moved before it."""
            assign = assign.copy()
            sizes = np.bincount(assign, minlength=k)
            moves = fallbacks = revived = 0
            for part in range(k):
                last = -1
                while sizes[part] > cap:
                    for u in np.flatnonzero(assign == part):
                        row = lv.targets[lv.offsets[u]:lv.offsets[u + 1]]
                        under = {int(assign[v]) for v in row
                                 if assign[v] != part and sizes[assign[v]] < cap}
                        if under:
                            revived += u < last
                            break
                    else:
                        u = np.flatnonzero(assign == part)[0]
                        under = [p for p in range(k) if p != part and sizes[p] < cap]
                        fallbacks += 1
                    tgt = min(under, key=lambda p: (sizes[p], p))
                    assign[u] = tgt
                    sizes[part] -= 1
                    sizes[tgt] += 1
                    moves += 1
                    last = u
            return assign, (moves, fallbacks, revived)

        several, fallbacks, revived = 0, 0, 0
        for seed in range(16):
            rng = np.random.default_rng(seed)
            # odd seeds draw a sparse random graph with many isolated nodes,
            # so the fallback to the part's lowest id runs once the heap is dry
            if seed % 2:
                g = _graph(rng.integers(0, 100, size=(30, 2)), n=100)
            else:
                g = sbm_graph([40, 25, 35], 0.08, 0.01, seed=seed)
            lv = level_zero(g)
            heavy = 1 + (seed // 2) % 2   # one or two over-full parts
            k = int(rng.integers(heavy + 1, 6))
            cap = balance_cap(g.num_nodes, k, float(rng.choice([0.0, 0.1])))
            assign = rng.integers(0, k, size=g.num_nodes)
            crowd = rng.random(g.num_nodes) < 0.6
            assign[crowd] = rng.integers(0, heavy, size=int(crowd.sum()))
            want, (moves, fell, rev) = rescan(lv, assign, k, cap)
            assert np.array_equal(_rebalance_counts(lv, assign, k, cap), want)
            assert moves > 0
            several += int((np.bincount(assign, minlength=k) > cap).sum()) > 1
            fallbacks += fell
            revived += rev
        assert several >= 4 and fallbacks > 0 and revived > 0

    def test_balance_validated_on_counts(self):
        g = sbm_graph([50, 50], 0.1, 0.02, seed=7)
        p = partition_graph(g, 4, epsilon=0.1, restarts=4, seed=2)
        cap = balance_cap(g.num_nodes, 4, 0.1)
        assert p.part_sizes().max() <= cap
        assert (p.part_sizes() > 0).all()


class TestPartitioningIds:
    @pytest.mark.parametrize("bad", [-1, 2, 7])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(GadError, match="part id outside 0..1"):
            Partitioning(np.array([0, 1, bad]), 2, 0.1, 0, 0)

    def test_k_must_be_positive(self):
        with pytest.raises(GadError, match="k must be >= 1"):
            Partitioning(np.zeros(0, dtype=np.int64), 0, 0.1, 0, 0)


class TestEdgeCut:
    def test_single_part(self):
        g = two_triangles()
        p = Partitioning(np.zeros(6, dtype=np.int64), 1, 0.1, 0, 0)
        assert edge_cut(g, p) == 0

    def test_triangle_split(self):
        g = _graph([[0, 1], [1, 2], [0, 2]])
        p = Partitioning(np.array([0, 0, 1]), 2, 0.5, 0, 0)
        assert edge_cut(g, p) == 2

    def test_matches_sum_identity(self):
        # edge cut == |E| - sum_i |E_i| via two independent counting paths
        rng = np.random.default_rng(8)
        g = _graph(rng.integers(0, 200, size=(600, 2)), n=200)
        assign = rng.integers(0, 4, size=200).astype(np.int64)
        assign[:4] = np.arange(4)
        p = Partitioning(assign, 4, 10.0, 0, 0)
        internal = 0
        for i in range(4):
            ids = set(np.flatnonzero(assign == i).tolist())
            internal += sum(1 for u, v in g.edge_list() if u in ids and v in ids)
        assert edge_cut(g, p) == g.num_edges - internal


class TestPipeline:
    def test_determinism(self):
        g = sbm_graph([80, 80], 0.08, 0.01, seed=9)
        a = partition_graph(g, 4, epsilon=0.1, restarts=4, seed=42)
        b = partition_graph(g, 4, epsilon=0.1, restarts=4, seed=42)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.edge_cut == b.edge_cut

    def test_restart_monotonicity(self):
        g = sbm_graph([80, 80], 0.08, 0.01, seed=10)
        cuts = [
            partition_graph(g, 4, epsilon=0.1, restarts=r, seed=7).edge_cut
            for r in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(cuts, cuts[1:]))

    def test_beats_random_on_sbm(self):
        # 2-community SBM fixture: multilevel median cut < random balanced median
        g = sbm_graph([200, 200], 0.05, 0.005, seed=11)
        ml = [partition_graph(g, 2, 0.1, restarts=4, seed=s).edge_cut for s in range(20)]
        rnd = [
            brute_force_cut(g, random_balanced_partition(g.num_nodes, 2, seed=s))
            for s in range(20)
        ]
        assert np.median(ml) < np.median(rnd)

    def test_eq2_always_holds(self):
        for seed in range(6):
            g = sbm_graph([70, 50, 60], 0.08, 0.02, seed=seed)
            for k in (2, 3, 5):
                p = partition_graph(g, k, epsilon=0.1, restarts=2, seed=seed)
                cap = balance_cap(g.num_nodes, k, 0.1)
                assert p.part_sizes().max() <= cap

    def test_k1_fast_path(self):
        g = two_triangles()
        p = partition_graph(g, 1, seed=0)
        assert p.edge_cut == 0
        assert (p.assignment == 0).all()

    def test_bad_k(self):
        with pytest.raises(GadError):
            partition_graph(two_triangles(), 0)
        with pytest.raises(GadError):
            partition_graph(two_triangles(), 7)

    def test_json_round_trip(self):
        g = two_triangles()
        p = partition_graph(g, 2, epsilon=0.34, seed=1)
        text = json.dumps(p.to_json_dict(), sort_keys=True, indent=2)
        q = Partitioning.from_json_dict(json.loads(text))
        assert np.array_equal(p.assignment, q.assignment)
        assert (q.k, q.epsilon, q.edge_cut) == (p.k, p.epsilon, p.edge_cut)
        assert json.dumps(q.to_json_dict(), sort_keys=True, indent=2) == text
