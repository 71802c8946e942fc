import math

import numpy as np
import pytest
import scipy.sparse as sp

from gad import augment, rngs
from gad.augment import (
    _score_walks,
    assign_to_workers,
    augment_partitions,
    augment_subgraph,
    boundary_nodes,
    candidate_replication_nodes,
    depth_first_select,
    estimate_walk_count,
    node_importance,
    replication_budget,
    ImportanceTable,
)
from gad.errors import GadError
from gad.graph import Graph, induce_subgraph
from gad.partition import Partitioning, partition_graph
from gad.synthetic import sbm_graph
from walk_oracle import (
    boundary_of, exact_visit_probs, select_replicas, visit_counts, walk_scores,
)


def two_triangles():
    pairs = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
    g = Graph.from_edges(6, pairs)
    p = Partitioning(np.array([0, 0, 0, 1, 1, 1]), 2, 1.0, 1, 0)
    return g, p


class TestBoundary:
    def test_single_part_empty(self):
        g, _ = two_triangles()
        p = Partitioning(np.zeros(6, dtype=np.int64), 1, 1.0, 0, 0)
        assert boundary_nodes(g, p, 0).size == 0

    def test_split_edge_both_sides(self):
        g = Graph.from_edges(2, np.array([[0, 1]]))
        p = Partitioning(np.array([0, 1]), 2, 1.0, 1, 0)
        assert boundary_nodes(g, p, 0).tolist() == [0]
        assert boundary_nodes(g, p, 1).tolist() == [1]

    def test_matches_edge_scan_oracle(self):
        rng = np.random.default_rng(0)
        g = Graph.from_edges(40, rng.integers(0, 40, (120, 2)))
        assign = rng.integers(0, 3, 40).astype(np.int64)
        assign[:3] = np.arange(3)
        p = Partitioning(assign, 3, 10.0, 0, 0)
        for i in range(3):
            expect = boundary_of(g, np.flatnonzero(assign == i))
            assert boundary_nodes(g, p, i).tolist() == expect


class TestCandidates:
    def test_one_layer_cut_endpoints(self):
        g, p = two_triangles()
        assert candidate_replication_nodes(g, p, 0, 1).tolist() == [3]
        assert candidate_replication_nodes(g, p, 1, 1).tolist() == [2]

    def test_no_cut_edges_empty(self):
        g, _ = two_triangles()
        p = Partitioning(np.zeros(6, dtype=np.int64), 1, 1.0, 0, 0)
        assert candidate_replication_nodes(g, p, 0, 2).size == 0

    def test_two_layers_path_graph(self):
        # path 0-1-2-3-4-5 split in half: from part {0,1,2} the 2-hop
        # neighborhood of boundary node 2 reaches 3 and 4 only
        g = Graph.from_edges(6, np.array([[i, i + 1] for i in range(5)]))
        p = Partitioning(np.array([0, 0, 0, 1, 1, 1]), 2, 1.0, 1, 0)
        assert candidate_replication_nodes(g, p, 0, 2).tolist() == [3, 4]

    def test_excludes_own_part_interior(self):
        g, p = two_triangles()
        cands = candidate_replication_nodes(g, p, 0, 3)
        assert set(cands.tolist()).isdisjoint({0, 1, 2})

    def test_layers_validated(self):
        g, p = two_triangles()
        with pytest.raises(GadError):
            candidate_replication_nodes(g, p, 0, 0)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_part_id_validated(self, i):
        g, p = two_triangles()
        with pytest.raises(GadError, match="out of range"):
            candidate_replication_nodes(g, p, i, 1)

    def test_matches_bfs_distance_oracle(self):
        # the halo is every external node within ``layers`` hops of the
        # part's members, which is the same set as within ``layers`` hops of
        # its boundary.  Each graph has two components, [0, n1) and [n1, n),
        # and isolated nodes; every third trial part 0 is the first
        # component, so it has members but no boundary
        rng = np.random.default_rng(11)
        cases = no_boundary = 0
        for trial in range(60):
            n1, n = int(rng.integers(2, 10)), int(rng.integers(14, 30))
            pairs = np.concatenate([rng.integers(0, n1, (n1, 2)),
                                    rng.integers(n1, n - 3, (n, 2))])
            g = Graph.from_edges(n, pairs)
            k = int(rng.integers(2, 5))
            assign = rng.integers(0, k, n)
            if trial % 3 == 0:
                assign[:n1] = 0
                assign[n1:] = rng.integers(1, k, n - n1)
            p = Partitioning(assign, k, 10.0, 0, 0)
            for i in range(k):
                members = np.flatnonzero(assign == i)
                boundary = boundary_of(g, members)
                no_boundary += len(members) > 0 and not boundary
                from_members = _bfs_distances(g, members)
                from_boundary = _bfs_distances(g, boundary)
                for layers in (1, 2, 3):
                    want = [v for v in range(n) if assign[v] != i and from_members[v] <= layers]
                    assert want == [v for v in range(n)
                                    if assign[v] != i and from_boundary[v] <= layers]
                    assert candidate_replication_nodes(g, p, i, layers).tolist() == want
                    cases += 1
        assert cases > 300 and no_boundary > 0


def _bfs_distances(g, starts):
    """Hop distance of every node from the nearest of ``starts`` (inf if none)."""
    dist = np.full(g.num_nodes, np.inf)
    dist[list(starts)] = 0
    frontier = [int(u) for u in starts]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if dist[v] == np.inf:
                    dist[v] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return dist


class TestEstimateWalkCount:
    def test_formula_example(self):
        # sigma/mean = 0.5 with E=0.05, z=1.96 gives ceil(384.16) = 385
        sample = np.array([1.0 - 0.5 / np.sqrt(2), 1.0 + 0.5 / np.sqrt(2)])
        assert np.std(sample, ddof=1) / sample.mean() == pytest.approx(0.5)
        assert estimate_walk_count(sample, 1.96, 0.05) == 385

    def test_zero_variance_keeps_provisional(self):
        assert estimate_walk_count([0.3, 0.3, 0.3], 1.96, 0.05, provisional_count=12) == 12

    def test_zero_mean_returns_zero(self):
        assert estimate_walk_count([], 1.96, 0.05) == 0
        assert estimate_walk_count([0.0, 0.0], 1.96, 0.05) == 0


class TestNodeImportance:
    def test_forced_candidate_converges_to_one(self):
        # part {0} whose single neighbor is external: every walk must visit it
        g = Graph.from_edges(4, np.array([[0, 1], [1, 2], [1, 3]]))
        p = Partitioning(np.array([0, 1, 1, 1]), 2, 1.0, 1, 0)
        cands = candidate_replication_nodes(g, p, 0, 1)
        table, _ = node_importance(g, boundary_nodes(g, p, 0), cands, 1, seed=3)
        assert table.candidates.tolist() == [1] and table.importance[0] == 1.0

    def test_empty_candidates(self):
        g, _ = two_triangles()
        p = Partitioning(np.zeros(6, dtype=np.int64), 1, 1.0, 0, 0)
        table, walks = node_importance(g, boundary_nodes(g, p, 0), np.zeros(0, np.int64), 2, seed=0)
        assert table.candidates.size == 0
        assert len(walks) == 0

    def test_empty_boundary_with_candidates(self):
        # one part holds every node, so no walk can start; the candidates
        # still get a zero importance each
        g, _ = two_triangles()
        p = Partitioning(np.zeros(6, dtype=np.int64), 1, 1.0, 0, 0)
        boundary = boundary_nodes(g, p, 0)
        assert boundary.size == 0
        table, walks = node_importance(g, boundary, np.array([4, 3]), 2, seed=0)
        assert walks.shape == (0, 3) and walks.dtype == np.int64
        assert table.total_walks == 0
        assert table.candidates.tolist() == [3, 4]
        assert table.importance.dtype == np.float64
        assert table.importance.tolist() == [0.0, 0.0]
        assert table.sigma_x == table.x_bar == 0.0

    def test_unvisited_candidates_keep_phase1_walks(self):
        # boundary node 0 with 20 owned leaves and one external neighbor 21:
        # under seed 1 none of the 21 phase-1 walks steps onto node 21
        g = Graph.from_edges(22, np.array([[0, v] for v in range(1, 22)]))
        p = Partitioning(np.array([0] * 21 + [1]), 2, 1.0, 1, 0)
        cands = candidate_replication_nodes(g, p, 0, 1)
        assert cands.tolist() == [21]
        table, walks = node_importance(g, boundary_nodes(g, p, 0), cands, 1, seed=1)
        assert table.total_walks == len(walks) == 21   # floor(degree 21) * |B| 1
        assert table.importance.dtype == np.float64
        assert table.importance.tolist() == [0.0]
        assert np.array_equal(table.importance, visit_counts(walks, cands) / table.total_walks)
        assert table.sigma_x == table.x_bar == 0.0
        assert (walks[:, 0] == 0).all() and 21 not in walks

    def test_two_triangle_exact_oracle(self):
        # exhaustive enumeration gives visit probabilities (1/3, 1/9, 1/9);
        # seed frozen to a stream whose estimates land within the stated 0.05
        g, p = two_triangles()
        cands = candidate_replication_nodes(g, p, 0, 2)
        exact = exact_visit_probs(g, [0, 1, 2], 2)
        assert exact == pytest.approx({3: 1 / 3, 4: 1 / 9, 5: 1 / 9})
        table, _ = node_importance(g, boundary_nodes(g, p, 0), cands, 2, seed=7)
        got = dict(zip(table.candidates.tolist(), table.importance.tolist()))
        for c in cands:
            assert abs(got[int(c)] - exact[int(c)]) <= 0.05

    def test_walk_length_equals_layers(self):
        g, p = two_triangles()
        cands = candidate_replication_nodes(g, p, 0, 3)
        for layers in (1, 2, 3):
            _, walks = node_importance(g, boundary_nodes(g, p, 0), cands, layers, seed=1)
            assert walks.shape[1] == layers + 1
            assert (walks >= 0).all()

    def test_boundary_node_without_neighbor_rejected(self):
        # a boundary holding isolated node 3: no walk could leave it
        g = Graph.from_edges(4, np.array([[0, 1], [1, 2]]))
        with pytest.raises(GadError, match="neighbor"):
            node_importance(g, np.array([1, 3]), np.array([2]), 1, seed=0)

    def test_walks_start_at_boundary(self):
        g, p = two_triangles()
        cands = candidate_replication_nodes(g, p, 0, 2)
        _, walks = node_importance(g, boundary_nodes(g, p, 0), cands, 2, seed=2)
        assert (walks[:, 0] == 2).all()   # only boundary node of part 0

    def test_deterministic(self):
        g, p = two_triangles()
        cands = candidate_replication_nodes(g, p, 0, 2)
        t1, w1 = node_importance(g, boundary_nodes(g, p, 0), cands, 2, seed=11)
        t2, w2 = node_importance(g, boundary_nodes(g, p, 0), cands, 2, seed=11)
        assert np.array_equal(t1.importance, t2.importance)
        assert np.array_equal(w1, w2)

    def test_phase1_count_uses_floor_of_avg_degree(self):
        # boundary {2}: degree 3 in the full graph, so phase one runs 3 walks;
        # with a forced zero-variance sample the total stays at 3
        g = Graph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [2, 4], [3, 4]]))
        p = Partitioning(np.array([0, 0, 0, 1, 1]), 2, 1.0, 2, 0)
        cands = candidate_replication_nodes(g, p, 0, 1)
        table, walks = node_importance(g, boundary_nodes(g, p, 0), cands, 1, seed=0)
        assert len(walks) >= 3

    def test_importance_in_unit_interval(self):
        g, p = two_triangles()
        cands = candidate_replication_nodes(g, p, 0, 2)
        table, _ = node_importance(g, boundary_nodes(g, p, 0), cands, 2, seed=9)
        assert (table.importance >= 0).all() and (table.importance <= 1).all()


class TestReplicationBudget:
    def test_formula_example(self):
        # alpha 0.01, 200 nodes, density 0.2 -> ceil(2.4) = 3
        n = 200
        assert replication_budget(n, round(0.2 * n * (n - 1) / 2), 0.01) == 3

    def test_zero_density_floor(self):
        assert replication_budget(100, 0, 0.01) == 1

    def test_alpha_must_be_positive(self):
        with pytest.raises(GadError):
            replication_budget(3, 1, 0.0)

    def test_upper_bound_two_alpha_v(self):
        rng = np.random.default_rng(2)
        for n in (5, 20, 50):
            g = Graph.from_edges(n, rng.integers(0, n, (3 * n, 2)))
            assert replication_budget(n, g.num_edges, 0.05) <= int(np.ceil(0.05 * 2 * n)) + 1

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 1.0])
    def test_density_formula(self, alpha):
        # ceil(alpha * (1 + 2|e| / (|v| (|v| - 1))) * |v|), density 0 below two nodes
        assert replication_budget(0, 0, alpha) == 0
        assert replication_budget(1, 0, alpha) == 1
        for n in range(2, 12):
            for m in range(n * (n - 1) // 2 + 1):
                want = math.ceil(alpha * (1.0 + 2.0 * m / (n * (n - 1))) * n)
                assert replication_budget(n, m, alpha) == want


def make_walks(walks, candidates, importance):
    walks = np.asarray(walks, dtype=np.int64)
    table = ImportanceTable(
        candidates=np.asarray(candidates, dtype=np.int64),
        importance=np.asarray(importance, dtype=np.float64),
        total_walks=len(walks),
        z_c=1.96,
        err_target=0.05,
        sigma_x=0.0,
        x_bar=0.0,
    )
    return table, walks


class TestDepthFirstSelect:
    def test_zero_budget(self):
        table, walks = make_walks([[0, 5, 6]], [5, 6], [0.9, 0.5])
        assert depth_first_select(table, walks, 0).size == 0

    def test_walk_order_prefix(self):
        # one walk [b, c1, c2], budget 1 -> [c1]
        table, walks = make_walks([[0, 5, 6]], [5, 6], [0.5, 0.9])
        assert depth_first_select(table, walks, 1).tolist() == [5]

    def test_shared_node_attributed_to_stronger_walk(self):
        # walks scoring 0.9 and 0.7 share node 7: it is taken from the
        # stronger walk first, then the weaker walk adds only new nodes
        table, walks = make_walks(
            [[0, 7, 8], [1, 7, 9]],
            [7, 8, 9],
            [0.6, 0.3, 0.1],
        )
        # scores: walk0 = 0.6 + 0.3 = 0.9, walk1 = 0.6 + 0.1 = 0.7
        got = depth_first_select(table, walks, 3).tolist()
        assert got == [7, 8, 9]

    def test_budget_exceeds_coverage(self):
        table, walks = make_walks([[0, 5, 5]], [5, 6], [0.9, 0.5])
        got = depth_first_select(table, walks, 10)
        assert got.tolist() == [5]

    def test_tie_goes_to_earlier_walk(self):
        table, walks = make_walks(
            [[0, 5, 0], [1, 6, 1]],
            [5, 6],
            [0.5, 0.5],
        )
        assert depth_first_select(table, walks, 1).tolist() == [5]


def random_walks(seed, width):
    """Walk rows over a few nodes, so rows repeat nodes and scores tie.

    Some nodes are not candidates, and some candidates lie above every
    walked node.  Importance values are
    visit fractions over an odd walk count, so sums depend on their order.
    """
    rng = np.random.default_rng(seed)
    n_walks = int(rng.integers(1, 60))
    top = int(rng.integers(1, 3 * width + 4))
    walks = rng.integers(0, top, (n_walks, width))
    nodes = np.arange(top + 5)
    cands = nodes[rng.random(len(nodes)) < 0.7]
    importance = rng.integers(0, 8, len(cands)) / 37.0
    return make_walks(walks, cands, importance)


class TestWalkScoringOracle:
    """The vectorised scoring and drain against the per-walk rule in walk_oracle."""

    @pytest.mark.parametrize("width", range(1, 11))
    def test_scores_bit_identical(self, width):
        wide = 0
        for seed in range(40):
            table, walks = random_walks(1000 * width + seed, width)
            got, _ = _score_walks(table, walks)
            assert got.tobytes() == walk_scores(table, walks).tobytes()
            wide += int((_distinct_candidates(table, walks) >= 8).sum())
        if width >= 9:
            assert wide > 0   # the rows NumPy sums pairwise were exercised

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 9])
    def test_replicas_equal_for_every_budget(self, width):
        for seed in range(25):
            table, walks = random_walks(7000 + 100 * width + seed, width)
            coverage = len(select_replicas(table, walks, walks.size))
            for budget in sorted({0, 1, coverage // 2, coverage, coverage + 3}):
                got = depth_first_select(table, walks, budget)
                want = select_replicas(table, walks, budget)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (seed, budget)

    def test_ties_and_candidates_above_every_walk(self):
        # walks 0 and 2 tie at 0.5; node 9 is a candidate no walk reaches
        table, walks = make_walks(
            [[0, 5, 5, 0], [1, 6, 3, 3], [2, 7, 2, 2]],
            [5, 6, 7, 9],
            [0.5, 0.25, 0.5, 1.0],
        )
        scores, _ = _score_walks(table, walks)
        assert scores.tolist() == [0.5, 0.25, 0.5]
        assert depth_first_select(table, walks, 2).tolist() == [5, 7]
        assert depth_first_select(table, walks, 10).tolist() == [5, 7, 6]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_augment_partitions_matches_reference(self, seed, monkeypatch):
        g = sbm_graph([40, 30, 30, 20], [0.3, 0.1, 0.2, 0.4], 0.03, seed=seed)
        p = partition_graph(g, 4, seed=seed)
        calls = []
        select = augment.depth_first_select

        def checked(table, walks, budget):
            got = select(table, walks, budget)
            calls.append((got, select_replicas(table, walks, budget)))
            return got

        monkeypatch.setattr(augment, "depth_first_select", checked)
        records = augment_partitions(g, p, layers=2, alpha=0.3, seed=seed)
        assert len(calls) == len(records) == 4
        for (got, want), rec in zip(calls, records):
            assert np.array_equal(got, want)
            assert len(want) > 0
            assert sorted(rec.subgraph.view.replica_ids.tolist()) == sorted(want.tolist())


class TestVisitCountOracle:
    """Candidate visit counts against the per-walk rule in walk_oracle."""

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_candidate_visits(self, width):
        for seed in range(30):
            table, walks = random_walks(3000 * width + seed, width)
            cands = table.candidates
            cand_index = np.full(max(cands.max(initial=0), walks.max()) + 1, -1, dtype=np.int64)
            cand_index[cands] = np.arange(len(cands))
            got = augment._candidate_visits(walks, cand_index, len(cands))
            assert np.array_equal(got, visit_counts(walks, cands))

    def test_node_importance_counts_every_walk(self):
        # phase-1 counts plus phase-2 counts equal a count over all walks
        g = sbm_graph([40, 30, 30, 20], [0.3, 0.1, 0.2, 0.4], 0.03, seed=2)
        p = partition_graph(g, 4, seed=2)
        second_phase = 0
        for i in range(p.k):
            cands = candidate_replication_nodes(g, p, i, 2)
            boundary = boundary_nodes(g, p, i)
            table, walks = node_importance(g, boundary, cands, 2, seed=i)
            assert len(walks) == table.total_walks
            assert np.array_equal(table.importance, visit_counts(walks, cands) / table.total_walks)
            second_phase += len(walks) > len(boundary) * max(
                1, int(np.floor(g.degrees[boundary].mean()))
            )
        assert second_phase > 0

    def test_boundary_once_per_part(self, monkeypatch):
        g = sbm_graph([40, 30, 30, 20], [0.3, 0.1, 0.2, 0.4], 0.03, seed=0)
        p = partition_graph(g, 4, seed=0)
        want = augment_partitions(g, p, layers=2, alpha=0.3, seed=0)
        calls = {"boundary_nodes": 0, "induce_subgraph": 0}

        def counted(name):
            original = getattr(augment, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(augment, name, call)

        counted("boundary_nodes")
        counted("induce_subgraph")
        got = augment_partitions(g, p, layers=2, alpha=0.3, seed=0)
        # the halo BFS starts from the members, not from a boundary, and
        # each part's subgraph is induced once, with its replicas
        assert calls == {"boundary_nodes": p.k, "induce_subgraph": p.k}
        for a, b in zip(got, want):
            assert np.array_equal(a.subgraph.view.local_ids, b.subgraph.view.local_ids)


def _distinct_candidates(table, walks):
    """Distinct candidates per walk, counted one walk at a time."""
    cands = set(table.candidates.tolist())
    return np.array([len(set(row.tolist()) & cands) for row in walks])


class TestAugmentSubgraph:
    def test_empty_replicas_identity(self):
        g, p = two_triangles()
        aug = augment_subgraph(g, p.part_nodes(0), [])
        assert aug.view.num_nodes == 3
        assert aug.view.num_edges == 3
        assert aug.num_replicas == 0

    def test_replica_edges_included(self):
        g, p = two_triangles()
        aug = augment_subgraph(g, p.part_nodes(0), [3])
        # node 3 connects to 2 (owned) only within the set
        assert aug.view.num_nodes == 4
        assert aug.view.num_edges == 4
        assert aug.view.replica_ids.tolist() == [3]
        assert not aug.view.owned[np.searchsorted(aug.view.local_ids, 3)]

    def test_matches_induce_oracle(self):
        rng = np.random.default_rng(7)
        g = Graph.from_edges(30, rng.integers(0, 30, (90, 2)))
        assign = (np.arange(30) >= 15).astype(np.int64)
        p = Partitioning(assign, 2, 1.0, 0, 0)
        owned = p.part_nodes(0)
        replicas = [15, 16, 17]
        aug = augment_subgraph(g, owned, replicas)
        ids = np.union1d(owned, replicas)
        oracle = induce_subgraph(g, ids, ids)
        assert aug.view.num_edges == oracle.num_edges

    def test_overlap_rejected(self):
        g, p = two_triangles()
        with pytest.raises(GadError):
            augment_subgraph(g, p.part_nodes(0), [0])


class TestAssignToWorkers:
    def _aug(self, g, ids):
        return augment_subgraph(g, ids, [])

    def test_one_each(self):
        g = Graph.from_edges(8, np.array([[i, (i + 1) % 8] for i in range(8)]))
        subs = [self._aug(g, [2 * i, 2 * i + 1]) for i in range(4)]
        assert sorted(assign_to_workers(subs, 4).tolist()) == [0, 1, 2, 3]

    def test_greedy_hand_case(self):
        # sizes [5,4,3,3] on 2 workers -> loads {5+3, 4+3}
        g = Graph.from_edges(15, np.zeros((0, 2)))
        sizes = [5, 4, 3, 3]
        start = 0
        subs = []
        for s in sizes:
            subs.append(self._aug(g, list(range(start, start + s))))
            start += s
        w = assign_to_workers(subs, 2)
        loads = [sum(sz for sz, wi in zip(sizes, w) if wi == ww) for ww in (0, 1)]
        assert sorted(loads) == [7, 8]
        assert w.tolist() == [0, 1, 1, 0]

    def test_single_worker(self):
        g = Graph.from_edges(4, np.zeros((0, 2)))
        subs = [self._aug(g, [i]) for i in range(4)]
        assert assign_to_workers(subs, 1).tolist() == [0, 0, 0, 0]

    def test_workers_validated(self):
        with pytest.raises(GadError):
            assign_to_workers([], 0)


class TestAugmentPartitions:
    def test_full_pass_invariants(self):
        rng = np.random.default_rng(8)
        g = Graph.from_edges(60, rng.integers(0, 60, (200, 2)))
        p = partition_graph(g, 3, seed=4)
        records = augment_partitions(g, p, layers=2, alpha=0.2, seed=1)
        assert len(records) == 3
        for rec in records:
            aug = rec.subgraph
            owned = set(aug.view.owned_ids.tolist())
            assert owned == set(p.part_nodes(rec.subgraph.part).tolist())
            # replica count within budget, and budget within the cap
            assert aug.num_replicas <= aug.budget
            cands = candidate_replication_nodes(g, p, rec.subgraph.part, 2)
            assert aug.budget <= len(cands)
            assert set(aug.view.replica_ids.tolist()) <= set(cands.tolist())
            # no dangling replica: every replica has a local edge
            for r in aug.view.replica_ids:
                assert aug.view.degrees[np.searchsorted(aug.view.local_ids, r)] > 0

    def test_no_cut_edges_no_replicas(self):
        g, _ = two_triangles()
        p = Partitioning(np.zeros(6, dtype=np.int64), 1, 1.0, 0, 0)
        records = augment_partitions(g, p, layers=2, alpha=0.5, seed=0)
        assert records[0].subgraph.num_replicas == 0

    def test_disabled_mode(self):
        g, p = two_triangles()
        records = augment_partitions(g, p, layers=2, alpha=0.5, seed=0, enabled=False)
        assert all(r.subgraph.num_replicas == 0 for r in records)

    @pytest.mark.parametrize("mode", ["multiplicity", "", "Indicator"])
    def test_unknown_mode_rejected(self, mode):
        g, p = two_triangles()
        with pytest.raises(GadError, match="unknown importance mode"):
            augment_partitions(g, p, layers=2, mode=mode)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_pieces_by_hand_match(self, enabled):
        # the public pieces, put together per part with the per-part seed
        g = sbm_graph([40, 30, 30, 20], [0.3, 0.1, 0.2, 0.4], 0.03, seed=1)
        p = partition_graph(g, 4, seed=1)
        seed, layers, alpha = 5, 2, 0.3
        records = augment_partitions(g, p, layers=layers, alpha=alpha, seed=seed, enabled=enabled)
        assert len(records) == p.k
        ones = np.ones(len(g.targets), dtype=bool)
        adjacency = sp.csr_matrix((ones, (g.rows, g.targets)), shape=(g.num_nodes,) * 2)
        for i, rec in enumerate(records):
            owned = p.part_nodes(i)
            internal_edges = adjacency[owned][:, owned].nnz // 2
            boundary = boundary_nodes(g, p, i)
            cands = (candidate_replication_nodes(g, p, i, layers) if enabled
                     else np.zeros(0, np.int64))
            part_seed = int(rngs.stream(seed, rngs.AUGMENT, i).integers(0, 2**31 - 1))
            table, walks = node_importance(g, boundary, cands, layers, part_seed)
            budget = min(replication_budget(len(owned), internal_edges, alpha), len(cands))
            replicas = depth_first_select(table, walks, budget)
            aug = augment_subgraph(g, owned, replicas, i, budget, budget - len(replicas))
            assert rec.subgraph.part == aug.part == i
            assert np.array_equal(rec.subgraph.view.local_ids, aug.view.local_ids)
            assert np.array_equal(rec.subgraph.view.replica_ids, np.sort(replicas))
            assert (rec.subgraph.budget, rec.subgraph.shortfall) == (aug.budget, aug.shortfall)
            assert np.array_equal(rec.table.candidates, table.candidates)
            assert rec.table.importance.tobytes() == table.importance.tobytes()
            assert rec.table.total_walks == table.total_walks
        assert (sum(r.subgraph.num_replicas for r in records) > 0) == enabled

    def test_deterministic(self):
        g, p = two_triangles()
        a = augment_partitions(g, p, layers=2, alpha=0.9, seed=3)
        b = augment_partitions(g, p, layers=2, alpha=0.9, seed=3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.subgraph.view.local_ids, rb.subgraph.view.local_ids)
            assert np.array_equal(ra.table.importance, rb.table.importance)
