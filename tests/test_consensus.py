import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import pdist

from gad import consensus, rngs
from gad.augment import augment_subgraph
from gad.consensus import (
    degree_probability,
    plain_consensus,
    weighted_consensus,
    zeta,
)
from gad.augment import augment_partitions
from gad.config import Config
from gad.errors import GadError
from gad.graph import Graph
from gad.partition import Partitioning
from gad.synthetic import sbm_graph
from gad.training import train


def sub_from_pairs(pairs, n):
    g = Graph.from_edges(n, np.asarray(pairs).reshape(-1, 2))
    return augment_subgraph(g, np.arange(n), [])


def skewed_sub(n, rng):
    """Graph whose edges favor a few hub nodes, so degrees are skewed."""
    hub_weight = rng.pareto(1.5, n) + 1.0
    hubs = rng.choice(n, 3 * n, p=hub_weight / hub_weight.sum())
    return sub_from_pairs(np.stack([rng.integers(0, n, 3 * n), hubs], axis=1), n)


def pdist_zeta(sub, x, beta):
    """Exact zeta over scipy's condensed pairwise distances, in triu order."""
    p = degree_probability(sub)
    ii, jj = np.triu_indices(len(p), k=1)
    return float((p[ii] * p[jj] / (pdist(x) + beta)).sum())


class TestDegreeProbability:
    def test_cycle_uniform(self):
        sub = sub_from_pairs([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
        np.testing.assert_allclose(degree_probability(sub), [0.25] * 4)

    def test_star(self):
        sub = sub_from_pairs([[0, 1], [0, 2], [0, 3]], 4)
        np.testing.assert_allclose(degree_probability(sub), [0.5, 1 / 6, 1 / 6, 1 / 6])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(0, n * 2))
            sub = sub_from_pairs(rng.integers(0, n, (m, 2)), n)
            assert degree_probability(sub).sum() == pytest.approx(1.0)

    def test_no_edges_uniform(self):
        sub = sub_from_pairs(np.zeros((0, 2)), 5)
        np.testing.assert_allclose(degree_probability(sub), [0.2] * 5)


class TestZeta:
    def test_worked_example_values(self):
        # degree sequences (2,2,2,2) and (3,2,2,1), all feature distances 0,
        # beta=1: exhaustive pair sums are 0.375 and 0.359375 by hand
        square = sub_from_pairs([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
        tailed = sub_from_pairs([[0, 1], [0, 2], [0, 3], [1, 2]], 4)
        x = np.ones((4, 3))
        za = zeta(square, x, beta=1.0)
        zb = zeta(tailed, x, beta=1.0)
        assert za.zeta == pytest.approx(0.375)
        assert zb.zeta == pytest.approx(0.359375)
        assert za.zeta > zb.zeta
        # ratio matches 3.75 / 3.59375 after any global rescaling
        assert za.zeta / zb.zeta == pytest.approx(3.75 / 3.59375, rel=1e-12)

    def test_uniform_degrees_closed_form(self):
        # identical features, uniform degrees: zeta = (1 - 1/n) / 2
        for n in (3, 4, 6):
            pairs = [[i, (i + 1) % n] for i in range(n)]
            sub = sub_from_pairs(pairs, n)
            z = zeta(sub, np.zeros((n, 2)), beta=1.0)
            assert z.zeta == pytest.approx((1 - 1 / n) / 2)

    def test_single_node_neutral(self):
        sub = sub_from_pairs(np.zeros((0, 2)), 1)
        assert zeta(sub, np.zeros((1, 2))).zeta == 1.0

    def test_distance_in_denominator(self):
        sub = sub_from_pairs([[0, 1]], 2)
        x = np.array([[0.0, 0.0], [3.0, 4.0]])   # distance 5
        z = zeta(sub, x, beta=1.0)
        assert z.zeta == pytest.approx(0.25 / 6.0)
        assert z.exact and z.stderr == 0.0

    def test_sampled_estimate_close_to_exact(self):
        rng = np.random.default_rng(3)
        n = 60
        pairs = rng.integers(0, n, (150, 2))
        sub = sub_from_pairs(pairs, n)
        x = rng.normal(0, 1, (n, 5))
        exact = zeta(sub, x, beta=1.0, pair_cap=4096).zeta
        approx = zeta(sub, x, beta=1.0, pair_cap=32, seed=5).zeta
        assert not zeta(sub, x, beta=1.0, pair_cap=32, seed=5).exact
        assert approx == pytest.approx(exact, rel=0.05)

    def test_sampled_draw_pinned(self, monkeypatch):
        # the sampled path written out: a pilot of pair_cap pairs drawn from
        # p, then enough further pairs for the standard error of
        # pair_cap**2 / 2 uniform pairs, clamped to [pair_cap, pair_cap**2 / 2].
        # Distances are taken PAIR_CHUNK pairs at a time; with a chunk far
        # below the sample (and not dividing it) zeta and its standard error
        # must equal the whole-sample computation bit for bit
        rng = np.random.default_rng(11)
        n, cap, seed = 300, 64, 7
        sub = skewed_sub(n, rng)
        x = rng.normal(0, 1, (n, 6))
        monkeypatch.setattr(consensus, "PAIR_CHUNK", 100)
        got = zeta(sub, x, beta=1.0, pair_cap=cap, seed=seed)

        p = degree_probability(sub)
        c = 0.5 * (1.0 - float(p @ p))
        draws = rngs.stream(seed, rngs.ZETA)
        cdf = np.cumsum(p)
        cdf /= cdf[-1]

        def pairs(m):
            ii = np.searchsorted(cdf, draws.random(m), side="right")
            jj = np.searchsorted(cdf, draws.random(m), side="right")
            return ii[ii != jj], jj[ii != jj]

        def terms(ii, jj):
            diff = x[ii] - x[jj]
            return 1.0 / (np.sqrt((diff * diff).sum(axis=1)) + 1.0)

        ii, jj = pairs(cap)
        f = terms(ii, jj)
        most = cap * cap // 2
        var_u = c * n * (n - 1) / 2.0 * float((p[ii] * p[jj] * f * f).mean()) \
            - (c * float(f.mean())) ** 2
        need = int(np.ceil((c * float(f.std(ddof=1)) / np.sqrt(var_u / most)) ** 2))
        total = min(max(need, cap), most)
        assert cap < total < most   # neither clamp decides this case
        f = np.concatenate([f, terms(*pairs(total - cap))])
        assert not got.exact
        assert got.zeta == c * float(f.mean())
        assert got.stderr == c * float(f.std(ddof=1)) / np.sqrt(f.size)
        assert got.pair_probability_sum == c

    def test_sampled_error_within_uniform_bound(self):
        # on a degree-skewed graph, the spread over seeds is no wider than
        # the standard error of pair_cap**2 / 2 uniform pairs, computed
        # exactly from every pair, and the mean is unbiased
        rng = np.random.default_rng(21)
        n, cap, seeds = 300, 32, 240
        sub = skewed_sub(n, rng)
        x = rng.normal(0, 1, (n, 4))
        p = degree_probability(sub)
        ii, jj = np.triu_indices(n, k=1)
        t = p[ii] * p[jj] / (pdist(x) + 1.0)
        exact = float(t.sum())
        pairs = len(t)
        uniform_se = pairs * np.sqrt(t.var() / (cap * cap // 2))
        assert zeta(sub, x, beta=1.0, pair_cap=n).zeta == pytest.approx(exact, rel=1e-12)

        runs = [zeta(sub, x, beta=1.0, pair_cap=cap, seed=s) for s in range(seeds)]
        values = np.array([w.zeta for w in runs])
        sd = values.std(ddof=1)
        assert sd <= 1.2 * uniform_se
        assert abs(values.mean() - exact) <= 4 * sd / np.sqrt(seeds)
        # the reported standard error tracks the spread it describes
        assert 0.7 * sd <= np.median([w.stderr for w in runs]) <= 1.4 * sd

    def test_sampled_draws_at_most_uniform_count(self, monkeypatch):
        drawn = []
        original = consensus._draw_pairs

        def counting(rng, cdf, m):
            drawn.append(m)
            return original(rng, cdf, m)

        monkeypatch.setattr(consensus, "_draw_pairs", counting)
        rng = np.random.default_rng(31)
        n = 200
        cycle = sub_from_pairs([[i, (i + 1) % n] for i in range(n)], n)
        graphs = [
            (skewed_sub(n, rng), rng.normal(0, 1, (n, 3))),
            (skewed_sub(n, rng), rng.exponential(1.0, (n, 8))),
            (cycle, rng.normal(0, 1, (n, 3))),   # uniform p: the rule meets the top clamp
            (cycle, np.zeros((n, 3))),           # constant terms: the pilot suffices
        ]
        for cap in (8, 16, 40):
            most = cap * cap // 2
            totals = set()
            for sub, x in graphs:
                for seed in range(6):
                    drawn.clear()
                    zeta(sub, x, beta=1.0, pair_cap=cap, seed=seed)
                    assert drawn[0] == cap and cap <= sum(drawn) <= most
                    totals.add(sum(drawn))
            assert cap in totals and most in totals

    @pytest.mark.parametrize("density", [0.02, 0.3])
    def test_exact_path_equals_pdist(self, density):
        # Gram-matrix distances: bit for bit on binary features, CSR input
        # (a sparse product) and dense (a BLAS GEMM, whose integer sums are
        # exact in any order), and to 1e-12 on real-valued ones
        rng = np.random.default_rng(41)
        n = 120
        sub = skewed_sub(n, rng)
        binary = (rng.random((n, 300)) < density).astype(np.float64)
        for x in (binary, sp.csr_matrix(binary)):
            assert zeta(sub, x, beta=1.0).zeta == pdist_zeta(sub, binary, 1.0)
        dense = rng.normal(0.5, 2.0, (n, 20))
        assert zeta(sub, dense, beta=0.5).zeta == pytest.approx(
            pdist_zeta(sub, dense, 0.5), rel=1e-12
        )

    def test_exact_path_in_row_blocks_equals_pdist(self, monkeypatch):
        # three Gram blocks, the last one short, on dense real-valued rows and
        # on sparse binary ones, dense and CSR; then smaller blocks directly
        rng = np.random.default_rng(43)
        n = 2 * consensus.ZETA_BLOCK + 88
        sub = skewed_sub(n, rng)
        dense = rng.normal(0.5, 2.0, (n, 20))
        binary = (rng.random((n, 300)) < 0.03).astype(np.float64)
        for x, exact in ((dense, dense), (binary, binary), (sp.csr_matrix(binary), binary)):
            expect = pdist_zeta(sub, exact, 0.5)
            assert zeta(sub, x, beta=0.5).zeta == pytest.approx(expect, rel=1e-12)
            for block in (1, 7, 64, n - 1, n):
                monkeypatch.setattr(consensus, "ZETA_BLOCK", block)
                got = consensus._exact_zeta(x, degree_probability(sub), 0.5)
                assert got == pytest.approx(expect, rel=1e-12)
            monkeypatch.undo()

    def test_dense_parts_multiply_dense(self, monkeypatch):
        # a dense graph in five parts whose part 0 is all zero rows: each
        # part's Gram product multiplies the float64 array that training
        # handed zeta, never a CSR copy of a part that looks sparse
        assignment = np.repeat(np.arange(5), [16, 14, 12, 10, 8])
        g = sbm_graph([30, 30], 0.2, 0.03, seed=9, feature_dim=8, feature_noise=0.6)
        feats = np.random.default_rng(9).random((g.num_nodes, 20)) + 0.5
        feats[assignment == 0] = 0.0
        g = dataclasses.replace(g, features=feats)
        p = Partitioning(assignment, 5, 1.0, 0, 0)
        augs = [r.subgraph for r in augment_partitions(g, p, 2, alpha=0.01, seed=0, enabled=False)]
        received, products = [], []

        class Recorded(np.ndarray):
            def __matmul__(self, other):
                products.append(type(self))
                return np.asarray(self) @ np.asarray(other)

        real = consensus._exact_zeta

        def recording(x, p, beta):
            received.append(type(x))
            return real(x.view(Recorded) if isinstance(x, np.ndarray) else x, p, beta)

        monkeypatch.setattr(consensus, "_exact_zeta", recording)
        cfg = Config(k=5, layers=2, hidden=8, eta=1e-3, epochs=1, workers=1, seed=1)
        rep = train(g, p, augs, 1, cfg)
        assert received == [np.ndarray] * 5
        assert products == [Recorded] * 5
        assert rep.zetas[0] > 0

    def test_regularity_maximizes_zeta_exhaustive(self):
        # among all 6-node graphs with a fixed edge count and identical
        # features, zeta is maximized exactly by the most degree-regular ones
        n, m = 6, 6
        all_edges = list(itertools.combinations(range(n), 2))
        best_z, min_var = -1.0, None
        zs, variances = [], []
        for combo in itertools.combinations(all_edges, m):
            sub = sub_from_pairs(list(combo), n)
            z = zeta(sub, np.zeros((n, 1)), beta=1.0).zeta
            deg = sub.view.degrees
            zs.append(z)
            variances.append(deg.var())
        zs = np.array(zs)
        variances = np.array(variances)
        assert set(np.flatnonzero(zs == zs.max())) == set(
            np.flatnonzero(variances == variances.min())
        )

    def test_beta_positive_required(self):
        sub = sub_from_pairs([[0, 1]], 2)
        with pytest.raises(GadError):
            zeta(sub, np.zeros((2, 1)), beta=0.0)


class TestWeightedConsensus:
    def test_uniform_equals_plain_mean(self):
        # unit zetas give the plain mean's weights bit for bit, and those
        # are s_i / m
        scales = [3.7, 1.0, 141.0 / 13.0, 0.25]
        plain = plain_consensus(scales)
        assert weighted_consensus(np.ones(4), scales).tobytes() == plain.tobytes()
        assert plain.tolist() == [s / 4 for s in scales]

    def test_hand_arithmetic(self):
        # zetas (1, 3) and scales (2, 5): (1*2, 3*5) / 4
        assert weighted_consensus([1.0, 3.0], [2.0, 5.0]).tolist() == [0.5, 3.75]

    def test_scale_invariance(self):
        z = np.array([0.5, 1.5, 2.0, 0.1])
        s = [1.0, 2.5, 0.3, 7.0]
        a = weighted_consensus(z, s)
        for c in (0.01, 3.0, 1e6):
            np.testing.assert_allclose(weighted_consensus(c * z, s), a, rtol=1e-15, atol=0)

    def test_convex_hull(self):
        # with unit scales the weights are positive and sum to 1, so the
        # step they give lies in the hull of the parts' gradients
        rng = np.random.default_rng(5)
        grads = rng.normal(0, 1, (3, 2, 2))
        c = weighted_consensus([0.2, 1.0, 2.5], np.ones(3))
        assert (c > 0).all() and c.sum() == pytest.approx(1.0, rel=1e-15)
        step = np.tensordot(c, grads, axes=1)
        assert (step <= grads.max(axis=0) + 1e-12).all()
        assert (step >= grads.min(axis=0) - 1e-12).all()

    def test_rejects_bad_zetas(self):
        for bad in ([0.0], [-1.0], [np.nan], [np.inf]):
            with pytest.raises(GadError, match="positive and finite"):
                weighted_consensus(bad, [1.0])
        with pytest.raises(GadError, match="no parts"):
            weighted_consensus([], [])

    def test_rejects_shape_mismatch(self):
        # a column of scales would broadcast against the zetas
        with pytest.raises(GadError, match="one zeta per scale required"):
            weighted_consensus([1.0, 2.0], [[1.0], [2.0]])

    def test_one_scale_per_gradient_required(self):
        with pytest.raises(GadError, match="one zeta per scale required"):
            weighted_consensus([1.0, 2.0], [2.0])


class TestPlainConsensus:
    def test_single_gradient_identity(self):
        assert plain_consensus([3.0]).tolist() == [3.0]

    def test_mean(self):
        assert plain_consensus([2.0, 6.0]).tolist() == [1.0, 3.0]

    def test_equals_weighted_with_uniform(self):
        scales = np.random.default_rng(6).uniform(0.5, 4.0, 5)
        p = plain_consensus(scales)
        w = weighted_consensus([2.0] * 5, scales)
        np.testing.assert_allclose(p, w, rtol=1e-15, atol=0)

    def test_empty_rejected(self):
        with pytest.raises(GadError):
            plain_consensus([])
