import numpy as np
import pytest
import scipy.sparse as sp

from gad.errors import GadError, NumericalError
from gad.gcn import (
    SPARSE_MAX_DENSITY,
    GcnParams,
    Gradients,
    _softmax_rows,
    _spmm,
    build_batch,
    forward,
    init_params,
    layer_input,
    loss_and_backward,
    sgd_update,
    workspace,
)
from gad.graph import Graph, full_view, normalized_adjacency


def fixture_graph():
    """6-node graph: two triangles joined by a bridge, 4 features, 3 classes."""
    pairs = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
    rng = np.random.default_rng(99)
    feats = rng.normal(0, 1, size=(6, 4))
    labels = np.array([0, 0, 1, 1, 2, 2])
    mask = np.array([True, True, True, True, True, False])
    return Graph.from_edges(6, pairs, features=feats, labels=labels, train_mask=mask)


def whole_batch(g, loss_mask=None, rows=None, x=None):
    """``g`` as one batch over its own A_hat: its features (or ``x``) and labels."""
    adj = normalized_adjacency(full_view(g))
    x = g.features if x is None else x
    return build_batch(adj, x, g.labels, g.num_classes, rows, loss_mask)


def numeric_gradient(params, batch, labels, mask, h=1e-4):
    """Central finite differences of the loss summed over ``mask`` wrt every weight entry.

    ``batch`` computes every row; ``labels`` and ``mask`` are per row.
    """

    def loss_at(ws):
        probs = forward(GcnParams(weights=tuple(ws)), batch).probs
        sel = np.flatnonzero(mask)
        picked = np.clip(probs[sel, labels[sel]], 1e-12, 1.0)
        return -np.log(picked).sum()

    grads = []
    for li, w in enumerate(params.weights):
        gw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            ws = [a.copy() for a in params.weights]
            ws[li][idx] += h
            up = loss_at(ws)
            ws[li][idx] -= 2 * h
            down = loss_at(ws)
            gw[idx] = (up - down) / (2 * h)
        grads.append(gw)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-6)])


class TestForward:
    def test_zero_weights_uniform_probs(self):
        g = fixture_graph()
        params = GcnParams(weights=(np.zeros((4, 3)),))
        cache = forward(params, whole_batch(g))
        np.testing.assert_allclose(cache.probs, np.full((6, 3), 1.0 / 3.0))

    def test_single_node_identity(self):
        g = Graph.from_edges(1, np.zeros((0, 2)), features=np.array([[1.0]]))
        params = GcnParams(weights=(np.array([[1.0, 1.0]]),))
        cache = forward(params, whole_batch(g))
        np.testing.assert_allclose(cache.probs, [[0.5, 0.5]])

    def test_rows_sum_to_one(self):
        g = fixture_graph()
        params = init_params((4, 8, 8, 3), seed=1)
        cache = forward(params, whole_batch(g))
        np.testing.assert_allclose(cache.probs.sum(axis=1), np.ones(6), atol=1e-9)

    def test_matches_straight_line_oracle(self):
        # independent reimplementation of the two-layer matrix chain
        pairs = np.array([[0, 1], [1, 2]])
        rng = np.random.default_rng(5)
        g = Graph.from_edges(3, pairs, features=rng.normal(0, 1, (3, 4)))
        adj = normalized_adjacency(full_view(g)).toarray()
        params = init_params((4, 5, 3), seed=2)
        w1, w2 = params.weights

        h1 = np.maximum(adj @ (g.features @ w1), 0.0)
        z2 = adj @ (h1 @ w2)
        e = np.exp(z2 - z2.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)

        # the propagated input, then the CSR one
        for x in (g.features, sp.csr_matrix(g.features)):
            cache = forward(params, whole_batch(g, x=x))
            np.testing.assert_allclose(cache.probs, expected, atol=1e-12, rtol=0)

    def test_pure_function(self):
        g = fixture_graph()
        batch = whole_batch(g)
        params = init_params((4, 8, 3), seed=3)
        a = forward(params, batch).probs
        b = forward(params, batch).probs
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        params = init_params((5, 3), seed=0)
        with pytest.raises(GadError):
            forward(params, whole_batch(fixture_graph()))


class TestLoss:
    def test_uniform_probs_loss_ln_c(self):
        # each of the 5 masked nodes contributes ln 3
        g = fixture_graph()
        params = GcnParams(weights=(np.zeros((4, 3)),))
        cache = forward(params, whole_batch(g, g.train_mask))
        gr = loss_and_backward(cache, params)
        assert gr.loss == pytest.approx(5 * np.log(3.0))

    def test_one_hot_prediction_near_zero_loss(self):
        # single node, huge correct logit
        g = Graph.from_edges(1, np.zeros((0, 2)), features=np.array([[1.0]]),
                             labels=np.array([0]), train_mask=np.array([True]))
        params = GcnParams(weights=(np.array([[50.0, 0.0]]),))
        cache = forward(params, whole_batch(g, g.train_mask))
        gr = loss_and_backward(cache, params)
        assert gr.loss == pytest.approx(0.0, abs=1e-9)

    def test_empty_mask_rejected(self):
        with pytest.raises(GadError, match="loss mask selects no nodes"):
            whole_batch(fixture_graph(), np.zeros(6, bool))

    def test_label_out_of_range(self):
        g = fixture_graph()
        adj = normalized_adjacency(full_view(g))
        for bad_label in (7, -1):
            bad = g.labels.copy()
            bad[0] = bad_label
            with pytest.raises(GadError, match="label out of range under loss mask"):
                build_batch(adj, g.features, bad, 3, loss_mask=g.train_mask)
        # row 5 is no loss row, so its label is not checked
        bad = g.labels.copy()
        bad[5] = 7
        build_batch(adj, g.features, bad, 3, loss_mask=g.train_mask)

    def test_evaluation_only_batch_has_no_loss(self):
        g = fixture_graph()
        params = init_params((4, 3), seed=0)
        batch = whole_batch(g)
        assert batch.at is None and batch.part is None and batch.weights is None
        with pytest.raises(GadError, match="no loss rows"):
            loss_and_backward(forward(params, batch), params)


class TestGradients:
    @pytest.mark.parametrize("layers", [2, 3, 4])
    # the ids name the loss the gradient is of: the sum over masked nodes
    @pytest.mark.parametrize("hidden", [8, 16], ids=lambda h: f"sum-{h}")
    def test_finite_differences(self, layers, hidden):
        g = fixture_graph()
        adj = normalized_adjacency(full_view(g))
        dims = (4,) + (hidden,) * (layers - 1) + (3,)
        params = init_params(dims, seed=21)
        # the CSR input, then the propagated one
        for x in (sp.csr_matrix(g.features), g.features):
            batch = whole_batch(g, g.train_mask, x=x)
            cache = forward(params, batch)
            if not batch.propagated:
                # keep pre-activations away from the relu kink so central
                # differences with h=1e-4 stay on one side
                margin = min(np.abs(adj @ (h @ w)).min()
                             for h, w in zip(cache.activations, params.weights))
                assert margin > 1e-3, "fixture params sit too close to a relu kink"
            gr = loss_and_backward(cache, params)
            num = numeric_gradient(params, batch, g.labels, g.train_mask)
            for analytic, numeric in zip(gr.grads, num):
                err = rel_err(analytic, numeric)
                big = np.maximum(np.abs(analytic), np.abs(numeric)) > 1e-7
                assert err[big].max() <= 1e-4

    def test_descent_on_separable_fixture(self):
        # loss is non-increasing over 50 full-batch steps with a small step
        # (0.01 on the loss summed over 5 nodes: 0.05 per node's mean)
        g = fixture_graph()
        batch = whole_batch(g, g.train_mask)
        params = init_params((4, 8, 3), seed=11)
        losses = []
        for _ in range(50):
            gr = loss_and_backward(forward(params, batch), params)
            losses.append(gr.loss)
            params = sgd_update(params, gr, 0.01)
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


def bag_of_words_graph(seed=0):
    """120 nodes with binary features about 2% nonzero, 4 classes."""
    rng = np.random.default_rng(seed)
    n = 120
    feats = (rng.random((n, 300)) < 0.02).astype(np.float64)
    return Graph.from_edges(n, rng.integers(0, n, (400, 2)), features=feats,
                            labels=rng.integers(0, 4, n), train_mask=rng.random(n) < 0.5)


class TestSparseLayerInput:
    def test_layout_follows_density(self):
        x = np.zeros((20, 50))
        at_threshold = int(SPARSE_MAX_DENSITY * x.size)
        x.flat[:at_threshold] = 1.0
        assert sp.isspmatrix_csr(layer_input(x))
        x.flat[at_threshold] = 1.0
        dense = layer_input(x)
        assert isinstance(dense, np.ndarray) and dense.dtype == np.float64

    def test_sparse_input_passes_through(self):
        csr = sp.csr_matrix(np.ones((5, 4)))        # dense content, sparse layout
        assert layer_input(csr) is csr
        out = layer_input(sp.coo_matrix(np.eye(5, 4, dtype=np.float32)))
        assert sp.isspmatrix_csr(out) and out.dtype == np.float64
        np.testing.assert_array_equal(out.toarray(), np.eye(5, 4))

    @pytest.mark.parametrize("layers", [2, 3])
    def test_csr_matches_dense(self, layers):
        g = bag_of_words_graph(seed=layers)
        assert np.count_nonzero(g.features) < 0.03 * g.features.size
        csr = layer_input(g.features)
        assert sp.isspmatrix_csr(csr)
        params = init_params((300,) + (16,) * (layers - 1) + (4,), seed=3)
        results = []
        for x in (g.features, csr):
            cache = forward(params, whole_batch(g, g.train_mask, x=x))
            results.append((cache, loss_and_backward(cache, params)))
        (dense_cache, dense_gr), (csr_cache, csr_gr) = results
        assert dense_cache.batch.propagated and not csr_cache.batch.propagated
        np.testing.assert_allclose(csr_cache.probs, dense_cache.probs, rtol=1e-12)
        assert csr_gr.loss == pytest.approx(dense_gr.loss, rel=1e-12)
        for a, b in zip(csr_gr.grads, dense_gr.grads):
            np.testing.assert_allclose(a, b, rtol=1e-12)


class TestPropagatedInput:
    """The builder propagates a dense input once, as ``P = A_hat @ X``, and keeps a CSR one."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_plain_path(self, layers):
        # P = A_hat @ X gives the plain path's pass, which CSR input takes
        g = fixture_graph()
        adj = normalized_adjacency(full_view(g))
        x = layer_input(g.features)
        batch = whole_batch(g, g.train_mask)
        assert batch.propagated
        np.testing.assert_array_equal(batch.x, adj @ x)
        params = init_params((4,) + (8,) * (layers - 1) + (3,), seed=5)
        results = []
        for b in (whole_batch(g, g.train_mask, x=sp.csr_matrix(x)), batch):
            cache = forward(params, b)
            results.append((cache, loss_and_backward(cache, params)))
        (plain_cache, plain_gr), (prop_cache, prop_gr) = results
        np.testing.assert_allclose(prop_cache.probs, plain_cache.probs, rtol=1e-12)
        assert prop_gr.loss == pytest.approx(plain_gr.loss, rel=1e-12)
        for a, b in zip(prop_gr.grads, plain_gr.grads):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_csr_passes_through(self):
        g = bag_of_words_graph(seed=1)
        csr = layer_input(g.features)
        batch = whole_batch(g, x=csr)
        assert not batch.propagated and batch.x is csr
        cache = forward(init_params((300, 16, 4), seed=3), batch)
        assert cache.activations[0] is csr

    def test_row_mismatch_rejected(self):
        g = fixture_graph()
        adj = normalized_adjacency(full_view(g))
        for x, labels in ((g.features[:5], g.labels), (g.features, g.labels[:5])):
            with pytest.raises(GadError, match="one row per adjacency row"):
                build_batch(adj, x, labels, 3)


class TestSpmm:
    """``_spmm`` calls scipy's kernel directly: the same bits as ``a @ b``, and checked shapes."""

    @staticmethod
    def operands():
        """A 9 x 7 sparse matrix whose rows 2, 5 and 8 are empty, and dense blocks for each side."""
        rng = np.random.default_rng(12)
        dense = rng.normal(0, 1, (9, 7)) * (rng.random((9, 7)) < 0.3)
        dense[[2, 5, 8]] = 0.0
        return sp.csr_matrix(dense), rng.normal(0, 1, (7, 4)), rng.normal(0, 1, (9, 4))

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
    def test_equals_scipy_product_bit_for_bit(self, fmt, with_out):
        a, b, c = self.operands()
        a = a.asformat(fmt)
        assert a.nnz and a.getnnz(axis=1)[[2, 5, 8]].tolist() == [0, 0, 0]
        for lhs, rhs in ((a, b), (a.T, c)):     # a.T is in the other format
            out = np.full((lhs.shape[0], rhs.shape[1]), np.nan) if with_out else None
            got = _spmm(lhs, rhs, out)
            assert got.tobytes() == (lhs @ rhs).tobytes()
            assert out is None or got is out

    def test_wrong_output_rejected(self):
        a, b, _ = self.operands()
        for out in (np.empty((9, 5)), np.empty((8, 4)), np.empty((4, 9)).T,
                    np.empty((9, 8))[:, ::2]):
            with pytest.raises(GadError, match="output of its own shape"):
                _spmm(a, b, out)
        with pytest.raises(GadError):
            _spmm(a, b[:6])


class TestSgdUpdate:
    def test_zero_gradient_no_change(self):
        params = init_params((4, 3), seed=0)
        zero = Gradients(grads=(np.zeros((4, 3)),), loss=0.0)
        new = sgd_update(params, zero, 0.1)
        assert np.array_equal(new.weights[0], params.weights[0])

    def test_scalar_arithmetic(self):
        params = GcnParams(weights=(np.array([[1.0]]),))
        gr = Gradients(grads=(np.array([[2.0]]),), loss=0.0)
        new = sgd_update(params, gr, 0.1)
        assert new.weights[0][0, 0] == pytest.approx(0.8)

    def test_input_untouched(self):
        params = GcnParams(weights=(np.array([[1.0]]),))
        gr = Gradients(grads=(np.array([[2.0]]),), loss=0.0)
        sgd_update(params, gr, 0.1)
        assert params.weights[0][0, 0] == 1.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_step_is_a_numerical_error(self):
        params = GcnParams(weights=(np.array([[1.0, -2.0]]),))
        gr = Gradients(grads=(np.array([[4.0, 0.0]]),), loss=0.0)
        with pytest.raises(NumericalError, match="non-finite parameter values"):
            sgd_update(params, gr, 1e308)


def test_glorot_limits():
    params = init_params((100, 50), seed=1)
    limit = np.sqrt(6.0 / 150.0)
    w = params.weights[0]
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.8 * limit


def _part(n, seed, masked=True, sparse=False):
    """A random subgraph of n nodes: (adjacency, features, labels, loss mask)."""
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(n, rng.integers(0, n, (3 * n, 2)))
    if sparse:
        feats = (rng.random((n, 300)) < 0.02).astype(np.float64)
    else:
        feats = rng.normal(0, 1, (n, 48))
    mask = rng.random(n) < 0.6 if masked else np.zeros(n, dtype=bool)
    mask[0] |= masked
    return normalized_adjacency(full_view(g)), feats, rng.integers(0, 5, n), mask


def _stacked(sizes, sparse):
    """Random parts stacked as one batch: (parts, adj, layer input, labels, mask, part ids)."""
    parts = [_part(n, seed, masked, sparse) for seed, (n, masked) in enumerate(sizes)]
    adj = sp.block_diag([a for a, _, _, _ in parts], format="csr")
    x = layer_input(np.concatenate([f for _, f, _, _ in parts]))
    labels = np.concatenate([y for _, _, y, _ in parts])
    mask = np.concatenate([m for _, _, _, m in parts])
    part = np.repeat(np.arange(len(sizes)), [n for n, _ in sizes])
    assert sp.issparse(x) == sparse
    return parts, adj, x, labels, mask, part


def rel_gap(a, b) -> float:
    """Largest entry of |a - b| over the largest entry of |b|."""
    return float(np.abs(np.asarray(a) - b).max() / np.abs(b).max())


class TestSegments:
    """One weighted pass over parts stacked block-diagonally against a pass per part."""

    # alone, 3 and 34 rows take OpenBLAS's small-matrix GEMM at hidden 64 and
    # 700 rows its blocked one, so the stacked pass rounds differently; the
    # 5-row part has no masked row
    SIZES = ((34, True), (3, True), (5, False), (700, True))
    WEIGHTS = (0.7, 3.1, 1.9, 0.04)

    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "propagated"])
    @pytest.mark.parametrize("layers", [2, 3])
    def test_matches_weighted_sum_of_parts(self, sparse, layers):
        parts, adj, x, labels, mask, part = _stacked(self.SIZES, sparse)
        dims = ((300,) if sparse else (48,)) + (64,) * (layers - 1) + (5,)
        params = init_params(dims, seed=layers)
        batch = build_batch(adj, x, labels, 5, np.flatnonzero(mask), mask, part, self.WEIGHTS)
        assert batch.propagated != sparse
        got = loss_and_backward(forward(params, batch), params)

        want_loss, want_grads, part_losses = 0.0, [np.zeros_like(w) for w in params.weights], []
        for (a_i, f_i, y_i, m_i), c in zip(parts, self.WEIGHTS):
            if not m_i.any():
                part_losses.append(0.0)
                continue
            alone = build_batch(a_i, layer_input(f_i), y_i, 5, loss_mask=m_i)
            gr = loss_and_backward(forward(params, alone), params)
            part_losses.append(gr.loss)
            want_loss += c * gr.loss
            for acc, g in zip(want_grads, gr.grads):
                acc += c * g
        assert got.part_losses[2] == 0.0
        assert rel_gap(got.part_losses, np.array(part_losses)) <= 1e-12
        assert got.loss == pytest.approx(want_loss, rel=1e-12)
        for g, want in zip(got.grads, want_grads):
            assert rel_gap(g, want) <= 1e-12

    def test_one_segment_is_the_plain_call(self):
        # by default every loss row is in part 0, of weight 1, bit for bit
        g = fixture_graph()
        adj = normalized_adjacency(full_view(g))
        params = init_params((4, 8, 3), seed=4)
        explicit = build_batch(adj, g.features, g.labels, 3, None, g.train_mask, np.zeros(6),
                               [1.0])
        got = loss_and_backward(forward(params, explicit), params)
        want = loss_and_backward(forward(params, whole_batch(g, g.train_mask)), params)
        assert got.loss == want.loss and got.part_losses.tolist() == [want.loss]
        for a, b in zip(got.grads, want.grads):
            assert a.tobytes() == b.tobytes()

    def test_part_without_weight_rejected(self):
        g = fixture_graph()
        adj = normalized_adjacency(full_view(g))
        build_batch(adj, g.features, g.labels, 3, None, g.train_mask, [0, 0, 0, 1, 1, 1],
                    [1.0, 2.0])
        for part in ([0, 0, 0, 1, 2, 1], [0, 0, -1, 1, 1, 1]):  # row 5 is no loss row
            with pytest.raises(GadError, match="part needs a weight"):
                build_batch(adj, g.features, g.labels, 3, None, g.train_mask, part, [1.0, 2.0])


def all_rows_pass(params, adj, x, labels, mask, part, weights):
    """Logits, part losses and gradients with every row carried to the output.

    The reference for output rows, written out: a dense ``x`` propagated as
    ``adj @ x``, the softmax on every row, a weighted gradient padded with
    zero rows, and ``adj @ G`` in every layer.
    """
    propagated = not sp.issparse(x)
    h = adj @ x if propagated else x
    last = params.num_layers - 1
    hs = []
    for l, w in enumerate(params.weights):
        hs.append(h)
        hw = h @ w
        z = hw if l == 0 and propagated else adj @ hw
        h = z if l == last else np.maximum(z, 0.0)
    probs = _softmax_rows(h.copy())
    sel = np.flatnonzero(mask)
    ys = labels[sel]
    nll = -np.log(np.clip(probs[sel, ys], 1e-12, 1.0))
    losses = np.bincount(part[sel], weights=nll, minlength=len(weights))
    gz = np.zeros_like(probs)
    gz[sel] = probs[sel]
    gz[sel, ys] -= 1.0
    gz[sel] *= np.asarray(weights)[part[sel], None]
    grads = [None] * (last + 1)
    for l in range(last, -1, -1):
        gm = gz if l == 0 and propagated else adj @ gz
        grads[l] = hs[l].T @ gm
        if l > 0:
            gz = (gm @ params.weights[l].T) * (hs[l] > 0.0)
    return h, losses, grads


class TestOutputRows:
    """A pass that computes its last layer on the loss rows only equals the all-rows pass."""

    # the 5-row part has no loss row; the last case is one part
    @pytest.mark.parametrize("sizes", [TestSegments.SIZES, ((90, True),)],
                             ids=["segments", "one-segment"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "propagated"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_loss_rows_pass_matches_all_rows_bit_for_bit(self, sizes, sparse, layers):
        _, adj, x, labels, mask, part = _stacked(sizes, sparse)
        weights = TestSegments.WEIGHTS[:len(sizes)]
        dims = ((300,) if sparse else (48,)) + (64,) * (layers - 1) + (5,)
        params = init_params(dims, seed=layers)
        rows = np.flatnonzero(mask)
        assert 0 < len(rows) < adj.shape[0]

        logits, losses, grads = all_rows_pass(params, adj, x, labels, mask, part, weights)
        full_batch = build_batch(adj, x, labels, 5, None, mask, part, weights)
        rows_batch = build_batch(adj, x, labels, 5, rows, mask, part, weights)
        full, loss_rows = forward(params, full_batch), forward(params, rows_batch)
        assert loss_rows.logits.shape == (len(rows), 5)
        assert full.logits.tobytes() == logits.tobytes()
        assert loss_rows.logits.tobytes() == logits[rows].tobytes()
        assert loss_rows.probs.tobytes() == full.probs[rows].tobytes()
        for cache in (full, loss_rows):
            got = loss_and_backward(cache, params)
            assert got.part_losses.tobytes() == losses.tobytes()
            assert got.loss == float(np.asarray(weights) @ losses)
            for a, b in zip(got.grads, grads):
                assert a.tobytes() == b.tobytes()


    def test_every_row_is_the_default(self):
        g = fixture_graph()
        adj = normalized_adjacency(full_view(g))
        batch = build_batch(adj, g.features, g.labels, 3)
        assert batch.adj_rows is adj and np.array_equal(batch.rows, np.arange(6))
        assert np.shares_memory(batch.adj_rows_t.data, adj.data)    # a view, not a copy
        assert np.array_equal(batch.labels, g.labels)
        params = init_params((4, 8, 3), seed=4)
        cache = forward(params, batch)
        sliced = build_batch(adj, g.features, g.labels, 3, [1, 4])
        assert np.array_equal(sliced.labels, g.labels[[1, 4]])
        assert forward(params, sliced).logits.tobytes() == cache.logits[[1, 4]].tobytes()

    @pytest.mark.parametrize("rows", [[2, 1], [1, 1], [-1, 2], [3, 6], [[0, 1]]])
    def test_rows_validated(self, rows):
        with pytest.raises(GadError, match="distinct row ids in increasing order"):
            whole_batch(fixture_graph(), rows=rows)

    def test_loss_row_outside_output_rows_rejected(self):
        g = fixture_graph()
        params = init_params((4, 8, 3), seed=0)
        # rows 0-4 are masked: row 2 is missing inside the computed range, row 4 past its end
        for rows in ([0, 1, 3, 4, 5], [0, 1, 2, 3]):
            with pytest.raises(GadError, match="did not compute"):
                whole_batch(g, g.train_mask, rows)
            computed = g.train_mask & np.isin(np.arange(6), rows)
            gr = loss_and_backward(forward(params, whole_batch(g, computed, rows)), params)
            assert gr.loss > 0.0


class TestWorkspace:
    """Steps that write their dense products into one workspace equal steps with fresh arrays."""

    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "propagated"])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_shared_workspace_equals_fresh_arrays(self, sparse, layers):
        _, adj, x, labels, mask, part = _stacked(TestSegments.SIZES, sparse)
        dims = ((300,) if sparse else (48,)) + (64,) * (layers - 1) + (5,)
        batch = build_batch(adj, x, labels, 5, np.flatnonzero(mask), mask, part,
                            TestSegments.WEIGHTS)
        # more rows than the batch: a step writes the leading rows only
        ws = workspace(init_params(dims, seed=8), adj.shape[0] + 7)
        runs = []
        for buffers in (None, ws):
            params, steps = init_params(dims, seed=8), []
            for _ in range(2):
                cache = forward(params, batch, ws=buffers)
                gr = loss_and_backward(cache, params, ws=buffers)
                steps.append([cache.logits.tobytes(), np.float64(gr.loss).tobytes()]
                             + [g.tobytes() for g in gr.grads])
                params = sgd_update(params, gr, 1e-3)
            runs.append((steps, [w.tobytes() for w in params.weights]))
            if buffers is not None:   # the gradients live in the workspace
                assert all(np.shares_memory(g, w) for g, w in zip(gr.grads, ws.grads))
        assert runs[0] == runs[1]

    def test_held_gradients_unchanged_by_a_second_call(self):
        g = fixture_graph()
        batch = whole_batch(g, g.train_mask)
        params = init_params((4, 8, 8, 3), seed=6)
        cache = forward(params, batch)
        first = loss_and_backward(cache, params)
        held = [a.tobytes() for a in first.grads]
        second = loss_and_backward(cache, params)
        assert [a.tobytes() for a in second.grads] == held
        other = init_params((4, 8, 8, 3), seed=7)
        loss_and_backward(forward(other, batch), other)
        assert [a.tobytes() for a in first.grads] == held

    def test_batch_larger_than_workspace_rejected(self):
        g = fixture_graph()
        params = init_params((4, 8, 3), seed=6)
        batch = whole_batch(g, x=sp.csr_matrix(g.features))
        with pytest.raises(GadError):
            forward(params, batch, ws=workspace(params, 5))
