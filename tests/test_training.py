import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from gad import training
from gad.augment import assign_to_workers, augment_partitions, augment_subgraph
from gad.config import Config
from gad.errors import GadError, NumericalError
from gad.gcn import (
    build_batch,
    forward,
    init_params,
    layer_input,
    loss_and_backward,
    sgd_update,
)
from gad.graph import Graph, full_view, normalized_adjacency
from gad.partition import Partitioning, partition_graph
from gad.synthetic import sbm_graph
from gad.training import communication_size, evaluate, make_batch, train

from consensus_oracle import group_step


def small_graph(seed=0):
    return sbm_graph([30, 30], 0.2, 0.03, seed=seed, feature_dim=8, feature_noise=0.6)


def bare_subgraphs(g, p):
    return [r.subgraph for r in augment_partitions(g, p, layers=2, alpha=0.01, seed=0, enabled=False)]


def single_partition(g):
    return Partitioning(np.zeros(g.num_nodes, dtype=np.int64), 1, 1.0, 0, 0)


def whole(g, rows=None):
    """The whole graph as one segment for evaluation, reading ``rows`` (every row by default)."""
    return make_batch(layer_input(g.features), [full_view(g)], rows, loss=False)


def plain_batch(g, loss_mask=None):
    """``g`` as one batch over its own A_hat, built without :func:`make_batch`."""
    adj = normalized_adjacency(full_view(g))
    return build_batch(adj, layer_input(g.features), g.labels, g.num_classes, loss_mask=loss_mask)


class TestEvaluate:
    def test_perfect_predictions(self):
        # edgeless graph, one-hot label features, strong identity weights
        labels = np.array([0, 1, 2, 1, 0])
        feats = np.eye(3)[labels]
        g = Graph.from_edges(5, np.zeros((0, 2)), features=feats, labels=labels,
                             test_mask=np.ones(5, bool))
        params = init_params((3, 3), seed=0)
        params = type(params)(weights=(np.eye(3) * 50.0,))
        assert evaluate(params, whole(g), g.test_mask) == 1.0

    def test_adversarial_permutation_zero(self):
        labels = np.array([0, 1, 2])
        feats = np.eye(3)
        g = Graph.from_edges(3, np.zeros((0, 2)), features=feats, labels=labels,
                             test_mask=np.ones(3, bool))
        perm = np.roll(np.eye(3), 1, axis=1) * 50.0   # predicts label+1
        params = init_params((3, 3), seed=0)
        params = type(params)(weights=(perm,))
        assert evaluate(params, whole(g), g.test_mask) == 0.0

    def test_hand_counted_fixture(self):
        # uniform probabilities: argmax ties resolve to class 0, so accuracy
        # equals the share of masked nodes labeled 0 (here 3 of 10)
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
        g = Graph.from_edges(10, np.zeros((0, 2)),
                             features=np.ones((10, 4)), labels=labels,
                             test_mask=np.ones(10, bool))
        params = init_params((4, 3), seed=0)
        params = type(params)(weights=(np.zeros((4, 3)),))
        assert evaluate(params, whole(g), g.test_mask) == pytest.approx(0.3)

    def test_empty_mask_rejected(self):
        g = small_graph()
        params = init_params((8, 2), seed=0)
        with pytest.raises(GadError):
            evaluate(params, whole(g), np.zeros(g.num_nodes, bool))

    @pytest.mark.parametrize("density", [0.03, 0.5], ids=["csr", "dense"])
    def test_batch_equals_plain_full_graph_forward(self, density):
        g = small_graph(seed=3)
        rng = np.random.default_rng(3)
        g = dataclasses.replace(g, features=(rng.random((g.num_nodes, 40)) < density) * 1.0)
        params = init_params((40, 8, 2), seed=3)
        batch = whole(g)
        plain = forward(params, plain_batch(g))
        stacked = forward(params, batch)
        assert plain.probs.tobytes() == stacked.probs.tobytes()
        assert sp.issparse(batch.x) == (density < 0.1) != batch.propagated


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_softmax_argmax_of_full_forward(self, seed):
        # random parameters; the batch reads the validation and test rows only
        g = small_graph(seed=seed)
        params = init_params((8, 16, 2), seed=seed)
        pred = forward(params, plain_batch(g)).probs.argmax(1)
        masks = np.stack([g.val_mask, g.test_mask])
        batch = whole(g, np.flatnonzero(masks.any(axis=0)))
        assert len(batch.rows) < g.num_nodes
        want = tuple(float((pred[m] == g.labels[m]).mean()) for m in masks)
        assert evaluate(params, batch, masks) == want
        assert evaluate(params, batch, g.test_mask) == want[1]

    def test_mask_outside_read_rows_rejected(self):
        g = small_graph()
        params = init_params((8, 2), seed=0)
        batch = whole(g, np.flatnonzero(g.test_mask))
        evaluate(params, batch, g.test_mask)
        with pytest.raises(GadError, match="does not read"):
            evaluate(params, batch, np.stack([g.test_mask, g.val_mask]))


class TestMakeBatch:
    def test_loss_row_outside_read_rows_rejected(self):
        g = small_graph(seed=2)
        x, views = layer_input(g.features), [full_view(g)]
        rows = np.flatnonzero(g.train_mask)[:-1]
        with pytest.raises(GadError, match="loss mask selects a row the forward pass did not compute"):
            make_batch(x, views, rows)
        assert make_batch(x, views, rows, loss=False).at is None

    def test_label_out_of_range_rejected(self):
        g = small_graph(seed=2)
        labels = g.labels.copy()
        labels[np.flatnonzero(g.train_mask)[3]] = -1
        g = dataclasses.replace(g, labels=labels)
        with pytest.raises(GadError, match="label out of range under loss mask"):
            make_batch(layer_input(g.features), [full_view(g)])

    def test_no_loss_row_rejected(self):
        g = small_graph(seed=2)
        g = dataclasses.replace(g, train_mask=np.zeros(g.num_nodes, bool))
        with pytest.raises(GadError, match="loss mask selects no nodes"):
            make_batch(layer_input(g.features), [full_view(g)])

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_plan_equals_per_call_mask_bit_for_bit(self, layout):
        # the batch of the views, of unit weight per subgraph, gives the
        # gradients of one part holding every loss row; its loss is summed
        # subgraph by subgraph, so it agrees up to rounding
        g = small_graph(seed=4)
        if layout == "csr":
            rng = np.random.default_rng(4)
            g = dataclasses.replace(g, features=(rng.random((g.num_nodes, 90)) < 0.05) * 1.0)
        p = partition_graph(g, 3, seed=4)
        views = [r.subgraph.view for r in augment_partitions(g, p, 2, alpha=0.2, seed=4)]
        mask = np.concatenate([v.local_train_mask() for v in views])
        x, rows = layer_input(g.features), np.flatnonzero(mask)
        batch = make_batch(x, views, rows)
        assert sp.issparse(batch.x) == (layout == "csr")
        labels = np.concatenate([v.local_labels() for v in views])
        one = build_batch(batch.adj, x[batch.ids], labels, g.num_classes, rows, mask)
        params = init_params((g.feature_dim, 8, 8, g.num_classes), seed=4)
        got = loss_and_backward(forward(params, batch), params)
        want = loss_and_backward(forward(params, one), params)
        assert len(got.part_losses) == len(views) and len(want.part_losses) == 1
        assert got.loss == pytest.approx(want.loss, rel=1e-12)
        assert [w.tobytes() for w in got.grads] == [w.tobytes() for w in want.grads]

    def test_rows_come_from_the_views(self):
        # the stacked rows are the views' rows of x, in view order
        g = small_graph(seed=4)
        p = partition_graph(g, 3, seed=4)
        views = [r.subgraph.view for r in augment_partitions(g, p, 2, alpha=0.2, seed=4)]
        x = layer_input(g.features)
        batch = make_batch(x, views, loss=False)
        assert np.array_equal(batch.ids, np.concatenate([v.local_ids for v in views]))
        assert np.array_equal(batch.labels, g.labels[batch.ids])
        assert batch.propagated and batch.adj.shape == (len(batch.ids),) * 2
        assert batch.x.tobytes() == (batch.adj @ x[batch.ids]).tobytes()


class TestCommunicationSize:
    @staticmethod
    def bfs_halo(g, assign, i, depth):
        """Independent set-based BFS oracle."""
        part = set(np.flatnonzero(assign == i).tolist())
        starts = {
            u for u in part
            if any(int(v) not in part for v in g.neighbors(u))
        }
        seen = set(starts)
        frontier = set(starts)
        for _ in range(depth):
            nxt = set()
            for u in frontier:
                nxt |= {int(v) for v in g.neighbors(u)}
            frontier = nxt - seen
            seen |= nxt
        return seen - part

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        g = Graph.from_edges(200, rng.integers(0, 200, (500, 2)),
                             features=np.ones((200, 6)))
        p = partition_graph(g, 4, seed=1)
        augs = bare_subgraphs(g, p)
        for layers in (1, 2, 3):
            cm = communication_size(g, p, augs, layers)
            for i in range(4):
                oracle = self.bfs_halo(g, p.assignment, i, layers)
                assert cm.per_part_remote[i] == len(oracle)
                assert cm.per_part_remote_after[i] == len(oracle)
        assert cm.bytes_without == cm.remote_without * 6 * 4

    def test_no_cut_edges_zero(self):
        g = small_graph()
        p = single_partition(g)
        augs = bare_subgraphs(g, p)
        cm = communication_size(g, p, augs, 2)
        assert cm.bytes_without == 0 and cm.bytes_with == 0

    def test_full_halo_replication_zero_bytes(self):
        g = small_graph()
        p = partition_graph(g, 2, seed=2)
        from gad.augment import candidate_replication_nodes

        augs = []
        for i in range(2):
            halo = candidate_replication_nodes(g, p, i, 2)
            augs.append(augment_subgraph(g, p.part_nodes(i), halo, part=i))
        cm = communication_size(g, p, augs, 2)
        assert cm.bytes_with == 0
        assert cm.bytes_without > 0

    def test_monotone_in_replicas(self):
        g = small_graph()
        p = partition_graph(g, 2, seed=3)
        from gad.augment import candidate_replication_nodes

        halo = candidate_replication_nodes(g, p, 0, 2)
        prev = None
        other = augment_subgraph(g, p.part_nodes(1), [], part=1)
        for take in range(len(halo) + 1):
            aug0 = augment_subgraph(g, p.part_nodes(0), halo[:take], part=0)
            cm = communication_size(g, p, [aug0, other], 2)
            if prev is not None:
                assert cm.bytes_with <= prev
            prev = cm.bytes_with


def quick_config(**kw):
    base = dict(k=2, layers=2, hidden=8, eta=1e-3, epochs=5, workers=2,
                eval_every=5, seed=1)
    base.update(kw)
    return Config(**base)


class TestTrain:
    def test_single_machine_equivalence(self):
        # 1 worker, 1 whole-graph partition, unweighted: per-epoch losses
        # match a direct engine loop exactly
        for layers in (2, 3, 4):
            g = small_graph(seed=layers)
            p = single_partition(g)
            augs = bare_subgraphs(g, p)
            cfg = quick_config(k=1, workers=1, weighted=False, epochs=20, layers=layers)
            rep = train(g, p, augs, 1, cfg)

            dims = (g.feature_dim,) + (cfg.hidden,) * (layers - 1) + (g.num_classes,)
            params = init_params(dims, seed=cfg.seed)
            # layer 0's input prepared as train prepares it
            batch = plain_batch(g, g.train_mask)
            oracle = []
            for _ in range(20):
                gr = loss_and_backward(forward(params, batch), params)
                oracle.append(gr.loss)
                params = sgd_update(params, gr, cfg.eta)
            assert np.allclose(rep.train_loss, oracle, rtol=0, atol=1e-12)
            assert np.max(np.abs(np.array(rep.train_loss) - np.array(oracle))) == 0.0

    def test_one_adjacency_and_one_evaluate_per_evaluation_point(self, monkeypatch):
        g = small_graph(seed=4)
        p = partition_graph(g, 3, seed=4)
        augs = bare_subgraphs(g, p)
        calls = {"adj": 0, "eval": 0}
        real_adj, real_eval = training.normalized_adjacency, training.evaluate

        def counting_adj(view):
            calls["adj"] += 1
            return real_adj(view)

        def counting_eval(*args, **kwargs):
            calls["eval"] += 1
            return real_eval(*args, **kwargs)

        monkeypatch.setattr(training, "normalized_adjacency", counting_adj)
        monkeypatch.setattr(training, "evaluate", counting_eval)
        rep = train(g, p, augs, 2, quick_config(k=3, epochs=8, eval_every=3))
        # one full-graph A_hat for evaluation, plus one per task
        assert calls["adj"] == 1 + len(augs)
        # initial, then epochs 0, 3, 6 and the last one, 7
        assert [i for i, v in enumerate(rep.val_acc) if v is not None] == [0, 3, 6, 7]
        assert calls["eval"] == 1 + 4
        assert (rep.final_val_acc, rep.final_test_acc) == (rep.val_acc[-1], rep.test_acc[-1])
        # one forward scores both masks exactly as separate calls would
        monkeypatch.undo()
        assert rep.final_val_acc == evaluate(rep._final_params, whole(g), g.val_mask)
        assert rep.final_test_acc == evaluate(rep._final_params, whole(g), g.test_mask)

    @pytest.mark.parametrize("empty", ["val_mask", "test_mask"])
    def test_empty_evaluation_mask_rejected(self, empty):
        g = small_graph(seed=4)
        g = dataclasses.replace(g, **{empty: np.zeros(g.num_nodes, bool)})
        p = single_partition(g)
        with pytest.raises(GadError):
            train(g, p, bare_subgraphs(g, p), 1, quick_config(k=1, workers=1))

    def test_zero_epochs_initial_eval_only(self):
        g = small_graph()
        p = single_partition(g)
        rep = train(g, p, bare_subgraphs(g, p), 1, quick_config(k=1, workers=1, epochs=0))
        assert rep.epochs_run == 0
        assert rep.train_loss == []
        assert rep.initial_val_acc is not None
        assert rep.final_test_acc == rep.initial_test_acc

    def test_replicas_bit_identical_at_barriers(self):
        g = small_graph(seed=5)
        p = partition_graph(g, 3, seed=5)
        augs = [r.subgraph for r in augment_partitions(g, p, 2, alpha=0.2, seed=5)]
        seen = []

        def check(epoch, rnd, replicas):
            for r in replicas[1:]:
                for a, b in zip(replicas[0].weights, r.weights):
                    assert np.array_equal(a, b)
            seen.append((epoch, rnd))

        train(g, p, augs, 2, quick_config(k=3, workers=2, epochs=3), on_barrier=check)
        assert len(seen) > 0

    def test_multi_round_schedule_matches_serial_loop(self):
        self._schedule_matches_serial_loop(small_graph(seed=9), layers=2)

    def test_multi_round_schedule_matches_serial_loop_plain_mean(self):
        self._schedule_matches_serial_loop(small_graph(seed=9), layers=2, weighted=False)

    def test_multi_round_schedule_matches_serial_loop_sparse_three_layers(self):
        # bag-of-words features (3% nonzero) take the CSR layer-0 path
        g = small_graph(seed=9)
        rng = np.random.default_rng(9)
        feats = (rng.random((g.num_nodes, 200)) < 0.03).astype(np.float64)
        g = dataclasses.replace(g, features=feats)
        assert sp.issparse(layer_input(g.features))
        self._schedule_matches_serial_loop(g, layers=3)

    def test_first_group_after_an_evaluation_takes_its_product(self, monkeypatch):
        # CSR features, two update groups per epoch and an evaluation after
        # epochs 0, 2 and 3 (and one before training): the first group after
        # each evaluation takes its rows of that evaluation's X @ W_0, no
        # other group does, and the run still equals the serial loop
        g = small_graph(seed=9)
        rng = np.random.default_rng(9)
        feats = (rng.random((g.num_nodes, 200)) < 0.03).astype(np.float64)
        g = dataclasses.replace(g, features=feats)
        assert sp.issparse(layer_input(g.features))
        real_group_gradient = training._group_gradient
        taken = []

        def recording_group_gradient(*args):
            taken.append(args[-1] is not None)
            return real_group_gradient(*args)

        monkeypatch.setattr(training, "_group_gradient", recording_group_gradient)
        self._schedule_matches_serial_loop(g, layers=3, eval_every=2)
        assert taken == [True, False, True, False, False, False, True, False]

    @staticmethod
    def _schedule_matches_serial_loop(g, layers, eval_every=5, weighted=True):
        # k = 5 parts on 2 workers take three rounds.  Part 4 owns no
        # training node, which leaves its round with nothing to train.
        assignment = np.repeat(np.arange(5), [16, 14, 12, 10, 8])
        g = dataclasses.replace(g, train_mask=g.train_mask & (assignment != 4))
        p = Partitioning(assignment, 5, 1.0, 0, 0)
        augs = [r.subgraph for r in augment_partitions(g, p, 2, alpha=0.2, seed=9)]
        cfg = quick_config(k=5, workers=2, epochs=4, weighted=weighted, layers=layers,
                           eval_every=eval_every)
        barriers = []
        rep = train(g, p, augs, 2, cfg, on_barrier=lambda e, r, _: barriers.append((e, r)))
        assert any("[4]" in n for n in rep.notes)

        # group r: the r-th subgraph of each worker, in worker order, minus
        # subgraphs without owned training nodes; empty groups are dropped
        worker_of = assign_to_workers(augs, 2)
        queues = [np.flatnonzero(worker_of == w) for w in range(2)]
        groups = []
        for r in range(max(len(q) for q in queues)):
            group = [int(q[r]) for q in queues
                     if r < len(q) and augs[q[r]].view.local_train_mask().any()]
            if group:
                groups.append((r, group))
        assert [len(group) for _, group in groups] == [2, 2]

        # the per-subgraph passes and fold of consensus_oracle: each step
        # agrees up to rounding, since train sums every product over the
        # whole group at once
        total = int(g.train_mask.sum())
        x = layer_input(g.features)
        dims = (g.feature_dim,) + (cfg.hidden,) * (cfg.layers - 1) + (g.num_classes,)
        params = init_params(dims, seed=cfg.seed)
        losses, expected, accs = [], [], []
        for epoch in range(cfg.epochs):
            epoch_losses = []
            for r, group in groups:
                zetas = [rep.zetas[i] if weighted else 1.0 for i in group]
                step, scaled = group_step(params, [augs[i].view for i in group], x, zetas, total)
                epoch_losses += scaled
                params = sgd_update(params, step, cfg.eta)
                expected.append((epoch, r))
            losses.append(float(np.mean(epoch_losses)))
            if epoch % eval_every == 0 or epoch == cfg.epochs - 1:
                accs.append(evaluate(params, whole(g), np.stack([g.val_mask, g.test_mask])))
            else:
                accs.append((None, None))

        np.testing.assert_allclose(rep.train_loss, losses, rtol=1e-12, atol=0)
        for a, b in zip(rep._final_params.weights, params.weights):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert barriers == expected
        assert list(zip(rep.val_acc, rep.test_acc)) == accs

    def test_deterministic_reports(self):
        g = small_graph(seed=6)
        p = partition_graph(g, 2, seed=6)
        augs = [r.subgraph for r in augment_partitions(g, p, 2, alpha=0.2, seed=6)]
        r1 = train(g, p, augs, 2, quick_config(epochs=4))
        r2 = train(g, p, augs, 2, quick_config(epochs=4))
        import json

        assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
            r2.to_json_dict(), sort_keys=True
        )

    def test_uniform_zeta_equals_plain_bit_exact(self):
        # singleton parts get the neutral weight 1.0, making the weighted
        # average arithmetically identical to the plain mean
        g = Graph.from_edges(
            4, np.array([[0, 1]]),
            features=np.eye(4)[:, :2],
            labels=np.array([0, 1, 0, 1]),
            train_mask=np.array([True, True, False, False]),
            val_mask=np.array([False, False, True, False]),
            test_mask=np.array([False, False, False, True]),
        )
        p = Partitioning(np.array([0, 1, 2, 3]), 4, 1.0, 1, 0)
        augs = bare_subgraphs(g, p)
        cfg_w = quick_config(k=4, epochs=6, eval_every=6, weighted=True, hidden=4)
        cfg_p = quick_config(k=4, epochs=6, eval_every=6, weighted=False, hidden=4)
        rw = train(g, p, augs, 2, cfg_w)
        rp = train(g, p, augs, 2, cfg_p)
        assert rw.zetas == [1.0, 1.0, 1.0, 1.0]
        for a, b in zip(rw._final_params.weights, rp._final_params.weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_every_pass_gets_the_graphs_layout(self, monkeypatch, layout):
        # five parts; part 0's rows are much sparser or denser than the
        # graph's, but every pass must still take the whole graph's layout
        assignment = np.repeat(np.arange(5), [16, 14, 12, 10, 8])
        g = small_graph(seed=9)
        rng = np.random.default_rng(9)
        if layout == "dense":
            feats = rng.random((g.num_nodes, 20)) + 0.5
            feats[assignment == 0] = 0.0
        else:
            feats = (rng.random((g.num_nodes, 200)) < 0.03) * 1.0
            feats[assignment == 0, :30] = 1.0   # 15% nonzero
        g = dataclasses.replace(g, features=feats)
        assert sp.issparse(layer_input(g.features)) == (layout == "csr")
        p = Partitioning(assignment, 5, 1.0, 0, 0)
        augs = bare_subgraphs(g, p)
        seen = []
        real_forward = training.forward

        def recording_forward(params, batch, *args):
            seen.append(type(batch.x))
            return real_forward(params, batch, *args)

        monkeypatch.setattr(training, "forward", recording_forward)
        train(g, p, augs, 1, quick_config(k=5, workers=1, epochs=2, eval_every=1))
        # per epoch five single-part groups, then one evaluation; one before
        assert len(seen) == 1 + 2 * (5 + 1)
        assert set(seen) == {sp.csr_matrix if layout == "csr" else np.ndarray}

    def test_no_owned_training_node_rejected(self):
        g = small_graph(seed=7)
        g = dataclasses.replace(g, train_mask=np.zeros(g.num_nodes, bool))
        p = partition_graph(g, 2, seed=7)
        with pytest.raises(GadError, match="no subgraph has an owned training node"):
            train(g, p, bare_subgraphs(g, p), 2, quick_config())

    def test_worker_without_subgraphs_allowed(self):
        g = small_graph(seed=7)
        p = partition_graph(g, 2, seed=7)
        augs = bare_subgraphs(g, p)
        rep = train(g, p, augs, 5, quick_config(epochs=2, workers=5))
        assert rep.epochs_run == 2

    def test_untrainable_subgraph_noted(self):
        # part 1 holds no training nodes: it is skipped and noted
        g = Graph.from_edges(
            4, np.array([[0, 1], [2, 3], [1, 2]]),
            features=np.eye(4), labels=np.array([0, 1, 0, 1]),
            train_mask=np.array([True, True, False, False]),
            val_mask=np.array([False, False, True, False]),
            test_mask=np.array([False, False, False, True]),
        )
        p = Partitioning(np.array([0, 0, 1, 1]), 2, 1.0, 1, 0)
        augs = bare_subgraphs(g, p)
        rep = train(g, p, augs, 2, quick_config(epochs=2, hidden=4))
        assert any("without owned training nodes" in n for n in rep.notes)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numerical_failure_carries_partial_report(self):
        g = small_graph(seed=8)
        p = single_partition(g)
        augs = bare_subgraphs(g, p)
        cfg = quick_config(k=1, workers=1, epochs=50, eta=1e12)
        with pytest.raises(NumericalError) as exc_info:
            train(g, p, augs, 1, cfg)
        assert hasattr(exc_info.value, "partial_report")

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_update_carries_partial_report(self):
        # the first loss is finite, and the step from it overflows the weights
        g = small_graph(seed=8)
        p = partition_graph(g, 2, seed=8)
        cfg = quick_config(epochs=3, eta=1e308)
        with pytest.raises(NumericalError, match="non-finite parameter values") as exc_info:
            train(g, p, bare_subgraphs(g, p), 2, cfg)
        assert exc_info.value.partial_report.train_loss == []
