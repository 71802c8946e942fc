"""Simulated synchronous multi-worker training with gradient consensus.

Workers run as deterministic in-process tasks.  Each round every worker
trains on its next assigned subgraph (forward, masked loss over its owned
training nodes, backward); the coordinator combines the gradients into one
update with either zeta weighting or the plain mean, and all workers apply
the same step.  The replicas are therefore identical between barriers, and
the simulation keeps a single parameter set for all of them.  A round's
subgraphs are stacked block-diagonally and run as one forward and one
backward of one loss, each subgraph's loss rows weighted by its consensus
weight, so its gradient is that step up to rounding (see
:func:`gad.consensus.weighted_consensus`).  Layer 0's layout is chosen once
per run, for the whole feature matrix, and every pass reads its rows of
that input: each round's, and the centralized evaluation's over the whole
graph.  Each pass computes its output layer only on the rows it reads: a
round's loss rows, and the evaluation's validation and test rows.  Each
batch is made once, by :func:`make_batch`, for all its passes, and with CSR
input the first round after an evaluation takes its rows of the
evaluation's ``X @ W_0`` instead of multiplying (see :func:`train`).
Communication is accounted analytically: a worker must fetch the features
of every distinct remote node within ``layers`` hops of its boundary once
per epoch, except those it holds as replicas; one feature costs 4 bytes per
dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np
import scipy.sparse as sp

from .augment import AugmentedSubgraph, assign_to_workers, candidate_replication_nodes
from .consensus import plain_consensus, weighted_consensus, zeta
from .errors import GadError, NumericalError
from .gcn import (
    Batch,
    GcnParams,
    build_batch,
    forward,
    init_params,
    layer_input,
    loss_and_backward,
    sgd_update,
    workspace,
)
from .graph import Graph, full_view, normalized_adjacency
from .partition import Partitioning
from . import rngs


@dataclass(frozen=True, eq=False)
class CommMetrics:
    """Per-epoch feature-fetch accounting, with and without replication."""

    feature_dim: int
    per_part_remote: list[int]          # halo size per partition
    per_part_remote_after: list[int]    # halo minus locally replicated nodes
    per_worker_remote: dict[int, int]
    per_worker_remote_after: dict[int, int]

    @property
    def remote_without(self) -> int:
        return int(sum(self.per_part_remote))

    @property
    def remote_with(self) -> int:
        return int(sum(self.per_part_remote_after))

    @property
    def bytes_without(self) -> int:
        return self.remote_without * self.feature_dim * 4

    @property
    def bytes_with(self) -> int:
        return self.remote_with * self.feature_dim * 4

    def to_json_dict(self) -> dict:
        return {
            "feature_dim": self.feature_dim,
            "per_part_remote": list(map(int, self.per_part_remote)),
            "per_part_remote_after": list(map(int, self.per_part_remote_after)),
            "per_worker_remote": {str(k): int(v) for k, v in self.per_worker_remote.items()},
            "per_worker_remote_after": {
                str(k): int(v) for k, v in self.per_worker_remote_after.items()
            },
            "remote_without": self.remote_without,
            "remote_with": self.remote_with,
            "bytes_without": self.bytes_without,
            "bytes_with": self.bytes_with,
        }


@dataclass(eq=False)
class TrainReport:
    """Everything one training run produced, JSON-serializable.

    Wall-clock timings are kept separate from the deterministic payload so
    that identical (seed, config) runs write byte-identical artifacts.
    """

    config: dict
    seed: int
    worker_of: list[int]
    zetas: list[float]
    comm: CommMetrics | None
    train_loss: list[float] = field(default_factory=list)
    val_acc: list[float | None] = field(default_factory=list)
    test_acc: list[float | None] = field(default_factory=list)
    initial_val_acc: float | None = None
    initial_test_acc: float | None = None
    final_val_acc: float | None = None
    final_test_acc: float | None = None
    best_val_epoch: int | None = None
    epochs_run: int = 0
    epoch_seconds: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "evaluation": "centralized_full_graph",
            "seed": self.seed,
            "worker_of": list(map(int, self.worker_of)),
            "zetas": [float(z) for z in self.zetas],
            "comm": self.comm.to_json_dict() if self.comm else None,
            "train_loss": [float(x) for x in self.train_loss],
            "val_acc": self.val_acc,
            "test_acc": self.test_acc,
            "initial_val_acc": self.initial_val_acc,
            "initial_test_acc": self.initial_test_acc,
            "final_val_acc": self.final_val_acc,
            "final_test_acc": self.final_test_acc,
            "best_val_epoch": self.best_val_epoch,
            "epochs_run": self.epochs_run,
            "notes": self.notes,
        }


def evaluate(params: GcnParams, batch: Batch, masks: np.ndarray, return_xw: bool = False):
    """Centralized accuracy: one forward over ``batch``, argmax vs its labels.

    ``batch`` is the whole graph as one subgraph, reading the masks' rows:
    :func:`train` builds ``make_batch(x, [full_view(g)], rows, loss=False)``
    once per run, with ``x = layer_input(g.features)`` and ``rows`` the
    validation and test nodes.  ``masks`` is one boolean node mask, giving
    one float, or a stack of them (one mask per row), giving a tuple with
    one accuracy per mask, all read from the same forward.  The prediction
    is the argmax of the logits, which the softmax would not change but for
    rounding; ties resolve to the lowest class id.  A mask that selects no
    row, or a row outside ``batch.rows``, raises :class:`GadError`.

    With ``return_xw`` the result is ``(accuracies, xw)``: ``xw`` is the
    pass's layer-0 product ``X @ W_0`` on every row of a CSR input, whose
    rows a pass under the same W_0 can take instead of multiplying (see
    :func:`gad.gcn.forward`), and None for dense input.
    """
    masks = np.asarray(masks, dtype=bool)
    each = np.atleast_2d(masks)
    if not each.any(axis=1).all():
        raise GadError("evaluation mask selects no nodes")
    read = np.zeros(each.shape[1], dtype=bool)
    read[batch.rows] = True
    if (each & ~read).any():
        raise GadError("evaluation mask selects a row the batch does not read")
    xw = batch.x @ params.weights[0] if return_xw and not batch.propagated else None
    hit = np.zeros(len(read), dtype=bool)
    hit[batch.rows] = forward(params, batch, xw).logits.argmax(axis=1) == batch.labels
    accs = tuple(float(hit[m].mean()) for m in each)
    accs = accs[0] if masks.ndim == 1 else accs
    return (accs, xw) if return_xw else accs


def communication_size(
    g: Graph,
    p: Partitioning,
    augmented: list[AugmentedSubgraph],
    layers: int,
    worker_of=None,
) -> CommMetrics:
    """Remote-feature fetch counts per partition, before and after replication."""
    per_part, per_part_after = [], []
    for aug in augmented:
        halo = candidate_replication_nodes(g, p, aug.part, layers)
        replicas = aug.view.replica_ids
        per_part.append(len(halo))
        per_part_after.append(len(halo) - int(np.isin(replicas, halo).sum()))
    if worker_of is None:
        worker_of = list(range(len(augmented)))
    per_worker: dict[int, int] = {}
    per_worker_after: dict[int, int] = {}
    for w, a, b in zip(worker_of, per_part, per_part_after):
        per_worker[int(w)] = per_worker.get(int(w), 0) + a
        per_worker_after[int(w)] = per_worker_after.get(int(w), 0) + b
    return CommMetrics(
        feature_dim=g.feature_dim,
        per_part_remote=per_part,
        per_part_remote_after=per_part_after,
        per_worker_remote=per_worker,
        per_worker_remote_after=per_worker_after,
    )


def make_batch(x, views, rows=None, loss=True, weights=None) -> Batch:
    """The :class:`gad.gcn.Batch` of ``views``, whose layer-0 input is their rows of ``x``.

    ``x`` is the run's :func:`layer_input`, so every pass keeps its layout.
    The views' rows follow one another, and the batch's A_hat is the block
    diagonal of theirs, so no edge joins two of them.  ``rows`` are the
    stacked rows whose output the passes read; every row by default.  The
    loss rows are the views' owned training nodes, each view's weighted by
    ``weights`` (1 by default), and ``loss=False`` makes a batch that is
    only evaluated.  The batch's ``ids`` are the rows of ``x`` behind its
    rows.  See :func:`gad.gcn.build_batch` for the checks.
    """
    adj = sp.block_diag([normalized_adjacency(v) for v in views], format="csr")
    ids = np.concatenate([v.local_ids for v in views])
    mask = np.concatenate([v.local_train_mask() for v in views]) if loss else None
    part = np.repeat(np.arange(len(views)), [v.num_nodes for v in views])
    return build_batch(adj, x[ids], np.concatenate([v.local_labels() for v in views]),
                       views[0].graph.num_classes, rows, mask, part, weights, ids)


def _prepare_groups(g, x, augmented, worker_of, workers, config):
    """Each subgraph's zeta and whether it trains, and the update groups.

    A group is ``(round, batch, grad_scales)``, its loss rows weighted by
    the consensus of its subgraphs; the zetas and the batches read their
    rows of the layer input ``x``.
    """
    total_train = int(g.train_mask.sum())
    zetas, scales, trainable = [], [], []
    for aug in augmented:
        view = aug.view
        zw = zeta(
            aug, x[view.local_ids], beta=config.beta, pair_cap=config.pair_cap,
            seed=int(rngs.stream(config.seed, rngs.ZETA, aug.part).integers(2**31)),
        )
        n_train = int(view.local_train_mask().sum())
        # Each subgraph's summed loss is rescaled to the full training
        # population, so every worker's gradient estimates the same global
        # objective regardless of how many train nodes its subgraph holds
        # (exactly 1.0 for a single whole-graph partition).
        scales.append(total_train / n_train if n_train > 0 else 1.0)
        zetas.append(zw.zeta)
        trainable.append(n_train > 0)
    queues = [np.flatnonzero(worker_of == v) for v in range(workers)]
    groups = []
    for r, row in enumerate(zip_longest(*queues)):
        group = [i for i in row if i is not None and trainable[i]]
        if group:
            views = [augmented[i].view for i in group]
            loss_rows = np.flatnonzero(np.concatenate([v.local_train_mask() for v in views]))
            s = np.array([scales[i] for i in group])
            c = (weighted_consensus([zetas[i] for i in group], s) if config.weighted
                 else plain_consensus(s))
            groups.append((r, make_batch(x, views, loss_rows, weights=c), s))
    if not groups:
        raise GadError("no subgraph has an owned training node")
    return zetas, trainable, groups


def _group_gradient(params, batch: Batch, ws, xw=None):
    """A group's consensus step: one pass over its batch, using the workspace ``ws``.

    ``xw`` is an evaluation's ``X @ W_0`` on every row of the run's CSR
    layer input, made under the current W_0; the forward then takes the
    batch's rows of it instead of multiplying (see :func:`gad.gcn.forward`).
    Those rows are freed when the forward returns.
    """
    cache = forward(params, batch, None if xw is None else xw[batch.ids], ws)
    return loss_and_backward(cache, params, ws)


def train(
    g: Graph,
    p: Partitioning,
    augmented: list[AugmentedSubgraph],
    workers: int,
    config,
    on_barrier=None,
) -> TrainReport:
    """Run the synchronous training loop and return the report.

    ``config`` is a validated :class:`gad.config.Config`.  The update
    groups are fixed before the first epoch: group r holds the r-th
    subgraph that :func:`assign_to_workers` gave each worker, in worker
    order, minus subgraphs with no owned training node (these are listed
    in ``report.notes``); with no group left, it raises :class:`GadError`.
    ``x = layer_input(g.features)`` is made once, and the zetas, the groups'
    block-diagonal batches and the evaluation's batch (the whole graph as
    one subgraph) all read rows of it.  A group's passes compute the output
    layer on its loss rows, each weighted by its subgraph's consensus
    weight, and the evaluation's on the validation and test rows.  Each
    epoch runs every group once, in order: one forward and one backward of
    its weighted loss, writing into one workspace sized by the largest
    batch, and one SGD step.  With CSR input, an evaluation hands its
    ``X @ W_0`` to the next group, which runs under the same W_0 and takes
    its rows of it instead of multiplying.
    ``on_barrier(epoch, r, params_list)`` is called after each step with
    each worker's parameters, mainly so tests can check replica consistency.
    """
    if not augmented:
        raise GadError("need at least one augmented subgraph")
    worker_of = assign_to_workers(augmented, workers)
    x = layer_input(g.features)
    zetas, trainable, groups = _prepare_groups(g, x, augmented, worker_of, workers, config)

    dims = (g.feature_dim,) + (config.hidden,) * (config.layers - 1) + (g.num_classes,)
    params = init_params(dims, seed=config.seed)
    ws = workspace(params, max(batch.adj.shape[0] for _, batch, _ in groups))
    report = TrainReport(
        config=config.to_json_dict(),
        seed=config.seed,
        worker_of=[int(w) for w in worker_of],
        zetas=zetas,
        comm=communication_size(g, p, augmented, config.layers, worker_of=worker_of),
    )
    skipped = sorted(aug.part for aug, t in zip(augmented, trainable) if not t)
    if skipped:
        report.notes.append(f"subgraphs without owned training nodes: {skipped}")

    eval_masks = np.stack([g.val_mask, g.test_mask])
    whole = make_batch(x, [full_view(g)], np.flatnonzero(eval_masks.any(axis=0)), loss=False)
    # xw: the last evaluation's X @ W_0 on every node (CSR input only), whose
    # rows the next group takes, as it runs under the same W_0
    (report.initial_val_acc, report.initial_test_acc), xw = evaluate(
        params, whole, eval_masks, return_xw=True)
    report.final_val_acc, report.final_test_acc = report.initial_val_acc, report.initial_test_acc

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        losses: list[float] = []
        for r, batch, scales in groups:
            try:
                step = _group_gradient(params, batch, ws, xw)
                params = sgd_update(params, step, config.eta)
            except NumericalError as exc:
                exc.partial_report = report   # flushed by the CLI on exit code 2
                raise
            xw = None   # the next group runs under another W_0
            losses += (scales * step.part_losses).tolist()
            if on_barrier is not None:
                on_barrier(epoch, r, [params] * workers)

        report.train_loss.append(float(np.mean(losses)))
        # the last epoch is always evaluated, and gives the final accuracies
        if epoch % config.eval_every == 0 or epoch == config.epochs - 1:
            (report.final_val_acc, report.final_test_acc), xw = evaluate(
                params, whole, eval_masks, return_xw=True)
            report.val_acc.append(report.final_val_acc)
            report.test_acc.append(report.final_test_acc)
        else:
            report.val_acc.append(None)
            report.test_acc.append(None)
        report.epoch_seconds.append(time.perf_counter() - t0)
        report.epochs_run = epoch + 1

    evaluated = [(i, v) for i, v in enumerate(report.val_acc) if v is not None]
    if evaluated:
        report.best_val_epoch = int(max(evaluated, key=lambda t: (t[1], -t[0]))[0])
    report._final_params = params   # handy for callers; not serialized
    return report
