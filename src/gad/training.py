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
batch is made once, by :func:`make_batch`, for all its passes, every pass
writes into the run's one workspace, and with CSR input the first round
after an evaluation takes its rows of the evaluation's ``X @ W_0`` instead
of multiplying (see :func:`train`).
Communication is accounted analytically: a worker must fetch the features
of every distinct remote node within ``layers`` hops of its boundary once
per epoch, except those it holds as replicas; one feature costs 4 bytes per
dimension.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import zip_longest

import numpy as np
import scipy.sparse as sp

from .augment import AugmentedSubgraph, assign_to_workers, candidate_replication_nodes
from .consensus import plain_consensus, weighted_consensus, zeta
from .errors import GadError, NumericalError
from .gcn import (
    Batch,
    GcnParams,
    Workspace,
    _spmm,
    build_batch,
    forward,
    init_params,
    layer_input,
    loss_and_backward,
    sgd_update,
    workspace,
)
from .graph import Graph, csr_offsets, csr_rows, full_view, normalized_adjacency
from .partition import Partitioning
from . import rngs


@dataclass(frozen=True, eq=False)
class CommMetrics:
    """Per-epoch feature-fetch accounting, with and without replication."""

    feature_dim: int
    per_part_remote: list[int]          # halo size per partition
    per_part_remote_after: list[int]    # halo minus locally replicated nodes
    per_worker_remote: dict[str, int]   # keyed by str(worker), as in the JSON
    per_worker_remote_after: dict[str, int]

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
        return {**asdict(self), "remote_without": self.remote_without,
                "remote_with": self.remote_with, "bytes_without": self.bytes_without,
                "bytes_with": self.bytes_with}


@dataclass(eq=False)
class TrainReport:
    """Everything one training run produced, JSON-serializable.

    The wall-clock ``epoch_seconds`` stay out of :meth:`to_json_dict`, so
    that identical (seed, config) runs write byte-identical artifacts.  An
    empty validation or test split gives None accuracies, and no validation
    split no ``best_val_epoch``.
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
        d = asdict(self)
        del d["epoch_seconds"]
        d["comm"] = self.comm.to_json_dict() if self.comm else None
        return {**d, "evaluation": "centralized_full_graph"}


def evaluate(params: GcnParams, batch: Batch, masks: np.ndarray, return_xw: bool = False,
             ws: Workspace | None = None):
    """Centralized accuracy: one forward over ``batch``, argmax vs its labels.

    ``batch`` is the whole graph as one subgraph, reading the masks' rows:
    :func:`train` builds ``make_batch(x, [full_view(g)], rows)`` once per
    run, with ``x = layer_input(g.features)`` and ``rows`` the validation
    and test nodes.  ``masks`` is one boolean node mask, giving
    one float, or a stack of them (one mask per row), giving a tuple with
    one accuracy per mask, all read from the same forward.  The prediction
    is the argmax of the logits, which the softmax would not change but for
    rounding; ties resolve to the lowest class id.  A mask whose length is
    not the batch's row count, that selects no row, or that selects a row
    outside ``batch.rows`` raises :class:`GadError`.

    With ``return_xw`` the result is ``(accuracies, xw)``: ``xw`` is the
    pass's layer-0 product ``X @ W_0`` on every row of a CSR input, whose
    rows a pass under the same W_0 can take instead of multiplying (see
    :func:`gad.gcn.forward`), and None for dense input.  The forward writes
    into ``ws``, a :func:`gad.gcn.workspace` (a fresh one by default).
    """
    masks = np.asarray(masks, dtype=bool)
    each = np.atleast_2d(masks)
    n = batch.adj.shape[0]
    if each.shape[1] != n:
        raise GadError(f"evaluation mask has {each.shape[1]} entries for a batch of {n} rows")
    if not each.any(axis=1).all():
        raise GadError("evaluation mask selects no nodes")
    read = np.zeros(n, dtype=bool)
    read[batch.rows] = True
    if (each & ~read).any():
        raise GadError("evaluation mask selects a row the batch does not read")
    xw = _spmm(batch.x, params.weights[0]) if return_xw and not batch.propagated else None
    hit = np.zeros(n, dtype=bool)
    hit[batch.rows] = forward(params, batch, xw, ws).logits.argmax(axis=1) == batch.labels
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
    """Remote-feature fetch counts per partition, before and after replication.

    ``worker_of`` holds each part's worker, one entry per part (part i on
    worker i by default); the per-worker figures sum over it.
    """
    if worker_of is None:
        worker_of = list(range(len(augmented)))
    if len(worker_of) != len(augmented):
        raise GadError(f"worker_of has {len(worker_of)} entries for {len(augmented)} parts")
    per_part, per_part_after = [], []
    for aug in augmented:
        halo = candidate_replication_nodes(g, p, aug.part, layers)
        replicas = aug.view.replica_ids
        per_part.append(len(halo))
        per_part_after.append(len(halo) - int(np.isin(replicas, halo).sum()))
    per_worker: dict[str, int] = {}
    per_worker_after: dict[str, int] = {}
    for w, a, b in zip(map(str, worker_of), per_part, per_part_after):
        per_worker[w] = per_worker.get(w, 0) + a
        per_worker_after[w] = per_worker_after.get(w, 0) + b
    return CommMetrics(
        feature_dim=g.feature_dim,
        per_part_remote=per_part,
        per_part_remote_after=per_part_after,
        per_worker_remote=per_worker,
        per_worker_remote_after=per_worker_after,
    )


def make_batch(x, views, rows=None, weights=None) -> Batch:
    """The :class:`gad.gcn.Batch` of ``views``, whose layer-0 input is their rows of ``x``.

    ``x`` is the run's :func:`layer_input`, so every pass keeps its layout.
    The views' rows follow one another, and the batch's A_hat is the block
    diagonal of theirs, so no edge joins two of them.  ``weights``, one per
    view, makes a training batch: its rows are the views' owned training
    nodes, and each view's loss is weighted by its weight.  Without it the
    batch is only evaluated, and reads the stacked ``rows`` (every row by
    default).  The batch's ``ids`` are the rows of ``x`` behind its rows.
    See :func:`gad.gcn.build_batch` for the checks.
    """
    if weights is not None:
        if rows is not None:
            raise GadError("a training batch's rows are its views' training nodes")
        rows = np.flatnonzero(np.concatenate([v.local_train_mask() for v in views]))
    adj = sp.block_diag([normalized_adjacency(v) for v in views], format="csr")
    ids = np.concatenate([v.local_ids for v in views])
    part = csr_rows(csr_offsets([v.num_nodes for v in views]))
    return build_batch(adj, x[ids], np.concatenate([v.local_labels() for v in views]),
                       views[0].graph.num_classes, rows, part, weights, ids)


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
            s = np.array([scales[i] for i in group])
            c = (weighted_consensus([zetas[i] for i in group], s) if config.weighted
                 else plain_consensus(s))
            groups.append((r, make_batch(x, [augmented[i].view for i in group], weights=c), s))
    if not groups:
        raise GadError("no subgraph has an owned training node")
    return zetas, trainable, groups


def train(
    g: Graph,
    p: Partitioning,
    augmented: list[AugmentedSubgraph],
    workers: int,
    config,
    on_barrier=None,
) -> TrainReport:
    """Run the synchronous training loop and return the report.

    ``config`` is a validated :class:`gad.config.Config`, whose ``workers``
    must equal ``workers`` (else :class:`GadError`).  The update
    groups are fixed before the first epoch: group r holds the r-th
    subgraph that :func:`assign_to_workers` gave each worker, in worker
    order, minus subgraphs with no owned training node (these are listed
    in ``report.notes``); with no group left, it raises :class:`GadError`.
    ``x = layer_input(g.features)`` is made once, and the zetas, the groups'
    block-diagonal batches and the evaluation's batch (the whole graph as
    one subgraph) all read rows of it.  A group's passes compute the output
    layer on its loss rows, each weighted by its subgraph's consensus
    weight, and the evaluation's on the validation and test rows (an empty
    split is not evaluated, and its accuracies are None).  Each
    epoch runs every group once, in order: one forward and one backward of
    its weighted loss, and one SGD step.  Every pass, the evaluation's
    included, writes into one workspace sized by the whole graph or the
    largest batch, whichever has more rows.  With CSR input, an evaluation
    hands its ``X @ W_0`` to the next group, which runs under the same W_0
    and takes its rows of it instead of multiplying; those rows are freed
    when the group's forward returns.
    ``on_barrier(epoch, r, params_list)`` is called after each step with
    each worker's parameters, mainly so tests can check replica consistency.
    """
    if not augmented:
        raise GadError("need at least one augmented subgraph")
    if workers != config.workers:
        raise GadError(f"workers={workers} but config.workers={config.workers}")
    worker_of = assign_to_workers(augmented, workers)
    x = layer_input(g.features)
    zetas, trainable, groups = _prepare_groups(g, x, augmented, worker_of, workers, config)

    dims = (g.feature_dim,) + (config.hidden,) * (config.layers - 1) + (g.num_classes,)
    params = init_params(dims, seed=config.seed)
    ws = workspace(params, max([g.num_nodes] + [batch.adj.shape[0] for _, batch, _ in groups]))
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

    shown = [m.any() for m in (g.val_mask, g.test_mask)]
    eval_masks = np.stack([g.val_mask, g.test_mask])[shown]
    whole = make_batch(x, [full_view(g)], np.flatnonzero(eval_masks.any(axis=0)))

    def evaluated(params):
        """(val, test) accuracy, None for an empty split, and the pass's ``X @ W_0``."""
        if not any(shown):
            return (None, None), None
        accs, xw = evaluate(params, whole, eval_masks, True, ws)
        accs = iter(accs)
        return tuple(next(accs) if s else None for s in shown), xw

    # xw: the last evaluation's X @ W_0 on every node (CSR input only), whose
    # rows the next group takes, as it runs under the same W_0
    (report.initial_val_acc, report.initial_test_acc), xw = evaluated(params)
    report.final_val_acc, report.final_test_acc = report.initial_val_acc, report.initial_test_acc

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        losses: list[float] = []
        for r, batch, scales in groups:
            try:
                cache = forward(params, batch, None if xw is None else xw[batch.ids], ws)
                step = loss_and_backward(cache, params, ws)
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
            (report.final_val_acc, report.final_test_acc), xw = evaluated(params)
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
