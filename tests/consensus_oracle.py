"""The GAD-Optimizer's step written out part by part, independent of the weighted batch pass.

Each subgraph of an update group runs its own forward and backward over its
own A_hat, with its owned training nodes as the loss rows.  Its gradient is
scaled by ``s_i``, the training population over its own training count, and
the coordinator folds the group into one step,
``sum_i zeta_i * (s_i * g_i) / sum(zeta)``, one subgraph at a time, as the
paper writes it.  Only usable as a reference: it repeats every product per
subgraph.
"""

import numpy as np

from gad.gcn import Gradients, build_batch, forward, loss_and_backward
from gad.graph import normalized_adjacency


def subgraph_gradient(params, view, x):
    """Loss and gradient of one subgraph alone; ``x`` is the run's layer-0 input."""
    batch = build_batch(normalized_adjacency(view), x[view.local_ids], view.local_labels(),
                        view.graph.num_classes, loss_mask=view.local_train_mask())
    return loss_and_backward(forward(params, batch), params)


def fold(grads, zetas, scales) -> Gradients:
    """``sum_i zeta_i * (s_i * g_i) / sum(zeta)`` per layer, and the loss alike."""
    total = float(sum(zetas))
    out = []
    for l in range(len(grads[0].grads)):
        acc = np.zeros_like(grads[0].grads[l])
        for z, s, gr in zip(zetas, scales, grads):
            acc += z * (s * gr.grads[l])
        out.append(acc / total)
    loss = sum(z * (s * gr.loss) for z, s, gr in zip(zetas, scales, grads)) / total
    return Gradients(grads=tuple(out), loss=loss)


def group_step(params, views, x, zetas, total_train: int):
    """One update group's step by the per-subgraph loop, and each subgraph's scaled loss.

    ``zetas`` are the subgraphs' weights (all 1 for the plain mean) and
    ``total_train`` the whole graph's training count.
    """
    grads = [subgraph_gradient(params, v, x) for v in views]
    scales = [total_train / int(v.local_train_mask().sum()) for v in views]
    return fold(grads, zetas, scales), [s * gr.loss for s, gr in zip(scales, grads)]
