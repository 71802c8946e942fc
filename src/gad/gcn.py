"""Multi-layer GCN with an analytic backward pass, in float64.

Layer l computes H = relu(A_hat @ H_prev @ W_l); the final layer has no
relu, and its output rows are logits whose row softmax gives the class
probabilities.  Layers after the first multiply as A_hat @ (H_prev @ W_l).
Layer 0 takes CSR features the same way (see :func:`layer_input`), but dense
features as P = A_hat @ X, made once per adjacency, and then computes P @ W_0
(see :func:`propagated_input`).  The loss is masked categorical
cross-entropy summed over the selected nodes, and gradients come from exact
reverse-mode differentiation of that chain, so they can be checked against
finite differences.

One pass can carry several parts as the blocks of a block-diagonal A_hat,
each product run once over all rows, with the loss ``sum_i c_i * L_i`` of
the parts' summed losses (see :func:`loss_plan`); no edge joins two parts,
so its gradient is ``sum_i c_i * g_i`` up to rounding.  A pass computes its
last layer only on the rows it reads (see :class:`OutputRows`: the loss rows
in training, the scored rows in evaluation), as A_hat[rows] @ (H @ W); every
row is the default, and the rows it computes equal those of an all-rows
pass, bit for bit.  What the backward needs of the loss rows is fixed per
batch (see :class:`LossPlan`), and a run's steps write their products over
all rows into one reused :class:`Workspace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import rngs
from .errors import GadError, NumericalError

PROB_FLOOR = 1e-12   # clip for log(y_hat)
# Layer-0 inputs at most this dense are kept in CSR: bag-of-words features
# (about 1% nonzero) then cost O(nnz * hidden) per product instead of
# O(n * d * hidden), while dense features keep the BLAS path.
SPARSE_MAX_DENSITY = 0.10


@dataclass(frozen=True, eq=False)
class GcnParams:
    """Per-layer weight matrices; dims chain feature_dim -> hidden... -> classes."""

    weights: tuple[np.ndarray, ...]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def __post_init__(self):
        for a, b in zip(self.weights, self.weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise GadError("adjacent layer dimensions do not chain")
        for w in self.weights:
            if not np.isfinite(w).all():
                raise GadError("non-finite parameter values")


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """Intermediate activations of one forward pass."""

    activations: tuple[np.ndarray, ...]   # H_0 .. H_{L-1} (inputs to each layer)
    logits: np.ndarray                    # last layer's output, one row per out_rows.rows
    propagated: bool                      # H_0 is A_hat @ X, see Propagated
    out_rows: OutputRows                  # the rows the last layer computed

    @property
    def probs(self) -> np.ndarray:
        """Row softmax of ``logits``, computed on each access; rows sum to 1."""
        return _softmax_rows(self.logits.copy())


@dataclass(frozen=True, eq=False)
class Propagated:
    """Dense layer-0 input with its A_hat applied; see :func:`propagated_input`."""

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class Gradients:
    """Loss value and d(loss)/dW per layer, shaped like the parameters."""

    grads: tuple[np.ndarray, ...]
    loss: float
    part_losses: np.ndarray | None = None   # each L_i of a loss sum_i c_i * L_i


def init_params(dims: tuple[int, ...], seed: int = 0) -> GcnParams:
    """Glorot-uniform initialization for the given dimension chain."""
    rng = rngs.stream(seed, rngs.INIT)
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
    return GcnParams(weights=tuple(weights))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row softmax, computed in place in ``z``."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def layer_input(features) -> np.ndarray | sp.csr_matrix:
    """The features in the layout layer 0 multiplies fastest.

    Sparse input is returned as float64 CSR (unchanged if it already is);
    a dense array becomes CSR when at most ``SPARSE_MAX_DENSITY`` of its
    entries are nonzero and stays a float64 array otherwise.  Call it once,
    on the whole graph's features: a subgraph's pass takes its rows of the
    result, so every pass keeps the graph's layout, whatever its own rows'
    density.
    """
    if sp.issparse(features):
        return features.tocsr().astype(np.float64, copy=False)
    x = np.asarray(features, dtype=np.float64)
    if np.count_nonzero(x) <= SPARSE_MAX_DENSITY * x.size:
        return sp.csr_matrix(x)
    return x


def propagated_input(x, adj: sp.csr_matrix):
    """Layer 0's input with ``adj`` applied once, where that saves work.

    ``x`` is a :func:`layer_input` result.  A dense ``x`` becomes
    ``Propagated(adj @ x)``: each later pass then costs n*d*h multiply-adds
    in layer 0 instead of n*d*h + nnz(A_hat)*h, and the result equals the
    plain path's because ``A_hat`` is symmetric.  A CSR ``x`` is returned
    as is, since ``A_hat @ X`` holds several times the nonzeros of a sparse
    ``X``.  Pass the result to :func:`forward` with this same ``adj`` only.
    """
    if sp.issparse(x):
        return x
    return Propagated(adj @ x)


@dataclass(frozen=True, eq=False)
class OutputRows:
    """The rows a pass computes its last layer on; see :func:`output_rows`."""

    rows: np.ndarray        # distinct row ids, increasing
    adj: sp.csr_matrix      # A_hat[rows]
    adj_t: sp.csc_matrix    # its transpose, a view of the same arrays, for the backward


def output_rows(adj: sp.csr_matrix, rows=None) -> OutputRows:
    """``rows`` with ``adj[rows]`` and its transpose; every row, and ``adj`` itself, by default.

    ``rows`` must be distinct row ids in increasing order.  Make it once and
    hand it to every :func:`forward` over the same rows, since the slice
    copies its rows of ``adj``.
    """
    n = adj.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (np.diff(rows) <= 0).any() or not np.all((0 <= rows) & (rows < n)):
        raise GadError("output rows must be distinct row ids in increasing order")
    adj_rows = adj if len(rows) == n else adj[rows]
    return OutputRows(rows=rows, adj=adj_rows, adj_t=adj_rows.T)


@dataclass(frozen=True, eq=False)
class Workspace:
    """Buffers a run's steps write their large products into; see :func:`workspace`."""

    hidden: tuple[np.ndarray, ...]      # H_1 .. H_{L-1}, read again by the backward
    temp: tuple[np.ndarray, ...]        # two flat buffers for the products in between
    grads: tuple[np.ndarray, ...]       # d(loss)/dW_l, per layer

    def rows(self, i: int, n: int, d: int) -> np.ndarray:
        """The first ``n * d`` entries of temporary buffer ``i`` as an (n, d) array."""
        if n * d > self.temp[i].size:
            raise GadError("the pass has more rows than the workspace")
        return self.temp[i][:n * d].reshape(n, d)


def workspace(params: GcnParams, rows: int) -> Workspace:
    """Buffers for passes over at most ``rows`` rows, under weights shaped as ``params``.

    A training run hands one to every step (see :func:`forward` and
    :func:`loss_and_backward`), which overwrites the previous step's arrays
    there.  Fresh arrays at every step can make the allocator hand the top
    of its heap back to the system and fault it in again, thousands of pages
    per epoch, depending on where earlier allocations happened to land.
    """
    ws = params.weights
    width = max(w.shape[1] for w in ws)
    return Workspace(
        hidden=tuple(np.empty((rows, w.shape[1])) for w in ws[:-1]),
        temp=(np.empty(rows * width), np.empty(rows * width)),
        grads=tuple(np.empty_like(w) for w in ws),
    )


def _spmm(a, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for CSR or CSC ``a``, into ``out`` if given.

    The kernel ``a @ b`` calls, on a zeroed result: the same bits, without
    scipy's dispatch, which costs tens of microseconds per call.
    """
    if out is None:
        out = np.zeros((a.shape[0], b.shape[1]))
    else:
        out.fill(0.0)
    # the kernel reads and writes through raw pointers: check the shapes first
    shapes = (out.shape, b.shape[0], out.flags.c_contiguous)
    if shapes != ((a.shape[0], b.shape[1]), a.shape[1], True):
        raise GadError("a sparse product needs an output of its own shape")
    getattr(_sparsetools, a.format + "_matvecs")(
        *a.shape, b.shape[1], a.indptr, a.indices, a.data, b.ravel(), out.ravel())
    return out


def forward(
    params: GcnParams, adj: sp.csr_matrix, features, out_rows=None, xw=None,
    ws: Workspace | None = None,
) -> ForwardCache:
    """Propagate features through every layer; the last gives logits on ``out_rows``.

    ``adj`` is the normalized adjacency A_hat (see
    :func:`gad.graph.normalized_adjacency`).  ``features`` is a dense array,
    a scipy sparse matrix or a :class:`Propagated` made with ``adj``; layer 0
    keeps the given layout, so a CSR input makes ``X @ W_0`` a sparse
    product, and a propagated one needs no product with ``adj``.

    The last layer is computed only on the rows of ``out_rows``, an
    :func:`output_rows` of ``adj`` (every row by default), as
    ``A_hat[rows] @ (H @ W)``.  Sliced CSR rows keep their entry order, so
    each computed row equals the all-rows pass's, bit for bit.  The cache
    holds the logits; its ``probs`` applies the row softmax.

    ``xw`` is layer 0's ``features @ W_0`` for a CSR input, when the caller
    already has it, and is then used instead of the product.  Rows taken
    from a product over more rows of the same matrix qualify, since a CSR
    product computes each row on its own; a dense GEMM does not, so dense
    input takes no ``xw``.  With ``ws``, a :func:`workspace`, the products
    over all rows are written into its buffers instead of fresh arrays.
    """
    propagated = isinstance(features, Propagated)
    if propagated:
        features = features.values
    if features.shape[0] != adj.shape[0]:
        raise GadError("feature rows must match adjacency dimension")
    if out_rows is None:
        out_rows = output_rows(adj)
    elif out_rows.adj.shape[1] != adj.shape[0]:
        raise GadError("output rows must come from the same adjacency")
    h = layer_input(features) if sp.issparse(features) else np.asarray(features, dtype=np.float64)
    n, last = adj.shape[0], params.num_layers - 1
    activations = []
    for l, w in enumerate(params.weights):
        if h.shape[1] != w.shape[0]:
            raise GadError(f"layer {l}: input dim {h.shape[1]} != weight rows {w.shape[0]}")
        activations.append(h)
        # H_{l+1}, and then H_l @ W_l when H_{l+1} is not made from it in place
        act = None if ws is None or l == last else ws.hidden[l][:n]
        hw_out = act if l == 0 and propagated else ws and ws.rows(0, n, w.shape[1])
        if l == 0 and xw is not None:
            if not sp.issparse(h) or xw.shape != (h.shape[0], w.shape[1]):
                raise GadError("a layer-0 product needs CSR input of its row count and W_0")
            hw = xw
        else:
            hw = _spmm(h, w) if sp.issparse(h) else np.matmul(h, w, out=hw_out)
        if l == 0 and propagated:
            z = hw[out_rows.rows] if l == last else hw
        else:
            z = _spmm(out_rows.adj if l == last else adj, hw, act)
        h = z if l == last else np.maximum(z, 0.0, out=z)
    return ForwardCache(
        activations=tuple(activations), logits=h, propagated=propagated, out_rows=out_rows,
    )


@dataclass(frozen=True, eq=False)
class LossPlan:
    """A batch's loss rows and their weights, checked; see :func:`loss_plan`."""

    out_rows: OutputRows        # the rows the forward computes
    at: np.ndarray              # loss row t is computed row at[t]; loss rows increase
    labels: np.ndarray          # the label of each loss row
    part: np.ndarray            # the part of each loss row
    weights: np.ndarray         # each part's loss weight c_i
    row_weights: np.ndarray     # per computed row: its part's weight on a loss row, else 0


def loss_plan(labels, loss_mask, out_rows: OutputRows, n_classes: int, part=None,
              weights=None) -> LossPlan:
    """The loss rows of a pass over ``out_rows``, checked once for all its passes.

    ``loss_mask`` marks the loss rows among the pass's rows and ``labels``
    holds every row's label.  The mask must select a row, every selected
    label must be a class id below ``n_classes``, and every selected row
    must be one of ``out_rows``; otherwise :class:`GadError` is raised.
    ``part`` gives each of the pass's rows its part, an index into
    ``weights``, which holds each part's weight ``c_i``: the loss is
    ``sum_i c_i * L_i``, with ``L_i`` the cross-entropy summed over part
    i's loss rows.  By default every row is in part 0, and every part has
    weight 1.
    """
    mask = np.asarray(loss_mask, dtype=bool)
    if not mask.any():
        raise GadError("loss mask selects no nodes")
    sel = np.flatnonzero(mask)
    ys = np.asarray(labels, dtype=np.int64)[sel]
    if ys.min() < 0 or ys.max() >= n_classes:
        raise GadError("label out of range under loss mask")
    rows = out_rows.rows
    at = np.searchsorted(rows, sel)
    if not ((at < len(rows)).all() and np.array_equal(rows[at], sel)):
        raise GadError("loss mask selects a row the forward pass did not compute")
    parts = np.asarray(np.zeros(len(mask)) if part is None else part, dtype=np.int64)[sel]
    w = np.ones(parts.max() + 1) if weights is None else np.asarray(weights, dtype=np.float64)
    if parts.min() < 0 or parts.max() >= len(w):
        raise GadError("every loss row's part needs a weight")
    row_weights = np.zeros(len(rows))
    row_weights[at] = w[parts]
    return LossPlan(out_rows=out_rows, at=at, labels=ys, part=parts, weights=w,
                    row_weights=row_weights)


def loss_and_backward(
    cache: ForwardCache,
    params: GcnParams,
    adj: sp.csr_matrix,
    labels=None,
    loss_mask=None,
    plan: LossPlan | None = None,
    ws: Workspace | None = None,
) -> Gradients:
    """Masked categorical cross-entropy, summed with part weights, and its exact gradients.

    Only masked rows contribute; replicas or unlabeled nodes are simply left
    out of the mask by the caller.  The loss rows come as ``plan``, a
    :func:`loss_plan` made once for every pass over a batch, or as
    ``labels`` and ``loss_mask``, from which a plan of one part of weight 1
    is made on the spot and checked the same way: every masked row must be
    one of the rows ``cache`` computed (``cache.out_rows``).  The softmax
    gradient, ``c_i * (probs - onehot)`` on part i's loss rows, lives on
    those rows only, and the last layer carries it back through
    ``A_hat[rows]^T``, which gives ``adj``'s product with the gradient
    padded by zero rows, bit for bit, since A_hat is exactly symmetric.  The
    layer-0 input is read from ``cache`` in the layout :func:`forward` was
    given, so a CSR input makes ``X^T @ G`` a sparse product, and a
    propagated input ``P = A_hat X`` gives ``P^T @ G``, which equals
    ``X^T @ (A_hat G)``.

    Per layer, one ``H^T @ G`` and one ``G @ W^T`` run over all rows.
    Returns one :class:`Gradients`: ``loss`` is ``sum_i c_i * L_i``, and
    ``part_losses`` holds each ``L_i`` (0 for a part without a loss row).
    With ``ws``, a :func:`workspace`, the products and gradients go into its
    buffers, which the next step given it overwrites.
    """
    if plan is None:
        plan = loss_plan(labels, loss_mask, cache.out_rows, cache.logits.shape[1])
    elif plan.out_rows is not cache.out_rows:
        raise GadError("loss plan was made for another batch")
    at, ys = plan.at, plan.labels
    gz = cache.probs    # a fresh array: the softmax gradient is formed in it
    nll = -np.log(np.clip(gz[at, ys], PROB_FLOOR, 1.0))
    part_losses = np.bincount(plan.part, weights=nll, minlength=len(plan.weights))
    loss = float(plan.weights @ part_losses)
    if not math.isfinite(loss):
        raise NumericalError("non-finite loss")
    gz[at, ys] -= 1.0
    gz *= plan.row_weights[:, None]

    n, last = cache.activations[0].shape[0], params.num_layers - 1
    grads = [None] * (last + 1)
    for l in range(last, -1, -1):
        # d(loss)/d(H_in @ W); A_hat is symmetric, and a propagated H_0 holds it
        if not (l == 0 and cache.propagated):
            a = cache.out_rows.adj_t if l == last else adj
            gm = _spmm(a, gz, ws and ws.rows(1, n, gz.shape[1]))
        elif l < last:
            gm = gz
        else:   # one layer on a propagated input: forward read (P @ W)[rows]
            gm = np.zeros((n, gz.shape[1]))
            gm[cache.out_rows.rows] = gz
        h = cache.activations[l]
        out = ws and ws.grads[l]
        grads[l] = _spmm(h.T, gm, out) if sp.issparse(h) else np.matmul(h.T, gm, out=out)
        if l > 0:
            # relu'(z) from its output: relu(z) > 0 exactly where z > 0
            w_t = params.weights[l].T
            gz = np.matmul(gm, w_t, out=ws and ws.rows(0, n, w_t.shape[1]))
            gz *= h > 0.0
    return Gradients(grads=tuple(grads), loss=loss, part_losses=part_losses)


def sgd_update(params: GcnParams, grads: Gradients, eta: float) -> GcnParams:
    """Plain gradient step W <- W - eta * dW; inputs are left untouched."""
    if eta <= 0:
        raise GadError("learning rate must be positive")
    new_w = tuple(w - eta * g for w, g in zip(params.weights, grads.grads))
    return GcnParams(weights=new_w)
