"""Multi-layer GCN with an analytic backward pass, in float64.

Layer l computes H = relu(A_hat @ H_prev @ W_l); the final layer has no
relu, and its output rows are logits whose row softmax gives the class
probabilities.  Layers after the first multiply as A_hat @ (H_prev @ W_l).
Layer 0 takes CSR features the same way (see :func:`layer_input`), but dense
features as P = A_hat @ X, made once per batch, and then computes P @ W_0.
The loss is categorical cross-entropy summed over a training batch's
rows, and gradients come from exact reverse-mode differentiation of that
chain, so they can be checked against finite differences.

A pass reads one :class:`Batch`, built and checked once by
:func:`build_batch`.  It can carry several parts as the blocks of a
block-diagonal A_hat, each product run once over all rows, with the loss
``sum_i c_i * L_i`` of the parts' summed losses; no edge joins two parts,
so its gradient is ``sum_i c_i * g_i`` up to rounding.  A pass computes its
last layer only on the batch's rows (a training batch's loss rows, or an
evaluation's scored rows), as A_hat[rows] @ (H @ W); every row is the
default, and the rows it computes equal those of an all-rows pass, bit for
bit.  Every pass writes its products over all rows into a
:class:`Workspace`: a run hands its one workspace to all of them.
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


@dataclass(frozen=True, eq=False)
class Batch:
    """Everything a pass reads, fixed and checked once; see :func:`build_batch`."""

    adj: sp.csr_matrix              # A_hat
    x: np.ndarray | sp.csr_matrix   # layer 0's input: CSR X, or dense P = A_hat @ X
    rows: np.ndarray                # the rows the last layer is computed on, increasing
    adj_rows: sp.csr_matrix         # A_hat[rows]
    adj_rows_t: sp.csc_matrix       # its transpose, a view of the same arrays, for the backward
    labels: np.ndarray              # the label of each of ``rows``
    # a training batch's loss rows are its rows; both None for a batch that is only evaluated
    part: np.ndarray | None         # the part of each of ``rows``
    weights: np.ndarray | None      # each part's loss weight c_i
    ids: np.ndarray | None = None   # the caller's own id of each row, carried as given

    @property
    def propagated(self) -> bool:
        """Whether ``x`` is P, so that layer 0 takes no product with A_hat."""
        return not sp.issparse(self.x)


def build_batch(adj: sp.csr_matrix, x, labels, n_classes: int, rows=None, part=None,
                weights=None, ids=None) -> Batch:
    """The batch of a pass over ``adj``, checked once for every pass over it.

    ``adj`` is the normalized adjacency A_hat (see
    :func:`gad.graph.normalized_adjacency`), or the block diagonal of
    several parts' A_hat, and ``x`` and ``labels`` hold its rows' features
    and labels.  Take ``x`` from one :func:`layer_input` of the whole
    graph's features, so that every pass keeps the graph's layout.  A CSR
    ``x`` is kept as is, since ``A_hat @ X`` holds several times the
    nonzeros of a sparse ``X``.  A dense one becomes ``P = A_hat @ X``:
    each pass then costs n*d*h multiply-adds in layer 0 instead of
    n*d*h + nnz(A_hat)*h, and computes the same function, because A_hat is
    symmetric.

    The last layer is computed on ``rows`` only, distinct row ids in
    increasing order (every row by default).  ``weights`` makes a training
    batch, whose loss rows are its ``rows``; without it the batch is only
    evaluated.  A training batch needs a row, and each row's label must be
    a class id below ``n_classes``.  ``part`` gives each adjacency row its
    part, an index into ``weights``, which holds each part's weight
    ``c_i``: the loss is ``sum_i c_i * L_i``, with ``L_i`` the cross-entropy
    summed over part i's rows.  By default every row is in part 0.  Any
    other input raises :class:`GadError`.
    """
    n = adj.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if x.shape[0] != n or labels.shape != (n,):
        raise GadError("features and labels need one row per adjacency row")
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (np.diff(rows) <= 0).any() or not np.all((0 <= rows) & (rows < n)):
        raise GadError("output rows must be distinct row ids in increasing order")
    labels = labels[rows]
    if weights is not None:
        part = np.zeros(n, dtype=np.int64) if part is None else np.asarray(part, dtype=np.int64)
        if part.shape != (n,):
            raise GadError("part needs one entry per adjacency row")
        part, weights = part[rows], np.asarray(weights, dtype=np.float64)
        if not len(rows):
            raise GadError("a training batch needs a loss row")
        if labels.min() < 0 or labels.max() >= n_classes:
            raise GadError("label out of range on a loss row")
        if part.min() < 0 or part.max() >= len(weights):
            raise GadError("every loss row's part needs a weight")
    else:
        part = None
    x = layer_input(x) if sp.issparse(x) else adj @ np.asarray(x, dtype=np.float64)
    adj_rows = adj if len(rows) == n else adj[rows]
    return Batch(adj=adj, x=x, rows=rows, adj_rows=adj_rows, adj_rows_t=adj_rows.T,
                 labels=labels, part=part, weights=weights, ids=ids)


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """Intermediate activations of one forward pass over ``batch``."""

    batch: Batch
    activations: tuple[np.ndarray, ...]   # H_0 .. H_{L-1} (inputs to each layer)
    logits: np.ndarray                    # last layer's output, one row per batch.rows

    @property
    def probs(self) -> np.ndarray:
        """Row softmax of ``logits``, computed on each access; rows sum to 1."""
        return _softmax_rows(self.logits.copy())


@dataclass(frozen=True, eq=False)
class Workspace:
    """Buffers that passes write their large products into; see :func:`workspace`."""

    num_rows: int                       # the most rows a pass may have
    hidden: tuple[np.ndarray, ...]      # H_1 .. H_{L-1}, read again by the backward
    temp: tuple[np.ndarray, ...]        # two flat buffers for the products in between
    grads: tuple[np.ndarray, ...]       # d(loss)/dW_l, per layer

    def check(self, n: int) -> None:
        """Raise :class:`GadError` unless a pass over ``n`` rows fits."""
        if n > self.num_rows:
            raise GadError("the pass has more rows than the workspace")

    def rows(self, i: int, n: int, d: int) -> np.ndarray:
        """The first ``n * d`` entries of temporary buffer ``i`` as an (n, d) array.

        ``n`` has passed :meth:`check`, and ``d`` is a layer width of the
        weights the workspace was made for, so the array fits.
        """
        return self.temp[i][:n * d].reshape(n, d)


def workspace(params: GcnParams, rows: int) -> Workspace:
    """Buffers for passes over at most ``rows`` rows, under weights shaped as ``params``.

    A training run makes one and hands it to every pass, the evaluation's
    too (see :func:`forward` and :func:`loss_and_backward`); each overwrites
    the previous pass's arrays there.  Fresh arrays at every step can make
    the allocator hand the top of its heap back to the system and fault it
    in again, thousands of pages per epoch, depending on where earlier
    allocations happened to land.
    """
    ws = params.weights
    width = max(w.shape[1] for w in ws)
    return Workspace(
        num_rows=rows,
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


def forward(params: GcnParams, batch: Batch, xw=None, ws: Workspace | None = None) -> ForwardCache:
    """Propagate ``batch``'s input through every layer; the last gives logits on its rows.

    Layer 0 keeps the batch's layout, so a CSR input makes ``X @ W_0`` a
    sparse product, and a propagated one takes no product with A_hat.  The
    last layer is computed only on ``batch.rows``, as
    ``A_hat[rows] @ (H @ W)``.  Sliced CSR rows keep their entry order, so
    each computed row equals the all-rows pass's, bit for bit.  The cache
    holds the logits; its ``probs`` applies the row softmax.

    ``xw`` is layer 0's ``X @ W_0`` for a CSR input, when the caller
    already has it, and is then used instead of the product.  Rows taken
    from a product over more rows of the same matrix qualify, since a CSR
    product computes each row on its own; a dense GEMM does not, so dense
    input takes no ``xw``.  The products over all rows are written into
    ``ws``, a :func:`workspace` (a fresh one by default), and the cache's
    activations live there; a batch with more rows than it holds raises
    :class:`GadError` first.
    """
    n, last = batch.adj.shape[0], params.num_layers - 1
    ws = ws or workspace(params, n)
    ws.check(n)
    h, activations = batch.x, []
    for l, w in enumerate(params.weights):
        if h.shape[1] != w.shape[0]:
            raise GadError(f"layer {l}: input dim {h.shape[1]} != weight rows {w.shape[0]}")
        activations.append(h)
        # H_{l+1}, and then H_l @ W_l when H_{l+1} is not made from it in place
        act = None if l == last else ws.hidden[l][:n]
        hw_out = act if l == 0 and batch.propagated else ws.rows(0, n, w.shape[1])
        if l == 0 and xw is not None:
            if batch.propagated or xw.shape != (n, w.shape[1]):
                raise GadError("a layer-0 product needs CSR input of its row count and W_0")
            hw = xw
        else:
            hw = _spmm(h, w) if sp.issparse(h) else np.matmul(h, w, out=hw_out)
        if l == 0 and batch.propagated:
            z = hw[batch.rows] if l == last else hw
        else:
            z = _spmm(batch.adj_rows if l == last else batch.adj, hw, act)
        h = z if l == last else np.maximum(z, 0.0, out=z)
    return ForwardCache(batch=batch, activations=tuple(activations), logits=h)


def loss_and_backward(cache: ForwardCache, params: GcnParams,
                      ws: Workspace | None = None) -> Gradients:
    """Categorical cross-entropy, summed with part weights, and its exact gradients.

    The loss rows are ``cache.batch``'s rows, with its parts and their
    weights; a batch that is only evaluated has none and raises
    :class:`GadError`.  The softmax gradient, ``c_i * (probs - onehot)`` on
    part i's rows, lives on the computed rows only, and the last layer
    carries it back through ``A_hat[rows]^T``, which gives A_hat's product
    with the gradient padded by zero rows, bit for bit, since A_hat is
    exactly symmetric.  The layer-0 input is read in the batch's layout, so
    a CSR input makes ``X^T @ G`` a sparse product, and a propagated input
    ``P = A_hat X`` gives ``P^T @ G``, which equals ``X^T @ (A_hat G)``.

    Per layer, one ``H^T @ G`` and one ``G @ W^T`` run over all rows.
    Returns one :class:`Gradients`: ``loss`` is ``sum_i c_i * L_i``, and
    ``part_losses`` holds each ``L_i`` (0 for a part without a row).  The
    products and gradients go into ``ws``, a :func:`workspace` (a fresh one
    by default), which the next pass given it overwrites; a batch with more
    rows than it holds raises :class:`GadError` before any product.
    """
    batch = cache.batch
    if batch.weights is None:
        raise GadError("the batch has no loss rows")
    n, last = batch.adj.shape[0], params.num_layers - 1
    ws = ws or workspace(params, n)
    ws.check(n)
    ys = batch.labels
    t = np.arange(len(ys))
    gz = cache.probs    # a fresh array: the softmax gradient is formed in it
    nll = -np.log(np.clip(gz[t, ys], PROB_FLOOR, 1.0))
    part_losses = np.bincount(batch.part, weights=nll, minlength=len(batch.weights))
    loss = float(batch.weights @ part_losses)
    if not math.isfinite(loss):
        raise NumericalError("non-finite loss")
    gz[t, ys] -= 1.0
    gz *= batch.weights[batch.part][:, None]

    grads = [None] * (last + 1)
    for l in range(last, -1, -1):
        # d(loss)/d(H_in @ W); A_hat is symmetric, and a propagated H_0 holds it
        if not (l == 0 and batch.propagated):
            a = batch.adj_rows_t if l == last else batch.adj
            gm = _spmm(a, gz, ws.rows(1, n, gz.shape[1]))
        elif l < last:
            gm = gz
        else:   # one layer on a propagated input: forward read (P @ W)[rows]
            gm = np.zeros((n, gz.shape[1]))
            gm[batch.rows] = gz
        h = cache.activations[l]
        grads[l] = (_spmm(h.T, gm, ws.grads[l]) if sp.issparse(h)
                    else np.matmul(h.T, gm, out=ws.grads[l]))
        if l > 0:
            # relu'(z) from its output: relu(z) > 0 exactly where z > 0
            w_t = params.weights[l].T
            gz = np.matmul(gm, w_t, out=ws.rows(0, n, w_t.shape[1]))
            gz *= h > 0.0
    return Gradients(grads=tuple(grads), loss=loss, part_losses=part_losses)


def sgd_update(params: GcnParams, grads: Gradients, eta: float) -> GcnParams:
    """Plain gradient step W <- W - eta * dW; inputs are left untouched.

    A step that leaves a weight non-finite raises :class:`NumericalError`.
    """
    if eta <= 0:
        raise GadError("learning rate must be positive")
    new_w = tuple(w - eta * g for w, g in zip(params.weights, grads.grads))
    if not all(np.isfinite(w).all() for w in new_w):
        raise NumericalError("non-finite parameter values after an update")
    return GcnParams(weights=new_w)
