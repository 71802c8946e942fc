"""Multi-layer GCN with an analytic backward pass, in float64.

Layer l computes H = relu(A_hat @ H_prev @ W_l); the final layer has no
relu, and its output rows are logits whose row softmax gives the class
probabilities.  Layers after the first multiply as A_hat @ (H_prev @ W_l).
Layer 0 takes CSR features the same way (see :func:`layer_input`), but dense
features as P = A_hat @ X, made once per adjacency, and then computes P @ W_0
(see :func:`propagated_input`).  The loss is masked categorical cross-entropy
summed over the selected nodes, and gradients come from exact reverse-mode
differentiation of that chain, so they can be checked against finite
differences.

One pass can carry several subgraphs stacked as row segments of a
block-diagonal A_hat (see :func:`forward`); each segment then gets the loss
and gradients a pass over it alone gives, bit for bit.  A pass computes its
last layer only on the rows it reads (see :class:`OutputRows`: the loss rows
in training, the scored rows in evaluation), as A_hat[rows] @ (H @ W); every
row is the default, and the rows it computes equal those of an all-rows
pass, bit for bit.  What the backward needs of the loss rows, and the
transposes of a CSR input, are fixed per batch (see :class:`LossPlan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    bounds: tuple[int, ...] | None = None  # segment row bounds given to forward

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

    def scaled(self, c: float) -> "Gradients":
        return Gradients(grads=tuple(c * g for g in self.grads), loss=c * self.loss)


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


def _segment_bounds(n: int, bounds) -> tuple[int, ...]:
    """Validated row bounds ``b``, from 0 up to ``n``; segment j is rows ``b[j]:b[j+1]``."""
    b = (0, n) if bounds is None else tuple(np.asarray(bounds).tolist())
    if len(b) < 2 or b[0] != 0 or b[-1] != n or any(x > y for x, y in zip(b, b[1:])):
        raise GadError("segment bounds must rise from 0 to the row count")
    return b


def _segment_matmul(a: np.ndarray, b: np.ndarray, bounds: tuple[int, ...]) -> np.ndarray:
    """``a @ b`` with one GEMM per row segment, each written into its rows.

    BLAS picks its kernel by the matrix shape, so one GEMM over all rows
    may round a segment's rows differently from a GEMM over that segment
    alone; per segment, they match bit for bit.
    """
    out = np.empty((a.shape[0], b.shape[1]))
    for s, e in zip(bounds[:-1], bounds[1:]):
        np.matmul(a[s:e], b, out=out[s:e])
    return out


def forward(
    params: GcnParams, adj: sp.csr_matrix, features, bounds=None, out_rows=None, xw=None
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

    ``bounds`` stacks several subgraphs in one pass: segment j is rows
    ``bounds[j]:bounds[j+1]``, and ``adj`` must be block-diagonal on the
    segments, as ``sp.block_diag`` of their own A_hat makes it.  The sparse
    products and relu run once over all rows, since they act row by row;
    each dense ``H @ W`` runs per segment (see :func:`_segment_matmul`).
    Every segment's rows then equal those of a pass over that subgraph
    alone, bit for bit.  Without ``bounds`` all rows form one segment.

    ``xw`` is layer 0's ``features @ W_0`` for a CSR input, when the caller
    already has it, and is then used instead of the product.  Rows taken
    from a product over more rows of the same matrix qualify, since a CSR
    product computes each row on its own; a dense GEMM does not, so dense
    input takes no ``xw``.
    """
    propagated = isinstance(features, Propagated)
    if propagated:
        features = features.values
    if features.shape[0] != adj.shape[0]:
        raise GadError("feature rows must match adjacency dimension")
    segments = _segment_bounds(adj.shape[0], bounds)
    if out_rows is None:
        out_rows = output_rows(adj)
    elif out_rows.adj.shape[1] != adj.shape[0]:
        raise GadError("output rows must come from the same adjacency")
    h = layer_input(features) if sp.issparse(features) else np.asarray(features, dtype=np.float64)
    last = params.num_layers - 1
    activations = []
    for l, w in enumerate(params.weights):
        if h.shape[1] != w.shape[0]:
            raise GadError(f"layer {l}: input dim {h.shape[1]} != weight rows {w.shape[0]}")
        activations.append(h)
        if l == 0 and xw is not None:
            if not sp.issparse(h) or xw.shape != (h.shape[0], w.shape[1]):
                raise GadError("a layer-0 product needs CSR input of its row count and W_0")
            hw = xw
        else:
            hw = h @ w if sp.issparse(h) else _segment_matmul(h, w, segments)
        if l == 0 and propagated:
            z = hw[out_rows.rows] if l == last else hw
        else:
            z = (out_rows.adj if l == last else adj) @ hw
        h = z if l == last else np.maximum(z, 0.0, out=z)
    return ForwardCache(
        activations=tuple(activations), logits=h, propagated=propagated,
        out_rows=out_rows, bounds=None if bounds is None else segments,
    )


@dataclass(frozen=True, eq=False)
class LossPlan:
    """A batch's loss rows, checked, and what its backward repeats; see :func:`loss_plan`."""

    out_rows: OutputRows        # the rows the forward computes
    at: np.ndarray              # masked row t is computed row at[t]; masked rows increase
    labels: np.ndarray          # the label of each masked row
    cut: tuple[int, ...]        # segment j's masked rows are t in cut[j]:cut[j+1]
    bounds: tuple[int, ...]     # the segments' row bounds
    input_t: tuple | None       # X[a:b].T per segment of a CSR layer-0 input X, else None


def loss_plan(labels, loss_mask, out_rows: OutputRows, n_classes: int, bounds=None,
              features=None) -> LossPlan:
    """The loss rows of a pass over ``out_rows``, checked once for all its passes.

    ``loss_mask`` marks the loss rows among the pass's rows and ``labels``
    holds every row's label.  The mask must select a row, every selected
    label must be a class id below ``n_classes``, and every selected row
    must be one of ``out_rows``; otherwise :class:`GadError` is raised.
    ``bounds`` are the segment bounds :func:`forward` is given.  For a CSR
    ``features``, the layer-0 input of the passes, each segment's
    ``X[a:b].T`` is kept for the backward's ``X^T @ G``.
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
    segments = _segment_bounds(len(mask), bounds)
    spans = zip(segments[:-1], segments[1:])
    x = layer_input(features) if sp.issparse(features) else None
    return LossPlan(
        out_rows=out_rows, at=at, labels=ys,
        cut=tuple(np.searchsorted(sel, segments).tolist()), bounds=segments,
        input_t=tuple(x[a:b].T for a, b in spans) if x is not None else None,
    )


def loss_and_backward(
    cache: ForwardCache,
    params: GcnParams,
    adj: sp.csr_matrix,
    labels=None,
    loss_mask=None,
    plan: LossPlan | None = None,
) -> Gradients | tuple[Gradients, ...]:
    """Masked categorical cross-entropy, summed, and exact gradients per layer.

    Only masked rows contribute; replicas or unlabeled nodes are simply left
    out of the mask by the caller.  The loss rows come as ``plan``, a
    :func:`loss_plan` made once for every pass over a batch, or as
    ``labels`` and ``loss_mask``, from which the plan is made on the spot
    and checked the same way: every masked row must be one of the rows
    ``cache`` computed (``cache.out_rows``).  The softmax gradient lives on
    those rows only, and the last layer carries it back through
    ``A_hat[rows]^T``, which gives ``adj``'s product with the gradient
    padded by zero rows, bit for bit, since A_hat is exactly symmetric.  The
    layer-0 input is read from ``cache`` in the layout :func:`forward` was
    given, so a CSR input makes ``X^T @ G`` a sparse product (with the
    plan's transposes when it has them), and a propagated input
    ``P = A_hat X`` gives ``P^T @ G``, which equals ``X^T @ (A_hat G)``.

    Returns one :class:`Gradients`, or a tuple with one per segment when
    ``cache`` comes from a :func:`forward` given ``bounds``.  The masked
    softmax gradient and the products with ``adj`` run once over all rows;
    each segment's loss is the sum over its own masked rows, and its weight
    gradients ``H[a:b]^T @ G[a:b]`` and the dense ``G @ W^T`` are taken on
    its own rows.  A segment with no masked row gets loss 0 and zero
    gradients; a mask with no row at all raises :class:`GadError`.
    """
    n = cache.activations[0].shape[0]
    segments = cache.bounds or (0, n)
    if plan is None:
        plan = loss_plan(labels, loss_mask, cache.out_rows, cache.logits.shape[1], segments)
    elif plan.out_rows is not cache.out_rows or plan.bounds != segments:
        raise GadError("loss plan was made for another batch")
    probs = cache.probs
    at, ys = plan.at, plan.labels
    spans = list(zip(segments[:-1], segments[1:]))
    nll = -np.log(np.clip(probs[at, ys], PROB_FLOOR, 1.0))
    losses = [float(nll[a:b].sum()) for a, b in zip(plan.cut[:-1], plan.cut[1:])]

    # gradient at the softmax input: (probs - onehot) on masked rows
    gz = np.zeros_like(probs)
    gz[at] = probs[at]
    gz[at, ys] -= 1.0

    last = params.num_layers - 1
    grads = [[None] * params.num_layers for _ in spans]
    for l in range(last, -1, -1):
        # d(loss)/d(H_in @ W); A_hat is symmetric, and a propagated H_0 holds it
        if not (l == 0 and cache.propagated):
            gm = (cache.out_rows.adj_t if l == last else adj) @ gz
        elif l < last:
            gm = gz
        else:   # one layer on a propagated input: forward read (P @ W)[rows]
            gm = np.zeros((n, probs.shape[1]))
            gm[cache.out_rows.rows] = gz
        h = cache.activations[l]
        for j, (seg, (a, b)) in enumerate(zip(grads, spans)):
            h_t = plan.input_t[j] if l == 0 and plan.input_t is not None else h[a:b].T
            seg[l] = h_t @ gm[a:b]
        if l > 0:
            # relu'(z) from its output: relu(z) > 0 exactly where z > 0
            gz = _segment_matmul(gm, params.weights[l].T, segments)
            gz *= h > 0.0
    if not all(map(math.isfinite, losses)):
        raise NumericalError("non-finite loss")
    out = tuple(Gradients(grads=tuple(g), loss=loss) for g, loss in zip(grads, losses))
    return out[0] if cache.bounds is None else out


def sgd_update(params: GcnParams, grads: Gradients, eta: float) -> GcnParams:
    """Plain gradient step W <- W - eta * dW; inputs are left untouched."""
    if eta <= 0:
        raise GadError("learning rate must be positive")
    new_w = tuple(w - eta * g for w, g in zip(params.weights, grads.grads))
    return GcnParams(weights=new_w)
