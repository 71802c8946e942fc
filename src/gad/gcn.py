"""Multi-layer GCN with an analytic backward pass, in float64.

Layer l computes H = relu(A_hat @ H_prev @ W_l); the final layer swaps relu
for a row softmax.  Layers after the first multiply as A_hat @ (H_prev @ W_l).
Layer 0 takes CSR features the same way (see :func:`layer_input`), but dense
features as P = A_hat @ X, made once per adjacency, and then computes P @ W_0
(see :func:`propagated_input`).  The loss is masked categorical cross-entropy
summed over the selected nodes, and gradients come from exact reverse-mode
differentiation of that chain, so they can be checked against finite
differences.

One pass can carry several subgraphs stacked as row segments of a
block-diagonal A_hat (see :func:`forward`); each segment then gets the loss
and gradients a pass over it alone gives, bit for bit.
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
    probs: np.ndarray                     # softmax output, rows sum to 1
    propagated: bool                      # H_0 is A_hat @ X, see Propagated
    bounds: tuple[int, ...] | None = None  # segment row bounds given to forward


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


def forward(params: GcnParams, adj: sp.csr_matrix, features, bounds=None) -> ForwardCache:
    """Propagate features through every layer; softmax on the last.

    ``adj`` is the normalized adjacency A_hat (see
    :func:`gad.graph.normalized_adjacency`).  ``features`` is a dense array,
    a scipy sparse matrix or a :class:`Propagated` made with ``adj``; layer 0
    keeps the given layout, so a CSR input makes ``X @ W_0`` a sparse
    product, and a propagated one needs no product with ``adj``.

    ``bounds`` stacks several subgraphs in one pass: segment j is rows
    ``bounds[j]:bounds[j+1]``, and ``adj`` must be block-diagonal on the
    segments, as ``sp.block_diag`` of their own A_hat makes it.  The sparse
    products, relu and softmax run once over all rows, since they act row
    by row; each dense ``H @ W`` runs per segment (see
    :func:`_segment_matmul`).  Every segment's rows then equal those of a
    pass over that subgraph alone, bit for bit.  Without ``bounds`` all
    rows form one segment.
    """
    propagated = isinstance(features, Propagated)
    if propagated:
        features = features.values
    if features.shape[0] != adj.shape[0]:
        raise GadError("feature rows must match adjacency dimension")
    segments = _segment_bounds(adj.shape[0], bounds)
    h = layer_input(features) if sp.issparse(features) else np.asarray(features, dtype=np.float64)
    activations = []
    for l, w in enumerate(params.weights):
        if h.shape[1] != w.shape[0]:
            raise GadError(f"layer {l}: input dim {h.shape[1]} != weight rows {w.shape[0]}")
        activations.append(h)
        hw = h @ w if sp.issparse(h) else _segment_matmul(h, w, segments)
        z = hw if l == 0 and propagated else adj @ hw
        h = _softmax_rows(z) if l == params.num_layers - 1 else np.maximum(z, 0.0, out=z)
    return ForwardCache(
        activations=tuple(activations), probs=h, propagated=propagated,
        bounds=None if bounds is None else segments,
    )


def loss_and_backward(
    cache: ForwardCache,
    params: GcnParams,
    adj: sp.csr_matrix,
    labels: np.ndarray,
    loss_mask: np.ndarray,
) -> Gradients | tuple[Gradients, ...]:
    """Masked categorical cross-entropy, summed, and exact gradients per layer.

    Only masked rows contribute; replicas or unlabeled nodes are simply left
    out of the mask by the caller.  The layer-0 input is read from ``cache``
    in the layout :func:`forward` was given, so a CSR input makes
    ``X^T @ G`` a sparse product, and a propagated input ``P = A_hat X``
    gives ``P^T @ G``, which equals ``X^T @ (A_hat G)``.

    Returns one :class:`Gradients`, or a tuple with one per segment when
    ``cache`` comes from a :func:`forward` given ``bounds``.  The masked
    softmax gradient and the products with ``adj`` run once over all rows;
    each segment's loss is the sum over its own masked rows, and its weight
    gradients ``H[a:b]^T @ G[a:b]`` and the dense ``G @ W^T`` are taken on
    its own rows.  A segment with no masked row gets loss 0 and zero
    gradients; a mask with no row at all raises :class:`GadError`.
    """
    mask = np.asarray(loss_mask, dtype=bool)
    if not mask.any():
        raise GadError("loss mask selects no nodes")
    y = np.asarray(labels, dtype=np.int64)
    probs = cache.probs
    n_classes = probs.shape[1]
    sel = np.flatnonzero(mask)
    ys = y[sel]
    if ys.min() < 0 or ys.max() >= n_classes:
        raise GadError("label out of range under loss mask")

    segments = cache.bounds or (0, len(probs))
    spans = list(zip(segments[:-1], segments[1:]))
    # segment j's masked rows are sel[cut[j]:cut[j+1]]
    cut = np.searchsorted(sel, segments).tolist()
    nll = -np.log(np.clip(probs[sel, ys], PROB_FLOOR, 1.0))
    losses = [float(nll[a:b].sum()) for a, b in zip(cut[:-1], cut[1:])]

    # gradient at the softmax input: (probs - onehot) on masked rows
    gz = np.zeros_like(probs)
    gz[sel] = probs[sel]
    gz[sel, ys] -= 1.0

    grads = [[None] * params.num_layers for _ in spans]
    for l in range(params.num_layers - 1, -1, -1):
        # d(loss)/d(H_in @ W); A_hat is symmetric, and a propagated H_0 holds it
        gm = gz if l == 0 and cache.propagated else adj @ gz
        h = cache.activations[l]
        for seg, (a, b) in zip(grads, spans):
            seg[l] = h[a:b].T @ gm[a:b]
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
