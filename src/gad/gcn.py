"""Multi-layer GCN with an analytic backward pass, in float64.

Layer l computes H = relu(A_hat @ H_prev @ W_l); the final layer swaps relu
for a row softmax.  Layers after the first multiply as A_hat @ (H_prev @ W_l).
Layer 0 takes CSR features the same way (see :func:`layer_input`), but dense
features as P = A_hat @ X, made once per adjacency, and then computes P @ W_0
(see :func:`propagated_input`).  The loss is masked categorical cross-entropy
summed over the selected nodes, and gradients come from exact reverse-mode
differentiation of that chain, so they can be checked against finite
differences.
"""

from __future__ import annotations

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
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def layer_input(features) -> np.ndarray | sp.csr_matrix:
    """The features in the layout layer 0 multiplies fastest.

    Sparse input is returned as float64 CSR (unchanged if it already is);
    a dense array becomes CSR when at most ``SPARSE_MAX_DENSITY`` of its
    entries are nonzero and stays a float64 array otherwise.  Call it once
    per feature matrix and pass the result to every :func:`forward`.
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


def forward(params: GcnParams, adj: sp.csr_matrix, features) -> ForwardCache:
    """Propagate features through every layer; softmax on the last.

    ``adj`` is the normalized adjacency A_hat (see
    :func:`gad.graph.normalized_adjacency`).  ``features`` is a dense array,
    a scipy sparse matrix or a :class:`Propagated` made with ``adj``; layer 0
    keeps the given layout, so a CSR input makes ``X @ W_0`` a sparse
    product, and a propagated one needs no product with ``adj``.
    """
    propagated = isinstance(features, Propagated)
    if propagated:
        features = features.values
    if features.shape[0] != adj.shape[0]:
        raise GadError("feature rows must match adjacency dimension")
    h = layer_input(features) if sp.issparse(features) else np.asarray(features, dtype=np.float64)
    activations = []
    for l, w in enumerate(params.weights):
        if h.shape[1] != w.shape[0]:
            raise GadError(f"layer {l}: input dim {h.shape[1]} != weight rows {w.shape[0]}")
        activations.append(h)
        z = h @ w if l == 0 and propagated else adj @ (h @ w)
        h = _softmax_rows(z) if l == params.num_layers - 1 else np.maximum(z, 0.0)
    return ForwardCache(activations=tuple(activations), probs=h, propagated=propagated)


def loss_and_backward(
    cache: ForwardCache,
    params: GcnParams,
    adj: sp.csr_matrix,
    labels: np.ndarray,
    loss_mask: np.ndarray,
) -> Gradients:
    """Masked categorical cross-entropy, summed, and exact gradients per layer.

    Only masked rows contribute; replicas or unlabeled nodes are simply left
    out of the mask by the caller.  The layer-0 input is read from ``cache``
    in the layout :func:`forward` was given, so a CSR input makes
    ``X^T @ G`` a sparse product, and a propagated input ``P = A_hat X``
    gives ``P^T @ G``, which equals ``X^T @ (A_hat G)``.
    """
    mask = np.asarray(loss_mask, dtype=bool)
    if not mask.any():
        raise GadError("loss mask selects no nodes")
    y = np.asarray(labels, dtype=np.int64)
    probs = cache.probs
    n_classes = probs.shape[1]
    sel = np.flatnonzero(mask)
    if y[sel].min() < 0 or y[sel].max() >= n_classes:
        raise GadError("label out of range under loss mask")

    picked = np.clip(probs[sel, y[sel]], PROB_FLOOR, 1.0)
    loss = float(-np.log(picked).sum())

    # gradient at the softmax input: (probs - onehot) on masked rows
    gz = np.zeros_like(probs)
    gz[sel] = probs[sel]
    gz[sel, y[sel]] -= 1.0

    grads: list[np.ndarray] = [None] * params.num_layers
    for l in range(params.num_layers - 1, -1, -1):
        # d(loss)/d(H_in @ W); A_hat is symmetric, and a propagated H_0 holds it
        gm = gz if l == 0 and cache.propagated else adj @ gz
        grads[l] = cache.activations[l].T @ gm
        if l > 0:
            # relu'(z) from its output: relu(z) > 0 exactly where z > 0
            gz = (gm @ params.weights[l].T) * (cache.activations[l] > 0.0)
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss")
    return Gradients(grads=tuple(grads), loss=loss)


def sgd_update(params: GcnParams, grads: Gradients, eta: float) -> GcnParams:
    """Plain gradient step W <- W - eta * dW; inputs are left untouched."""
    if eta <= 0:
        raise GadError("learning rate must be positive")
    new_w = tuple(w - eta * g for w, g in zip(params.weights, grads.grads))
    return GcnParams(weights=new_w)
