"""Subgraph weighting and gradient consensus.

Each augmented subgraph gets a positive weight zeta that is high when its
degree distribution is even and its node features sit close together; the
coordinator then averages worker gradients with those weights.  Uniform
weights reduce exactly to the plain mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from . import rngs
from .errors import GadError
from .augment import AugmentedSubgraph
from .gcn import Gradients

DEFAULT_BETA = 1.0
DEFAULT_PAIR_CAP = 4096
# Pairs whose feature differences are held at once: 16,384 pairs at d = 32
# take 4 MB, where the whole pair_cap**2 / 2 sample would take gigabytes.
# On a 6250 x 32 block at pair_cap 2048 (2-core machine) this chunk ran
# about 1.4x faster than 65,536, whose 16 MB blocks spill out of cache.
PAIR_CHUNK = 16_384


@dataclass(frozen=True, eq=False)
class SubgraphWeight:
    """zeta plus the pieces it was computed from."""

    zeta: float
    pair_probability_sum: float
    mean_feature_distance: float
    beta: float
    exact: bool = True

    def __post_init__(self):
        if not (self.zeta > 0 and np.isfinite(self.zeta)):
            raise GadError("zeta must be positive and finite")


def degree_probability(sub: AugmentedSubgraph) -> np.ndarray:
    """Node selection probability p(v) = local degree / total degree.

    Falls back to the uniform distribution when the subgraph has no edges.
    """
    deg = sub.view.degrees.astype(np.float64)
    total = deg.sum()
    if total == 0:
        return np.full(sub.view.num_nodes, 1.0 / sub.view.num_nodes)
    return deg / total


def _pair_distances(x: np.ndarray, ii: np.ndarray, jj: np.ndarray, chunk: int) -> np.ndarray:
    """L2 distance between rows ``x[ii[t]]`` and ``x[jj[t]]`` for every t.

    Computed ``chunk`` pairs at a time; each pair's value does not depend
    on the chunking.
    """
    out = np.empty(len(ii), dtype=np.float64)
    for start in range(0, len(ii), chunk):
        diff = x[ii[start:start + chunk]] - x[jj[start:start + chunk]]
        out[start:start + chunk] = np.sqrt((diff * diff).sum(axis=1))
    return out


def zeta(
    sub: AugmentedSubgraph,
    features: np.ndarray,
    beta: float = DEFAULT_BETA,
    pair_cap: int = DEFAULT_PAIR_CAP,
    seed: int = 0,
) -> SubgraphWeight:
    """Subgraph weight: sum over node pairs i<j of p_i p_j / (d(i,j) + beta).

    d is the L2 distance between the two nodes' feature rows.

    Exact for subgraphs up to ``pair_cap`` nodes; larger ones use a seeded
    uniform pair sample of pair_cap**2 / 2 pairs rescaled by the total pair
    count (an unbiased estimate).  Subgraphs with fewer than two nodes get
    the neutral weight 1.
    """
    if beta <= 0:
        raise GadError("beta must be positive")
    n = sub.view.num_nodes
    if n < 2:
        return SubgraphWeight(
            zeta=1.0, pair_probability_sum=0.0, mean_feature_distance=0.0, beta=beta
        )
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] != n:
        raise GadError("feature rows must match subgraph size")
    p = degree_probability(sub)
    total_pairs = n * (n - 1) // 2

    if n <= pair_cap:
        d = pdist(x, metric="euclidean")
        ii, jj = np.triu_indices(n, k=1)
        terms = p[ii] * p[jj] / (d + beta)
        value = float(terms.sum())
        pair_sum = float((p[ii] * p[jj]).sum())
        mean_d = float(d.mean())
        exact = True
    else:
        rng = rngs.stream(seed, rngs.ZETA)
        m = pair_cap * pair_cap // 2
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n - 1, size=m)
        jj = np.where(jj >= ii, jj + 1, jj)   # uniform over ordered pairs i != j
        d = _pair_distances(x, ii, jj, PAIR_CHUNK)
        terms = p[ii] * p[jj] / (d + beta)
        # ordered-pair sample estimates the unordered sum after halving
        value = float(terms.mean() * n * (n - 1) / 2.0)
        pair_sum = float((p[ii] * p[jj]).mean() * n * (n - 1) / 2.0)
        mean_d = float(d.mean())
        exact = False

    if value <= 0 or not np.isfinite(value):
        value = 1.0
    return SubgraphWeight(
        zeta=value,
        pair_probability_sum=pair_sum,
        mean_feature_distance=mean_d,
        beta=beta,
        exact=exact,
    )


def _check_shapes(grads: list[Gradients]) -> None:
    if not grads:
        raise GadError("no gradients to combine")
    ref = grads[0]
    for gr in grads[1:]:
        if len(gr.grads) != len(ref.grads):
            raise GadError("gradient layer counts differ")
        for a, b in zip(gr.grads, ref.grads):
            if a.shape != b.shape:
                raise GadError("gradient shapes differ")


def weighted_consensus(grads: list[Gradients], zetas) -> Gradients:
    """Weighted average sum(zeta_i * grad_i) / sum(zeta); loss averaged alike."""
    _check_shapes(grads)
    z = np.asarray(zetas, dtype=np.float64)
    if len(z) != len(grads):
        raise GadError("one zeta per gradient required")
    if (z <= 0).any() or not np.isfinite(z).all():
        raise GadError("zetas must be positive and finite")
    denom = z.sum()
    out = []
    for l in range(len(grads[0].grads)):
        acc = np.zeros_like(grads[0].grads[l])
        for zi, gr in zip(z, grads):
            acc += zi * gr.grads[l]
        out.append(acc / denom)
    loss = float(sum(zi * gr.loss for zi, gr in zip(z, grads)) / denom)
    return Gradients(grads=tuple(out), loss=loss)


def plain_consensus(grads: list[Gradients]) -> Gradients:
    """Arithmetic mean of the gradients (the unweighted baseline).

    Unit weights reproduce the mean bit for bit: 1.0 * g == g, and the
    weight sum is n exactly.
    """
    return weighted_consensus(grads, np.ones(len(grads)))
