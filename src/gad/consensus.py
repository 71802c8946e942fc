"""Subgraph weighting and gradient consensus.

Each augmented subgraph gets a positive weight zeta that is high when its
degree distribution is even and its node features sit close together; the
coordinator's step averages worker gradients with those weights.  Since
gradients are linear in the loss, that step is the gradient of one weighted
loss, and the consensus functions return each part's weight in it.
Uniform zetas give the plain mean's weights exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import rngs
from .errors import GadError
from .augment import AugmentedSubgraph, sample_size
from .gcn import layer_input

DEFAULT_BETA = 1.0
DEFAULT_PAIR_CAP = 4096
# Pairs whose feature differences are held at once: 16,384 pairs at d = 32
# take 4 MB, where a pair_cap**2 / 2 sample would take gigabytes.
# On a 6250 x 32 block at pair_cap 2048 (2-core machine) this chunk ran
# about 1.4x faster than 65,536, whose 16 MB blocks spill out of cache.
PAIR_CHUNK = 16_384
# Rows per Gram block of exact zeta: a block holds ZETA_BLOCK x n products
# and its mask, where one n x n Gram matrix took 400 MB at n = 4,096.
ZETA_BLOCK = 256


@dataclass(frozen=True, eq=False)
class SubgraphWeight:
    """zeta plus the pieces it was computed from."""

    zeta: float
    pair_probability_sum: float      # sum over i<j of p_i p_j
    exact: bool = True
    stderr: float = 0.0              # standard error of a sampled zeta; 0.0 when exact

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


def _exact_zeta(x, p: np.ndarray, beta: float) -> float:
    """Sum of p_i p_j / (d_ij + beta) over all pairs i<j.

    Squared distances come from Gram products, sq_i + sq_j - 2 x_i.x_j,
    multiplied in the layout ``x`` arrives in: CSR as a sparse product, a
    dense array as a BLAS GEMM, so a subgraph's rows of the training run's
    layer input keep that layout here too.  Rows a..b-1 take
    ``x[a:b] @ x[a:].T``, ZETA_BLOCK rows at a time and the last block first,
    so each block finds the squared norms of its later columns already
    taken from their own blocks' diagonals; no n x n array is made.  Each
    block's terms with j > i go to their place in ``pdist``'s condensed
    order, which is summed once, so features with integer entries give
    pdist's distances and sum bit for bit.
    """
    n = x.shape[0]
    sq = np.empty(n)
    terms = np.empty(n * (n - 1) // 2)
    for a in reversed(range(0, n, ZETA_BLOCK)):
        b = min(a + ZETA_BLOCK, n)
        d2 = x[a:b] @ x[a:].T
        d2 = d2.toarray() if sp.issparse(d2) else d2
        sq[a:b] = np.diagonal(d2)
        d2 *= -2.0
        d2 += sq[a:b, None]
        d2 += sq[None, a:]
        upper = np.triu(np.ones(d2.shape, dtype=bool), 1)
        d = np.sqrt(np.maximum(d2[upper], 0.0))
        # row i's pairs start at i*n - i*(i+1)/2 in the condensed order
        terms[a * n - a * (a + 1) // 2:b * n - b * (b + 1) // 2] = (
            np.outer(p[a:b], p[a:])[upper] / (d + beta))
    return float(terms.sum())


def _draw_pairs(rng: np.random.Generator, cdf: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``m`` ordered pairs (i, j) drawn independently from p, less those with i == j."""
    ii = np.searchsorted(cdf, rng.random(m), side="right")
    jj = np.searchsorted(cdf, rng.random(m), side="right")
    keep = ii != jj
    return ii[keep], jj[keep]


def _sampled_zeta(
    x: np.ndarray, p: np.ndarray, pair_sum: float, beta: float, pair_cap: int, seed: int
) -> tuple[float, float]:
    """Degree-weighted pair sample: zeta and its standard error.

    With i and j drawn from p and i != j, each pair has probability
    p_i p_j / (2 * pair_sum), so zeta = pair_sum * E[f] with
    f = 1 / (d_ij + beta).  A pilot of ``pair_cap`` draws sets the total
    through :func:`augment.sample_size`: enough pairs that the standard
    error matches the one a uniform sample of pair_cap**2 / 2 pairs would
    give, estimated from the pilot by reweighting, since under the uniform
    draw E_u[t^2] = 2 * pair_sum * E_p[p_i p_j f^2] / (n (n - 1)) for
    t = p_i p_j f.  The total is clamped to [pair_cap, pair_cap**2 / 2].
    """
    n = len(p)
    rng = rngs.stream(seed, rngs.ZETA)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    most = pair_cap * pair_cap // 2
    ii, jj = _draw_pairs(rng, cdf, pair_cap)
    f = 1.0 / (_pair_distances(x, ii, jj, PAIR_CHUNK) + beta)
    draws = most
    if f.size > 1:
        # N^2 Var_u(t) for N = n (n - 1) / 2 unordered pairs
        pilot = pair_sum * float(f.mean())
        var_u = pair_sum * n * (n - 1) / 2.0 * float((p[ii] * p[jj] * f * f).mean()) - pilot**2
        if var_u > 0:
            need = sample_size(pair_sum, float(f.std(ddof=1)), math.sqrt(var_u / most))
            draws = min(max(need, pair_cap), most)
    if draws > pair_cap:
        ii, jj = _draw_pairs(rng, cdf, draws - pair_cap)
        f = np.concatenate([f, 1.0 / (_pair_distances(x, ii, jj, PAIR_CHUNK) + beta)])
    if f.size < 2:
        return 0.0, math.inf
    return pair_sum * float(f.mean()), pair_sum * float(f.std(ddof=1)) / math.sqrt(f.size)


def zeta(
    sub: AugmentedSubgraph,
    features,
    beta: float = DEFAULT_BETA,
    pair_cap: int = DEFAULT_PAIR_CAP,
    seed: int = 0,
) -> SubgraphWeight:
    """Subgraph weight: sum over node pairs i<j of p_i p_j / (d(i,j) + beta).

    d is the L2 distance between the two nodes' feature rows; ``features``
    is a dense array, used as float64, or a scipy sparse matrix, used as
    float64 CSR, and the exact path multiplies it in that layout.

    Exact for subgraphs up to ``pair_cap`` nodes; larger ones use a seeded
    sample of pairs drawn from p, sized so that its standard error is no
    larger than that of pair_cap**2 / 2 uniform pairs, and never more pairs
    than that (see :func:`_sampled_zeta`).  Subgraphs with fewer than two
    nodes get the neutral weight 1.
    """
    if beta <= 0:
        raise GadError("beta must be positive")
    n = sub.view.num_nodes
    if n < 2:
        return SubgraphWeight(zeta=1.0, pair_probability_sum=0.0)
    if sp.issparse(features):
        features = layer_input(features)
    else:
        features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != n:
        raise GadError("feature rows must match subgraph size")
    p = degree_probability(sub)
    pair_sum = 0.5 * (1.0 - float(p @ p))

    if n <= pair_cap:
        value, stderr = _exact_zeta(features, p, beta), 0.0
    else:
        x = features.toarray() if sp.issparse(features) else features
        value, stderr = _sampled_zeta(x, p, pair_sum, beta, pair_cap, seed)

    if value <= 0 or not np.isfinite(value):
        value = 1.0
    return SubgraphWeight(
        zeta=value, pair_probability_sum=pair_sum, exact=n <= pair_cap, stderr=stderr
    )


def weighted_consensus(zetas, scales) -> np.ndarray:
    """Each part's loss weight in the zeta-weighted step: ``zeta_i * s_i / sum(zeta)``.

    The GAD-Optimizer steps by ``sum_i zeta_i * s_i * g_i / sum(zeta)``, for
    part i's gradient ``g_i`` scaled by ``s_i``; that is the gradient of
    ``sum_i c_i * L_i`` for these weights ``c`` (see :func:`gad.gcn.build_batch`).
    Zetas must be positive and finite, one per scale; otherwise
    :class:`GadError` is raised.
    """
    z = np.asarray(zetas, dtype=np.float64)
    s = np.asarray(scales, dtype=np.float64)
    if z.ndim != 1 or z.shape != s.shape:
        raise GadError("one zeta per scale required")
    if len(z) == 0:
        raise GadError("no parts to weigh")
    if (z <= 0).any() or not np.isfinite(z).all():
        raise GadError("zetas must be positive and finite")
    return z * s / z.sum()


def plain_consensus(scales) -> np.ndarray:
    """The plain mean's weights ``s_i / m``: unit zetas' bit for bit, as ``1.0 * s`` is ``s``."""
    return weighted_consensus(np.ones(len(scales)), scales)
