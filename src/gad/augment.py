"""Subgraph augmentation: replicate important remote nodes into each partition.

For every partition the steps are: find boundary nodes, collect candidate
replication nodes (external nodes within ``layers`` hops of the partition),
score candidates by the fraction of boundary-rooted random walks that visit
them (two-phase Monte-Carlo with a walk count chosen from the error formula
E = z_c * sigma / (mean * sqrt(n))), then copy the best walk prefixes into
the partition up to a density-scaled budget.  Selected replicas always lie
on a walk rooted inside the partition, so none of them dangle.  Parts run
on one thread per core when they are large (see :func:`map_parts`); each
draws from its own seeded stream, so the records match a plain loop's bit
for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rngs
from .errors import GadError
from .graph import Graph, SubgraphView, _unique, csr_rows, gather_rows, induce_subgraph
from .partition import Partitioning

Z_95 = 1.96
DEFAULT_ERR_TARGET = 0.05
DEFAULT_ALPHA = 0.01
# Parts averaging fewer nodes run one after another: their NumPy calls are
# short and hold the GIL, so threads only hand it back and forth.  Measured
# as augment_partitions on 2 threads against 1 (2-core host, generated
# planted graphs, median time ratio), by nodes a part:
# - 4 parts, average degree 4, layers=3: 2.00 at 200, 1.32 at 700, 1.20 at
#   1,250, 1.02-1.08 at 1,500-1,750, 0.91-1.04 at 2,000, 0.87 at 2,500;
# - 8 parts, degree 4, layers=2: 1.37 at 700, 1.03 at 1,500, 0.86 at 2,000;
# - 8 parts, degree 10, layers=2: 1.42 at 200, 0.96 at 550, 0.61 at 2,000
#   and 0.49 at 6,000.
# The sparse graphs break even near 2,000.
PARALLEL_MIN_NODES = 2000


@dataclass(frozen=True, eq=False)
class ImportanceTable:
    """Visit importance per candidate plus the Monte-Carlo bookkeeping."""

    candidates: np.ndarray       # sorted global node ids
    importance: np.ndarray       # I(v) aligned with candidates, in [0, 1]
    total_walks: int
    z_c: float
    err_target: float
    sigma_x: float
    x_bar: float


@dataclass(frozen=True, eq=False)
class AugmentedSubgraph:
    """A partition plus its replicated halo nodes."""

    part: int
    view: SubgraphView
    budget: int
    shortfall: int = 0

    @property
    def num_replicas(self) -> int:
        return int((~self.view.owned).sum())


@dataclass(frozen=True, eq=False)
class AugmentationRecord:
    """Everything the augment stage produced for one partition."""

    subgraph: AugmentedSubgraph
    table: ImportanceTable


def _members(p: Partitioning, i: int) -> np.ndarray:
    """Part ``i``'s member mask; a part id outside 0..k-1 raises GadError."""
    if not 0 <= i < p.k:
        raise GadError(f"part id {i} out of range")
    return p.assignment == i


def boundary_nodes(g: Graph, p: Partitioning, i: int) -> np.ndarray:
    """Owned nodes of part ``i`` with at least one neighbor in another part.

    Only the members' own CSR rows are read.
    """
    member = _members(p, i)
    ids = np.flatnonzero(member)
    offsets, targets = gather_rows(g, ids)
    return ids[_unique(csr_rows(offsets)[~member[targets]])]


def candidate_replication_nodes(g: Graph, p: Partitioning, i: int, layers: int) -> np.ndarray:
    """External nodes within ``layers`` hops of part ``i`` (BFS from its members).

    An external node's nearest member is a boundary node, so this is also
    the ``layers``-hop reach of the part's :func:`boundary_nodes`.
    """
    if layers < 1:
        raise GadError("layers must be >= 1")
    member = _members(p, i)
    visited = member.copy()
    frontier = np.flatnonzero(member)
    for _ in range(layers):
        # expand from the frontier's own rows only
        fresh = np.zeros(g.num_nodes, dtype=bool)
        fresh[gather_rows(g, frontier)[1]] = True
        fresh &= ~visited
        frontier = np.flatnonzero(fresh)
        if not frontier.size:
            break
        visited |= fresh
    return np.flatnonzero(visited & ~member).astype(np.int64)


def sample_size(scale: float, sigma: float, target: float) -> int:
    """Monte-Carlo sample size n = ceil((scale * sigma / target) ** 2).

    The size at which the mean of n draws with standard deviation
    ``sigma``, multiplied by ``scale``, has standard error ``target``.
    """
    return int(math.ceil((scale * sigma / target) ** 2))


def estimate_walk_count(
    importance_sample, z_c: float, err_target: float, provisional_count: int | None = None
) -> int:
    """Walk count n = ceil((z_c * sigma / (mean * err)) ** 2) from a provisional sample.

    ``sigma`` is the sample standard deviation (ddof=1) of the provisional
    importance values.  Zero spread means the sampled support is already
    exact, so the provisional count is kept; a zero mean means no candidate
    was ever visited and 0 is returned so the caller can skip augmentation.
    """
    sample = np.asarray(importance_sample, dtype=np.float64)
    x_bar = float(sample.mean()) if sample.size else 0.0
    if x_bar == 0.0:
        return 0
    sigma = float(sample.std(ddof=1)) if sample.size > 1 else 0.0
    if sigma == 0.0:
        return int(provisional_count) if provisional_count is not None else int(sample.size)
    return sample_size(z_c, sigma, x_bar * err_target)


def _random_walks(
    g: Graph, starts: np.ndarray, steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random walks over ``g``: an (n, steps + 1) array, one row per start.

    No walk stops early: every start is a boundary node, which has a
    neighbor, and each edge is stored in both directions, so every node a
    walk reaches has one too.
    """
    walks = np.empty((len(starts), steps + 1), dtype=np.int64)
    walks[:, 0] = cur = starts
    for s in range(1, steps + 1):
        cur = g.targets[g.offsets[cur] + rng.integers(0, g.degrees[cur])]
        walks[:, s] = cur
    return walks


def _candidate_visits(walks: np.ndarray, cand_index: np.ndarray, num_candidates: int) -> np.ndarray:
    """Number of walks visiting each candidate.

    Each walk row is sorted and a node equal to its left neighbor skipped,
    so a repeated visit within one walk is not counted again.
    """
    walks = np.sort(walks, axis=1)
    cidx = cand_index[walks]
    cidx[:, 1:][walks[:, 1:] == walks[:, :-1]] = -1
    return np.bincount(cidx[cidx >= 0], minlength=num_candidates)


def node_importance(
    g: Graph,
    boundary: np.ndarray,
    candidates: np.ndarray,
    layers: int,
    seed: int,
    z_c: float = Z_95,
    err_target: float = DEFAULT_ERR_TARGET,
) -> tuple[ImportanceTable, np.ndarray]:
    """Monte-Carlo visit importance for each candidate, and the walks behind it.

    Walks start at ``boundary`` nodes (a part's :func:`boundary_nodes`); one
    without a neighbor raises :class:`GadError`.  Phase one runs
    ``floor(avg boundary degree) * |B|`` walks of ``layers`` uniform steps;
    the provisional importance values fix the total walk count through
    :func:`estimate_walk_count`, and the remaining walks are then drawn from
    the same stream.  I(v) is the fraction of walks visiting v at least
    once.  With no boundary node or no candidate no walk runs and every
    I(v) is 0.  The walks are the (n, layers + 1) array of
    :func:`_random_walks`.
    """
    if (g.degrees[boundary] == 0).any():
        raise GadError("boundary nodes must have a neighbor")
    candidates = _unique(candidates)
    walks = np.zeros((0, layers + 1), dtype=np.int64)
    counts = np.zeros(len(candidates), dtype=np.int64)
    x_bar = sigma_x = 0.0
    if len(boundary) and len(candidates):
        cand_index = np.full(g.num_nodes, -1, dtype=np.int64)
        cand_index[candidates] = np.arange(len(candidates))
        rng = rngs.stream(seed, rngs.AUGMENT)
        n_phase1 = max(1, int(np.floor(g.degrees[boundary].mean()))) * len(boundary)
        starts = boundary[rng.integers(0, len(boundary), size=n_phase1)]
        walks = _random_walks(g, starts, layers, rng)
        counts = _candidate_visits(walks, cand_index, len(candidates))

        prov = counts[counts > 0] / n_phase1
        x_bar = float(prov.mean()) if prov.size else 0.0
        sigma_x = float(prov.std(ddof=1)) if prov.size > 1 else 0.0
        # 0 when no phase-1 walk visits a candidate; with every count 0 the
        # phase-1 walks stand as the sample
        n_more = estimate_walk_count(prov, z_c, err_target, provisional_count=n_phase1) - n_phase1
        if n_more > 0:
            starts = boundary[rng.integers(0, len(boundary), size=n_more)]
            more = _random_walks(g, starts, layers, rng)
            counts = counts + _candidate_visits(more, cand_index, len(candidates))
            walks = np.concatenate([walks, more], axis=0)

    table = ImportanceTable(
        candidates=candidates,
        importance=counts / max(len(walks), 1),
        total_walks=len(walks),
        z_c=z_c,
        err_target=err_target,
        sigma_x=sigma_x,
        x_bar=x_bar,
    )
    return table, walks


def replication_budget(num_nodes: int, num_edges: int, alpha: float = DEFAULT_ALPHA) -> int:
    """ceil(alpha * (1 + density) * |v|) for a part of ``num_nodes`` nodes and
    ``num_edges`` internal edges; callers cap it at the candidate count.

    The density is 2|e| / (|v| (|v| - 1)), and 0 below two nodes.
    """
    if alpha <= 0:
        raise GadError("alpha must be positive")
    n = int(num_nodes)
    density = 2.0 * num_edges / (n * (n - 1)) if n > 1 else 0.0
    return int(math.ceil(alpha * (1.0 + density) * n))


def _score_walks(table: ImportanceTable, walks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score of every walk, and the candidate flag per node id.

    A walk's score is the sum of I(v) over the distinct candidates it visits,
    in ascending node order.  All walks are scored at once on their sorted
    rows, with repeats and non-candidates counted as 0.0.  Summing the
    columns in order adds the kept values sequentially, as NumPy sums fewer
    than 8 values, and adding 0.0 never changes a float sum; a walk with 8
    or more distinct candidates (``layers`` >= 7) is summed on its own, as
    NumPy sums it pairwise.  So each score equals
    ``imp[np.unique(candidates on the walk)].sum()`` bit for bit at every
    walk length.
    """
    size = max(int(walks.max()), int(table.candidates.max(initial=0))) + 1
    imp = np.zeros(size, dtype=np.float64)
    imp[table.candidates] = table.importance
    is_cand = np.zeros(size, dtype=bool)
    is_cand[table.candidates] = True

    s = np.sort(walks, axis=1)
    keep = is_cand[s]
    keep[:, 1:] &= s[:, 1:] != s[:, :-1]
    vals = np.where(keep, imp[s], 0.0)
    scores = np.zeros(len(walks))
    for col in vals.T:
        scores += col
    for r in np.flatnonzero(keep.sum(axis=1) >= 8):
        scores[r] = vals[r, keep[r]].sum()
    return scores, is_cand


def depth_first_select(
    table: ImportanceTable, walks: np.ndarray, budget: int
) -> np.ndarray:
    """Pick replicas by draining the highest-scoring walks in walk order.

    A walk's score is the sum of I(v) over the distinct candidates it visits
    (see :func:`_score_walks`); ties go to the earlier walk.  Selected nodes
    are therefore always path-connected to the partition through their walk.
    """
    if budget < 0:
        raise GadError("budget must be >= 0")
    if budget == 0 or len(walks) == 0:
        return np.zeros(0, dtype=np.int64)
    scores, is_cand = _score_walks(table, walks)
    order = np.lexsort((np.arange(len(walks)), -scores))
    cand_walks = np.where(is_cand[walks], walks, -1)
    selected: list[int] = []
    chosen = set()
    for row in order.tolist():
        for node in cand_walks[row].tolist():
            if node >= 0 and node not in chosen:
                chosen.add(node)
                selected.append(node)
                if len(selected) >= budget:
                    return np.array(selected, dtype=np.int64)
    return np.array(selected, dtype=np.int64)


def augment_subgraph(
    g: Graph,
    owned,
    replicas,
    part: int = 0,
    budget: int | None = None,
    shortfall: int = 0,
) -> AugmentedSubgraph:
    """Induce the subgraph over ``owned`` node ids plus ``replicas`` (maximal edges kept)."""
    replicas = _unique(replicas)
    if np.isin(replicas, owned).any():
        raise GadError(f"part {part} replicas must be disjoint from its owned nodes")
    return AugmentedSubgraph(
        part=part,
        view=induce_subgraph(g, np.concatenate([owned, replicas]), owned),
        budget=len(replicas) if budget is None else int(budget),
        shortfall=shortfall,
    )


def assign_to_workers(subgraphs: list[AugmentedSubgraph], num_workers: int) -> np.ndarray:
    """Greedy balanced placement: biggest subgraph first, least-loaded worker."""
    if num_workers < 1:
        raise GadError("num_workers must be >= 1")
    sizes = np.array([s.view.num_nodes for s in subgraphs], dtype=np.int64)
    order = np.lexsort((np.arange(len(sizes)), -sizes))
    loads = np.zeros(num_workers, dtype=np.int64)
    out = np.zeros(len(sizes), dtype=np.int64)
    for idx in order:
        w = int(np.argmin(loads))
        out[idx] = w
        loads[w] += sizes[idx]
    return out


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def map_parts(fn, parts, sizes) -> list:
    """``[fn(part) for part in parts]``, on one thread per core for large parts.

    ``sizes`` holds each part's node count.  With one core, or parts that
    average fewer than ``PARALLEL_MIN_NODES`` nodes, it is that plain loop;
    otherwise a thread pool runs the calls and the results come back in
    part order.  The first part in order whose call raises gives the error
    raised, as in the loop.  Each call must draw only from its own part's
    streams, so that the results do not depend on the order calls run in.
    """
    parts = list(parts)
    cores = min(_cores(), len(parts))
    if cores < 2 or sum(sizes) < PARALLEL_MIN_NODES * len(parts):
        return [fn(part) for part in parts]
    with ThreadPoolExecutor(cores) as pool:
        return list(pool.map(fn, parts))


def augment_partitions(
    g: Graph,
    p: Partitioning,
    layers: int,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    z_c: float = Z_95,
    err_target: float = DEFAULT_ERR_TARGET,
    mode: str = "indicator",
    enabled: bool = True,
) -> list[AugmentationRecord]:
    """Run the full augmentation pass for every partition.

    With ``enabled=False`` the records carry the bare partition subgraphs
    (the no-augmentation baseline used for comparisons).  ``mode`` must be
    ``"indicator"``, the only importance rule.
    """
    if mode != "indicator":
        raise GadError(f"unknown importance mode {mode!r}")
    # every part's internal edge count, from one pass over the entries
    src = p.assignment[g.rows]
    internal_edges = np.bincount(src[src == p.assignment[g.targets]], minlength=p.k) // 2

    def augment_part(i: int) -> AugmentationRecord:
        ids = np.flatnonzero(p.assignment == i)
        halo = candidate_replication_nodes(g, p, i, layers) if enabled else np.zeros(0, np.int64)
        part_seed = rngs.stream(seed, rngs.AUGMENT, i).integers(0, 2**31 - 1)
        table, walks = node_importance(
            g, boundary_nodes(g, p, i), halo, layers, int(part_seed), z_c, err_target
        )
        budget = min(replication_budget(len(ids), internal_edges[i], alpha), len(halo))
        replicas = depth_first_select(table, walks, budget)
        aug = augment_subgraph(g, ids, replicas, i, budget, budget - len(replicas))
        return AugmentationRecord(subgraph=aug, table=table)

    return map_parts(augment_part, range(p.k), p.part_sizes())
