"""Multilevel k-way partitioning: coarsen, grow seeded parts, project back.

The pipeline is heavy-edge-matching coarsening down to a target size, greedy
region growing with restarts on the coarsest level (keeping the assignment
with the smallest weighted cut among those whose parts fit the cap, or among
all of them when none fits), and projection of that assignment back to the
original nodes.  Balance follows the cap (1 + eps) * ceil(|V| / k), first
on node weight during growth and finally on node count after projection.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import rngs
from .errors import BalanceError, GadError
from .graph import Csr, Graph, csr_rows

SHRINK_STALL = 0.95   # stop coarsening when a level keeps > 95% of its nodes


@dataclass(frozen=True, eq=False)
class CoarseGraph(Csr):
    """One level of the coarsening hierarchy.

    ``fine_to_coarse`` maps the previous level's node ids to this level's
    (None at level 0).  Node weights always sum to the original |V|; an edge
    weight counts the original edges crossing between the two merged sets.
    """

    num_nodes: int
    offsets: np.ndarray
    targets: np.ndarray
    edge_weights: np.ndarray   # aligned with targets
    node_weight: np.ndarray
    fine_to_coarse: np.ndarray | None


@dataclass(frozen=True, eq=False)
class Partitioning:
    """Node-to-part assignment with its quality numbers."""

    assignment: np.ndarray   # int64 part id per original node
    k: int
    epsilon: float
    edge_cut: int
    restarts_used: int

    def __post_init__(self):
        if self.k < 1:
            raise GadError("k must be >= 1")
        a = self.assignment
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise GadError(f"part id outside 0..{self.k - 1} in the assignment")

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    def part_nodes(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i).astype(np.int64)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "assignment": self.assignment.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Partitioning":
        return cls(
            assignment=json_array(d["assignment"], "assignment"),
            k=json_checked(d["k"], "k"),
            epsilon=float(json_checked(d["epsilon"], "epsilon", (int, float))),
            edge_cut=json_checked(d["edge_cut"], "edge_cut"),
            restarts_used=json_checked(d["restarts_used"], "restarts_used"),
        )


def json_checked(value, what: str, kinds: tuple = (int,)):
    """``value`` if its type is one of ``kinds``, else TypeError.  A JSON
    ``true`` is not an int here, nor is ``"3"`` or ``3.0``."""
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise TypeError(f"{what} must be {names}, not {value!r}")
    return value


def json_array(values, what: str, kinds: tuple = (int,)) -> np.ndarray:
    """A JSON list whose entries pass :func:`json_checked`, as an int64 array."""
    for v in json_checked(values, what, (list,)):
        json_checked(v, f"{what} entry", kinds)
    return np.array(values, dtype=np.int64)


def balance_cap(num_nodes: int, k: int, epsilon: float) -> int:
    """Per-part cap floor((1 + eps) * ceil(|V| / k))."""
    return int(np.floor((1.0 + epsilon) * np.ceil(num_nodes / k)))


def level_zero(g: Graph) -> CoarseGraph:
    """Wrap a Graph, sharing its CSR arrays, as the finest level with unit weights."""
    return CoarseGraph(
        num_nodes=g.num_nodes,
        offsets=g.offsets,
        targets=g.targets,
        edge_weights=np.ones(len(g.targets), dtype=np.int64),
        node_weight=np.ones(g.num_nodes, dtype=np.int64),
        fine_to_coarse=None,
    )


def _match_heavy_edges(cg: CoarseGraph, rng: np.random.Generator) -> np.ndarray:
    """Heavy-edge matching: partner id per node (own id when unmatched).

    Nodes are visited in random order; an unmatched node pairs with its
    unmatched neighbor along the maximum-weight edge, ties to lowest id.
    Each row is ordered once, heaviest edge first and, as rows ascend,
    lowest id on ties, so a node's partner is its first unmatched entry.
    Equal weights (every edge of level 0) leave the rows as they are.
    """
    targets, w = cg.targets, cg.edge_weights
    top = int(w.max(initial=0))
    if (w != top).any():
        order = np.argsort(csr_rows(cg.offsets) * (top + 1) + (top - w), kind="stable")
        targets = targets[order]
    # plain lists: indexing a list costs a fraction of reading a NumPy scalar
    offsets, targets = cg.offsets.tolist(), targets.tolist()
    partner = [-1] * cg.num_nodes
    for u in rng.permutation(cg.num_nodes).tolist():
        if partner[u] != -1:
            continue
        partner[u] = u   # also skips a self-loop
        for v in targets[offsets[u]:offsets[u + 1]]:
            if partner[v] == -1:
                partner[u], partner[v] = v, u
                break
    return np.asarray(partner, dtype=np.int64)


def _contract(cg: CoarseGraph, partner: np.ndarray) -> CoarseGraph:
    """Merge every matched pair (``partner`` is symmetric) into one node.

    Coarse ids follow the smaller id of each pair (a node's own id when
    unmatched), in increasing order.
    """
    n = cg.num_nodes
    ids = np.arange(n, dtype=np.int64)
    leads = partner >= ids
    next_id = int(leads.sum())
    coarse_id = (np.cumsum(leads) - 1)[np.minimum(ids, partner)]

    node_weight = np.bincount(coarse_id, weights=cg.node_weight, minlength=next_id)
    # not cg.rows: cached, an inner level's rows would outlive its contraction
    cu = coarse_id[csr_rows(cg.offsets)]
    cv = coarse_id[cg.targets]
    keep = cu != cv
    mat = sp.coo_matrix(
        (cg.edge_weights[keep].astype(np.int64), (cu[keep], cv[keep])),
        shape=(next_id, next_id),
    ).tocsr()   # canonical: each row's columns ascend, duplicates summed
    return CoarseGraph(
        num_nodes=next_id,
        offsets=mat.indptr.astype(np.int64),
        targets=mat.indices.astype(np.int64),
        edge_weights=mat.data.astype(np.int64),
        node_weight=node_weight.astype(np.int64),
        fine_to_coarse=coarse_id,
    )


def coarsen(g: Graph | CoarseGraph, target_fraction: float = 0.2, seed: int = 0) -> list[CoarseGraph]:
    """Coarsening hierarchy, finest (the input) first, coarsest last.

    Stops once a level has <= target_fraction * |V| nodes, or when matching
    stalls (a level shrinking by less than 5% is discarded).
    """
    if not 0.0 < target_fraction < 1.0:
        raise GadError("target_fraction must be in (0, 1)")
    level = g if isinstance(g, CoarseGraph) else level_zero(g)
    levels = [level]
    target = target_fraction * level.num_nodes
    step = 0
    while levels[-1].num_nodes > target:
        cur = levels[-1]
        rng = rngs.stream(seed, rngs.COARSEN, step)
        nxt = _contract(cur, _match_heavy_edges(cur, rng))
        if nxt.num_nodes > SHRINK_STALL * cur.num_nodes:
            break
        levels.append(nxt)
        step += 1
    return levels


def _cut(assign: np.ndarray, csr: Csr, weights=None) -> int:
    """Weight (count when ``weights`` is None) of ``csr``'s edges between parts."""
    cross = assign[csr.rows] != assign[csr.targets]
    return int(cross.sum() if weights is None else weights[cross].sum()) // 2


def _grow_parts(cg: CoarseGraph, k: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """One seeded region-growing pass; returns a full assignment.

    In round-robin turns a part takes the free node behind its heaviest edge
    out (lowest id on ties): one argmax over ``score[i]``, the heaviest edge
    from part i to each free node, 0 for none (edge weights are >= 1).  A part
    closes when its row is all 0 or that node would push it over the cap.
    """
    n = cg.num_nodes
    offsets, targets, weights = cg.offsets.tolist(), cg.targets, cg.edge_weights
    node_weight = cg.node_weight.tolist()
    assign = [-1] * n
    free = np.ones(n, dtype=np.int64)
    score = np.zeros((k, n), dtype=np.int64)
    rows = list(score)   # row views: indexing them beats score[i, nb]
    part_weight = [0] * k

    def take(i: int, v: int) -> None:
        assign[v] = i
        part_weight[i] += node_weight[v]
        score[:, v] = 0
        free[v] = 0
        lo, hi = offsets[v], offsets[v + 1]
        nb = targets[lo:hi]
        row = rows[i]
        row[nb] = np.maximum(row[nb], weights[lo:hi] * free[nb])

    for i, s in enumerate(rng.choice(n, size=k, replace=False).tolist()):
        take(i, s)

    open_parts = [True] * k
    while any(open_parts):
        for i in range(k):
            if not open_parts[i]:
                continue
            row = rows[i]
            v = int(row.argmax())
            if row[v] == 0 or part_weight[i] + node_weight[v] > cap:
                open_parts[i] = False
                continue
            take(i, v)

    # Attach orphans to the adjacent part with the smallest weight; repeat
    # passes so chains of orphans resolve, then fall back to the globally
    # lightest part for nodes with no assigned neighbor at all.
    orphans, rest = [], [u for u in range(n) if assign[u] == -1]
    while len(rest) != len(orphans):   # until a pass attaches no orphan
        orphans, rest = rest, []
        for u in orphans:
            parts = {assign[v] for v in targets[offsets[u]:offsets[u + 1]].tolist()
                     if assign[v] != -1}
            if parts:
                tgt = min(parts, key=lambda p: (part_weight[p], p))
                assign[u] = tgt
                part_weight[tgt] += node_weight[u]
            else:
                rest.append(u)
    if rest:
        warnings.warn(
            f"{len(rest)} node(s) with no adjacent part assigned to the "
            "lightest part",
            stacklevel=2,
        )
        for u in rest:
            tgt = part_weight.index(min(part_weight))   # lightest part, lowest id on ties
            assign[u] = tgt
            part_weight[tgt] += node_weight[u]
    return np.asarray(assign, dtype=np.int64)


def partition_coarse(
    cg: CoarseGraph, k: int, epsilon: float, restarts: int, seed: int
) -> np.ndarray:
    """Best-of-``restarts`` greedy growth on one level.

    A restart whose parts all fit the cap beats one whose orphans push a
    part over it; among equals the minimum weighted cut wins, the earlier
    restart on ties.  Restart r uses an independent stream derived from
    (seed, r), so sharing a seed across different restart counts shares the
    restart prefix.
    """
    if k > cg.num_nodes:
        raise GadError(f"k={k} exceeds node count {cg.num_nodes}")
    if restarts < 1:
        raise GadError("restarts must be >= 1")
    total = int(cg.node_weight.sum())
    cap = balance_cap(total, k, epsilon)
    if k * cap < total:
        raise BalanceError(
            f"infeasible balance: k={k}, cap={cap} cannot hold {total} nodes"
        )
    best_assign, best_key = None, None
    for r in range(restarts):
        rng = rngs.stream(seed, rngs.RESTART, r)
        assign = _grow_parts(cg, k, cap, rng)
        over = bool((np.bincount(assign, weights=cg.node_weight, minlength=k) > cap).any())
        key = (over, _cut(assign, cg, cg.edge_weights))
        if best_key is None or key < best_key:
            best_assign, best_key = assign, key
    return best_assign


def _rebalance_counts(level0: CoarseGraph, assign: np.ndarray, k: int, cap: int) -> np.ndarray:
    """Move boundary nodes from over-full to under-full parts (one pass).

    While a part is over the cap, its lowest-id node with a neighbor in an
    under-full part moves to the smallest such part (lowest id on ties); if
    none has one, its lowest-id node moves to the smallest under-full part.
    """
    n = level0.num_nodes
    offsets, targets = level0.offsets.tolist(), level0.targets.tolist()
    assign = assign.tolist()
    sizes = np.bincount(assign, minlength=k).tolist()

    def smallest(parts) -> int:
        """The smallest under-full part among ``parts`` (lowest id on ties), or -1."""
        under = [p for p in parts if sizes[p] < cap]
        return min(under, key=lambda p: (sizes[p], p)) if under else -1

    for part in range(k):
        if sizes[part] <= cap:
            continue
        # Members leave one min-heap lowest id first (in id order, the list
        # is already a heap).  Sizes of the other parts only grow here, so a
        # popped node that had no target gains one only when a neighbor
        # moves out; those neighbors are pushed back.
        heap = [u for u in range(n) if assign[u] == part]
        while sizes[part] > cap:
            if heap:
                u = heapq.heappop(heap)
                if assign[u] != part:
                    continue
                tgt = smallest({assign[v] for v in targets[offsets[u]:offsets[u + 1]]})
                if tgt == -1:
                    continue
            else:
                tgt = smallest(range(k))
                if tgt == -1:
                    raise BalanceError("rebalance failed: no under-full part available")
                u = assign.index(part)   # its lowest-id member
            assign[u] = tgt
            sizes[part] -= 1
            sizes[tgt] += 1
            for v in targets[offsets[u]:offsets[u + 1]]:
                if assign[v] == part:
                    heapq.heappush(heap, v)
    return np.asarray(assign, dtype=np.int64)


def uncoarsen(
    levels: list[CoarseGraph], coarse_assignment: np.ndarray, k: int, epsilon: float
) -> Partitioning:
    """Project a coarsest-level assignment back to the original nodes.

    Recomputes the edge cut on the finest level and enforces the node-count
    balance cap, fixing small violations with a single rebalance pass.
    """
    assign = np.asarray(coarse_assignment, dtype=np.int64)
    if len(assign) != levels[-1].num_nodes:
        raise GadError("assignment length does not match coarsest level")
    for level in reversed(levels[1:]):
        f2c = level.fine_to_coarse
        if f2c is None or np.any(f2c < 0):
            raise GadError("projection gap: fine node with no coarse image")
        assign = assign[f2c]

    level0 = levels[0]
    n = level0.num_nodes
    cap = balance_cap(n, k, epsilon)
    sizes = np.bincount(assign, minlength=k)
    if (sizes == 0).any():
        raise BalanceError("empty part after projection")
    if (sizes > cap).any():
        assign = _rebalance_counts(level0, assign, k, cap)
        sizes = np.bincount(assign, minlength=k)
        if (sizes > cap).any() or (sizes == 0).any():
            raise BalanceError("balance constraint violated after rebalance")
    return Partitioning(
        assignment=assign,
        k=k,
        epsilon=epsilon,
        edge_cut=_cut(assign, level0, level0.edge_weights),
        restarts_used=0,
    )


def edge_cut(g: Graph, p: Partitioning) -> int:
    """Number of undirected edges with endpoints in different parts."""
    assign = p.assignment
    if len(assign) != g.num_nodes:
        raise GadError("assignment does not cover all nodes")
    return _cut(assign, g)


def partition_graph(
    g: Graph,
    k: int,
    epsilon: float = 0.1,
    restarts: int = 8,
    seed: int = 0,
    target_fraction: float = 0.2,
) -> Partitioning:
    """Full multilevel pipeline on a Graph."""
    if not 1 <= k <= g.num_nodes:
        raise GadError(f"k must be in 1..{g.num_nodes}")
    cap = balance_cap(g.num_nodes, k, epsilon)
    if k * cap < g.num_nodes:
        raise BalanceError(f"infeasible balance: k={k}, epsilon={epsilon}")
    if k == 1:
        return Partitioning(
            assignment=np.zeros(g.num_nodes, dtype=np.int64),
            k=1,
            epsilon=epsilon,
            edge_cut=0,
            restarts_used=0,
        )
    levels = coarsen(g, target_fraction=target_fraction, seed=seed)
    # never partition a level that has fewer nodes than parts
    depth = max(i for i, lv in enumerate(levels) if lv.num_nodes >= k)
    levels = levels[: depth + 1]
    coarse_assign = partition_coarse(levels[-1], k, epsilon, restarts, seed)
    return replace(uncoarsen(levels, coarse_assign, k, epsilon), restarts_used=restarts)


def random_balanced_partition(num_nodes: int, k: int, seed: int) -> np.ndarray:
    """Uniformly random assignment with near-equal part sizes (baseline)."""
    rng = rngs.stream(seed, rngs.RESTART, 10**6)
    assign = np.arange(num_nodes, dtype=np.int64) % k
    rng.shuffle(assign)
    return assign
