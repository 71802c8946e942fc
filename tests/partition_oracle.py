"""Heap-based region growing, kept as the reference for ``_grow_parts``.

Each part keeps a max-heap of its frontier edges, pushed as (-weight, node)
while the node is free; a turn pops until it finds a free node, so it takes
the heaviest edge out of the part, lowest node id on ties.  The part closes
when its heap runs dry or the popped node would push it over the cap.
Unassigned nodes are then attached by the same orphan pass as the program.
"""

import heapq
import warnings

import numpy as np


def grow_parts_heap(cg, k: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """One seeded region-growing pass; returns a full assignment."""
    n = cg.num_nodes
    offsets, targets, weights = cg.offsets.tolist(), cg.targets.tolist(), cg.edge_weights.tolist()
    node_weight = cg.node_weight.tolist()
    assign = [-1] * n
    seeds = rng.choice(n, size=k, replace=False).tolist()
    part_weight = [0] * k
    frontiers: list[list] = [[] for _ in range(k)]
    for i, s in enumerate(seeds):
        assign[s] = i
        part_weight[i] = node_weight[s]
        for pos in range(offsets[s], offsets[s + 1]):
            heapq.heappush(frontiers[i], (-weights[pos], targets[pos]))

    open_parts = [True] * k
    while any(open_parts):
        for i in range(k):
            if not open_parts[i]:
                continue
            heap = frontiers[i]
            v = -1
            while heap:
                _, cand = heapq.heappop(heap)
                if assign[cand] == -1:
                    v = cand
                    break
            if v == -1:
                open_parts[i] = False
                continue
            if part_weight[i] + node_weight[v] > cap:
                open_parts[i] = False
                continue
            assign[v] = i
            part_weight[i] += node_weight[v]
            for pos in range(offsets[v], offsets[v + 1]):
                t = targets[pos]
                if assign[t] == -1:
                    heapq.heappush(heap, (-weights[pos], t))

    orphans = [u for u in range(n) if assign[u] == -1]
    while orphans:
        rest = []
        progress = False
        for u in orphans:
            parts = {assign[v] for v in targets[offsets[u]:offsets[u + 1]] if assign[v] != -1}
            if parts:
                tgt = min(parts, key=lambda p: (part_weight[p], p))
                assign[u] = tgt
                part_weight[tgt] += node_weight[u]
                progress = True
            else:
                rest.append(u)
        if not progress:
            warnings.warn(
                f"{len(rest)} node(s) with no adjacent part assigned to the "
                "lightest part",
                stacklevel=2,
            )
            for u in rest:
                tgt = part_weight.index(min(part_weight))
                assign[u] = tgt
                part_weight[tgt] += node_weight[u]
            rest = []
        orphans = rest
    return np.asarray(assign, dtype=np.int64)
