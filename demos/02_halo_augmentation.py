"""Anatomy of subgraph augmentation on a 6-node example.

Two triangles joined by a bridge, split at the bridge.  Shows boundary
detection, the candidate set within 2 hops, random-walk importance versus
the exact visit probabilities, the density-scaled budget, and the final
augmented subgraph.
"""

import numpy as np

from gad import (
    Graph,
    Partitioning,
    augment_subgraph,
    boundary_nodes,
    candidate_replication_nodes,
    depth_first_select,
    induce_subgraph,
    node_importance,
    replication_budget,
)

pairs = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
g = Graph.from_edges(6, pairs)
p = Partitioning(np.array([0, 0, 0, 1, 1, 1]), k=2, epsilon=1.0, edge_cut=1, restarts_used=0)

part = 0
layers = 2
owned = p.part_nodes(part)
sub = induce_subgraph(g, owned, owned)

print(f"partition {part} owns {owned.tolist()}")
boundary = boundary_nodes(g, p, part)
print(f"boundary nodes: {boundary.tolist()}")

cands = candidate_replication_nodes(g, p, part, layers)
print(f"candidates within {layers} hops: {cands.tolist()}")

table, walks = node_importance(g, boundary, cands, layers, seed=7)
print(f"\nran {table.total_walks} walks of length {layers} "
      f"(z_c={table.z_c}, target error {table.err_target})")
print("estimated importance vs exact visit probability:")
exact = {3: 1 / 3, 4: 1 / 9, 5: 1 / 9}   # enumerate all length-2 walks by hand
for c, i_v in zip(table.candidates.tolist(), table.importance.tolist()):
    print(f"  node {c}: I={i_v:.4f}   exact={exact[c]:.4f}")

budget = min(replication_budget(sub.num_nodes, sub.num_edges, alpha=0.4), len(cands))
chosen = depth_first_select(table, walks, budget)
print(f"\nbudget {budget} -> replicate {chosen.tolist()}")

aug = augment_subgraph(g, owned, chosen, part=part)
print(f"augmented subgraph: {aug.view.num_nodes} nodes "
      f"({aug.num_replicas} replicas), {aug.view.num_edges} edges")
sources = dict(zip(aug.view.replica_ids.tolist(), p.assignment[aug.view.replica_ids].tolist()))
print(f"replica sources: {sources}")
