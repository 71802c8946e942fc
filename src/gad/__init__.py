"""Balanced graph partitioning, halo augmentation, and simulated
multi-worker GCN training with variance-weighted gradient consensus."""

from .augment import (
    AugmentedSubgraph,
    ImportanceTable,
    assign_to_workers,
    augment_partitions,
    augment_subgraph,
    boundary_nodes,
    candidate_replication_nodes,
    depth_first_select,
    estimate_walk_count,
    node_importance,
    replication_budget,
)
from .config import Config
from .consensus import (
    SubgraphWeight,
    degree_probability,
    plain_consensus,
    weighted_consensus,
    zeta,
)
from .errors import BalanceError, GadError, NumericalError
from .gcn import (
    Batch,
    ForwardCache,
    GcnParams,
    Gradients,
    build_batch,
    forward,
    init_params,
    layer_input,
    loss_and_backward,
    sgd_update,
)
from .graph import (
    Graph,
    SubgraphView,
    full_view,
    induce_subgraph,
    load_dataset,
    make_split_masks,
    normalized_adjacency,
)
from .partition import (
    CoarseGraph,
    Partitioning,
    balance_cap,
    coarsen,
    edge_cut,
    partition_coarse,
    partition_graph,
    random_balanced_partition,
    uncoarsen,
)
from .synthetic import sbm_graph, write_citation_benchmark
from .training import (
    CommMetrics,
    TrainReport,
    communication_size,
    evaluate,
    make_batch,
    train,
)

__version__ = "0.1.0"
