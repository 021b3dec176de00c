"""hierpart: two-level hierarchical graph/mesh partitioning with node balancing."""

from .errors import FileFormatError, InfeasibleError
from .graph import (
    BalanceStats,
    Graph,
    Partition,
    PartMetrics,
    balance_stats,
    build_graph,
    edge_cut,
    extract_subgraph,
    per_rank_metrics,
    read_graph,
    read_partition,
    write_graph,
    write_partition,
)
from .hierarchy import (
    ExchangePlan,
    RankLayout,
    SplitPlan,
    compose_final,
    compute_splits,
    discover_exchange,
    hierarchical_partition,
    trivial_distribute,
)
from .kway import (
    CoarseningLevel,
    TargetWeights,
    coarsen,
    derive_seed,
    fm_refine,
    heavy_edge_match,
    initial_bisection,
    partition_kway,
)
from .mesh import (
    Mesh,
    dual_graph,
    generate_structured_hex,
    generate_structured_quad,
    read_mesh,
    write_mesh,
)
from .nodes import (
    NodeOwnership,
    assign_interface_partition,
    assign_lowest_rank,
    assign_parity,
    node_ratio,
    read_ownership,
    write_ownership,
)

__version__ = "0.1.0"
