"""repro — a reproduction of MOVE (ICDCS 2012).

MOVE is a large-scale keyword-based content filtering and dissemination
system: users register keyword *filters*, published *documents* are
matched against them on a cluster of commodity machines, and an
adaptive filter-allocation scheme (combined replication + separation
under a storage budget) maximizes matching throughput.

Quickstart::

    from repro import Cluster, MoveSystem, Document, Filter

    cluster = Cluster()
    move = MoveSystem(cluster)
    move.subscribe([Filter.from_text("f1", "distributed systems")])
    move.subscribe([("q1", "cloud AND (storage OR compute)")])
    move.seed_frequencies([Document.from_text("seed", "systems paper")])
    move.finalize_registration()
    plan = move.publish(Document.from_text("d1", "new distributed tricks"))
    print(plan.matched_ids)   # ('f1',)

Package layout: see DESIGN.md for the full system inventory and the
per-experiment index.
"""

from .baselines import (
    CentralizedSift,
    CentralizedSystem,
    DisseminationPlan,
    DisseminationSystem,
    InvertedListSystem,
    NodeTask,
    RendezvousSystem,
)
from .cluster import Cluster
from .config import (
    AllocationConfig,
    ClusterConfig,
    CostModelConfig,
    SystemConfig,
)
from .core import Coordinator, ForwardingTable, MoveOptimizer, MoveSystem
from .errors import ReproError
from .model import (
    BooleanAnyTermSemantics,
    Document,
    Filter,
    QueryError,
    Subscription,
    ThresholdSemantics,
    brute_force_match,
    parse_query,
)
from .obs import (
    MetricsRegistry,
    NullTracer,
    SystemStats,
    Tracer,
    get_default_tracer,
    set_default_tracer,
)
from .text import Tokenizer, tokenize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "ClusterConfig",
    "CostModelConfig",
    "AllocationConfig",
    # data model
    "Document",
    "Filter",
    "Subscription",
    "QueryError",
    "parse_query",
    "BooleanAnyTermSemantics",
    "ThresholdSemantics",
    "brute_force_match",
    # substrate
    "Cluster",
    "Tokenizer",
    "tokenize",
    # systems
    "MoveSystem",
    "InvertedListSystem",
    "RendezvousSystem",
    "CentralizedSift",
    "CentralizedSystem",
    "DisseminationSystem",
    "DisseminationPlan",
    "NodeTask",
    # core machinery
    "MoveOptimizer",
    "Coordinator",
    "ForwardingTable",
    # observability
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "SystemStats",
    "get_default_tracer",
    "set_default_tracer",
    # errors
    "ReproError",
]
