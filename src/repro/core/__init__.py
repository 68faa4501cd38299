"""MOVE's primary contribution: adaptive filter allocation.

- :mod:`repro.core.optimizer` — the MOVE optimization problem
  (Section IV-C): allocation factors ``n_i`` by Lagrange solution +
  randomized rounding, under the cluster storage constraint,
- :mod:`repro.core.allocation` — allocation ratio ``r_i`` and the
  partition/subset grid of Section IV-B,
- :mod:`repro.core.placement` — selection of allocated nodes: ring
  successors, rack-aware, and the paper's half/half hybrid (Section V),
- :mod:`repro.core.forwarding` — the forwarding table and engine
  (Section V, Figure 3),
- :mod:`repro.core.coordinator` — the dedicated statistics/planning
  node (Section V),
- :mod:`repro.core.pipeline` — the staged dissemination engine shared
  by all four systems (pruning → routing → execution → accounting),
- :mod:`repro.core.move_system` — the MOVE dissemination system facade.
"""

from .allocation import AllocationGrid, build_grid, required_ratio
from .coordinator import Coordinator
from .forwarding import ForwardingTable
from .move_system import MoveSystem
from .pipeline import (
    BatchCaches,
    DisseminationPipeline,
    ExecutionContext,
    WorkAccumulator,
)
from .optimizer import AllocationFactors, MoveOptimizer, NodeDemand
from .placement import PlacementSelector
from .policies import (
    AllocationPolicy,
    DriftPolicy,
    PassivePolicy,
    ProactivePolicy,
    run_policy,
)
from .reallocation import (
    KeyDiff,
    PlanDiff,
    ReallocationReport,
    ReplicaMove,
    diff_plans,
)

__all__ = [
    "AllocationPolicy",
    "ProactivePolicy",
    "PassivePolicy",
    "DriftPolicy",
    "run_policy",
    "KeyDiff",
    "PlanDiff",
    "ReallocationReport",
    "ReplicaMove",
    "diff_plans",
    "MoveOptimizer",
    "NodeDemand",
    "AllocationFactors",
    "AllocationGrid",
    "build_grid",
    "required_ratio",
    "PlacementSelector",
    "ForwardingTable",
    "Coordinator",
    "MoveSystem",
    "DisseminationPipeline",
    "BatchCaches",
    "ExecutionContext",
    "WorkAccumulator",
]
