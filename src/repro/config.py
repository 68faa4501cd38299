"""Configuration objects shared across the library.

Every tunable referenced in the paper's evaluation (Section VI) appears
here with the paper's default, so experiment code can cite a single
source of truth.  Scaled-down defaults used by the pure-Python
experiments live in :mod:`repro.experiments`; this module records the
*paper's* parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError

#: Number of cluster nodes used by default in the paper's evaluation.
PAPER_DEFAULT_NODES = 20

#: Default number of registered filters in the paper (Section VI-C).
PAPER_DEFAULT_FILTERS = 4_000_000

#: Default document injection rate (documents per second) in the paper.
PAPER_DEFAULT_DOCS_PER_SECOND = 1_000

#: Per-node filter capacity, replicas included (Section VI-C).
PAPER_DEFAULT_CAPACITY = 3_000_000

#: Replica count used by typical key/value stores (Dynamo, Cassandra).
KV_REPLICA_COUNT = 3


@dataclass(frozen=True)
class CostModelConfig:
    """Parameters of the latency cost model of Section IV-B.

    ``y_p`` is the average latency of matching one document against one
    locally stored filter (Eq. 1); ``y_d`` is the average latency of
    transferring one document to one node of a partition (Eq. 2).  The
    paper treats both as constants and argues disk IO (``y_p``)
    dominates; ``beta = y_p * P / y_d`` of Theorem 2 is therefore >> 1
    for large ``P``.

    ``y_seek`` models the fixed per-posting-list retrieval overhead (a
    disk seek); it is not in the paper's equations but makes the
    single-node experiments reproduce the "disk IO becomes the
    bottleneck at very large P" knee of Figure 6.
    """

    y_p: float = 1e-6
    y_d: float = 1e-4
    y_seek: float = 5e-5

    def __post_init__(self) -> None:
        if self.y_p <= 0 or self.y_d <= 0 or self.y_seek < 0:
            raise ConfigurationError(
                "cost model latencies must be positive "
                f"(y_p={self.y_p}, y_d={self.y_d}, y_seek={self.y_seek})"
            )

    def beta(self, total_filters: int) -> float:
        """Theorem 2's ``beta = y_p * P / y_d`` for ``P`` filters."""
        if total_filters < 0:
            raise ConfigurationError("total_filters must be non-negative")
        return self.y_p * total_filters / self.y_d


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster."""

    num_nodes: int = PAPER_DEFAULT_NODES
    num_racks: int = 4
    vnodes_per_node: int = 32
    replica_count: int = KV_REPLICA_COUNT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.num_racks < 1:
            raise ConfigurationError("num_racks must be >= 1")
        if self.num_racks > self.num_nodes:
            raise ConfigurationError(
                f"num_racks ({self.num_racks}) cannot exceed "
                f"num_nodes ({self.num_nodes})"
            )
        if self.vnodes_per_node < 1:
            raise ConfigurationError("vnodes_per_node must be >= 1")
        if self.replica_count < 1:
            raise ConfigurationError("replica_count must be >= 1")


@dataclass(frozen=True)
class AllocationConfig:
    """Knobs of the MOVE allocation scheme (Section IV and V)."""

    #: Per-node filter capacity ``C`` (replicas included).
    node_capacity: int = PAPER_DEFAULT_CAPACITY
    #: Allocation rule: ``sqrt_q`` (Theorem 1), ``sqrt_beta_q``
    #: (Theorem 2), ``sqrt_pq`` (general capacity-limited rule, the one
    #: the system deploys per Section V), or ``uniform`` (ablation).
    rule: str = "sqrt_pq"
    #: Aggregate statistics per home node (p'_i / q'_i of Section V)
    #: instead of keeping one forwarding array per term.
    aggregate_per_node: bool = True
    #: Placement of allocated filters: ``ring``, ``rack`` or ``hybrid``
    #: (half successors, half rack-aware — the paper's choice).
    placement: str = "hybrid"
    #: Use randomized rounding for integral ``n_i`` (vs deterministic).
    randomized_rounding: bool = True
    #: Seconds between statistic renewals (600 s = 10 min in the paper).
    refresh_interval: float = 600.0
    #: Drift threshold for the refresh gate: when the demand drift
    #: since the last applied plan (frequency-window movement plus
    #: filter churn; see ``MoveSystem.estimate_drift``) stays below
    #: this value, ``reallocate()`` skips the replan entirely and the
    #: write-through-maintained grids keep serving.  ``0.0`` disables
    #: the gate (every refresh replans — the paper's blind 10-minute
    #: renewal).
    drift_epsilon: float = 0.0

    _RULES = ("sqrt_q", "sqrt_beta_q", "sqrt_pq", "uniform")
    _PLACEMENTS = ("ring", "rack", "hybrid")

    def __post_init__(self) -> None:
        if self.node_capacity < 1:
            raise ConfigurationError("node_capacity must be >= 1")
        if self.rule not in self._RULES:
            raise ConfigurationError(
                f"unknown allocation rule {self.rule!r}; "
                f"expected one of {self._RULES}"
            )
        if self.placement not in self._PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {self._PLACEMENTS}"
            )
        if self.refresh_interval <= 0:
            raise ConfigurationError("refresh_interval must be positive")
        if not 0.0 <= self.drift_epsilon <= 1.0:
            raise ConfigurationError(
                f"drift_epsilon must be in [0, 1], got {self.drift_epsilon}"
            )


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundling all subsystem configs.

    Matching has no knobs here: under the similarity-threshold
    semantics every system scores with the one kernel of
    :mod:`repro.matching.kernel`, over the slab's slots.
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cost_model: CostModelConfig = field(default_factory=CostModelConfig)
    allocation: AllocationConfig = field(default_factory=AllocationConfig)
    #: Use a Bloom filter over registered-filter terms to prune
    #: document forwarding (Section V, "Document Dissemination").
    use_bloom_filter: bool = True
    #: Expected number of distinct filter terms (sizes the Bloom filter).
    expected_filter_terms: int = 100_000
    #: Bloom filter false-positive target.
    bloom_fp_rate: float = 0.01
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.expected_filter_terms < 1:
            raise ConfigurationError("expected_filter_terms must be >= 1")
        if not 0.0 < self.bloom_fp_rate < 1.0:
            raise ConfigurationError("bloom_fp_rate must be in (0, 1)")
