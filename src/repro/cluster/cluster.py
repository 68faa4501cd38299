"""Cluster orchestration: nodes + ring + topology + gossip + network.

This object is the "Apache Cassandra deployment" of the reproduction:
it wires the partitioner, consistent-hash ring, rack topology, gossip
membership and per-node service queues together, and exposes failure
injection for the Figure 9(c–d) experiments.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..config import ClusterConfig
from ..errors import UnknownNodeError
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Simulator
from ..sim.network import LinkSpec, NetworkModel
from .membership import GossipMembership
from .node import ClusterNode
from .partitioner import RandomPartitioner
from .ring import ConsistentHashRing
from .topology import Topology


class Cluster:
    """A simulated cluster of commodity machines."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        sim: Optional[Simulator] = None,
        link_spec: Optional[LinkSpec] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.sim = sim or Simulator()
        #: Cluster-wide observability registry: per-node disk service
        #: and wait histograms (fed by each node's
        #: :class:`~repro.sim.server.FifoServer`) plus crash/recovery
        #: counters — the substrate half of ``repro.obs``.
        self.metrics = MetricsRegistry()
        #: Bumped on every membership change (join, crash, recovery).
        #: Systems fold it into their batch epoch so the dissemination
        #: pipeline can detect membership churn inside a publish batch
        #: (see ``DisseminationSystem._batch_epoch``).
        self.membership_epoch = 0
        self.partitioner = RandomPartitioner()
        self.ring = ConsistentHashRing(
            self.partitioner, vnodes=self.config.vnodes_per_node
        )
        self.topology = Topology()
        self.nodes: Dict[str, ClusterNode] = {}

        node_ids = [f"node{i:03d}" for i in range(self.config.num_nodes)]
        rack_assignment = Topology.round_robin(
            node_ids, self.config.num_racks
        )
        for node_id in node_ids:
            rack = rack_assignment.rack_of(node_id)
            self.topology.assign(node_id, rack)
            self.nodes[node_id] = ClusterNode(
                node_id, sim=self.sim, rack=rack, registry=self.metrics
            )
            self.ring.add_node(node_id)

        self.membership = GossipMembership(
            node_ids, seed=self.config.seed
        )
        self.network = NetworkModel(
            self.sim, spec=link_spec, rack_of=self.topology.rack_of
        )

    # -- membership / lookup ------------------------------------------

    def node(self, node_id: str) -> ClusterNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        return node

    def node_ids(self) -> List[str]:
        return sorted(self.nodes)

    def live_node_ids(self) -> List[str]:
        return [nid for nid in self.node_ids() if self.nodes[nid].alive]

    def home_node(self, key: str) -> ClusterNode:
        """The node owning ``key`` on the ring."""
        return self.node(self.ring.home_node(key))

    def __len__(self) -> int:
        return len(self.nodes)

    # -- scaling ---------------------------------------------------------

    def add_node(self, rack: Optional[str] = None) -> ClusterNode:
        """Join a fresh node (used by elasticity tests)."""
        node_id = f"node{len(self.nodes):03d}"
        while node_id in self.nodes:
            node_id = f"node{int(node_id[4:]) + 1:03d}"
        rack = rack or f"rack{len(self.nodes) % self.config.num_racks}"
        node = ClusterNode(
            node_id, sim=self.sim, rack=rack, registry=self.metrics
        )
        self.nodes[node_id] = node
        self.topology.assign(node_id, rack)
        self.ring.add_node(node_id)
        self.membership.add_node(node_id)
        self.membership_epoch += 1
        return node

    # -- failure injection -------------------------------------------------

    def fail_node(self, node_id: str) -> None:
        """Fail-stop ``node_id`` (state retained for later recovery)."""
        node = self.node(node_id)
        if not node.alive:
            return
        node.crash()
        self.membership.mark_crashed(node_id)
        self.membership_epoch += 1

    def recover_node(self, node_id: str) -> None:
        node = self.node(node_id)
        if node.alive:
            return
        node.recover()
        self.membership.mark_recovered(node_id)
        self.membership_epoch += 1

    def fail_fraction(
        self, fraction: float, rng, exclude: Iterable[str] = ()
    ) -> List[str]:
        """Fail a random ``fraction`` of live nodes; returns their ids."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        excluded = set(exclude)
        candidates = [
            nid for nid in self.live_node_ids() if nid not in excluded
        ]
        count = int(round(fraction * len(candidates)))
        victims = rng.sample(candidates, k=min(count, len(candidates)))
        for node_id in victims:
            self.fail_node(node_id)
        return victims

    def fail_rack(self, rack: str) -> List[str]:
        """Fail every node in ``rack`` (whole-rack outage)."""
        victims = self.topology.nodes_in_rack(rack)
        for node_id in victims:
            self.fail_node(node_id)
        return victims
