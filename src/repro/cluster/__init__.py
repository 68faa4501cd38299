"""A from-scratch Cassandra/Dynamo-model cluster substrate.

The paper deploys MOVE on Apache Cassandra 0.87 (an open-source Dynamo
implementation with a BigTable data model), but its algorithms use
only the key/value contract: home-node mapping, O(1) routing, and
successor or rack placement.  This package rebuilds those pieces:

- :mod:`repro.cluster.partitioner` — MD5 random partitioner (tokens),
- :mod:`repro.cluster.ring` — consistent-hash ring with virtual nodes,
  home-node lookup and ring successors,
- :mod:`repro.cluster.topology` — rack/datacenter layout,
- :mod:`repro.cluster.membership` — gossip dissemination of membership
  state with heartbeat-based failure detection,
- :mod:`repro.cluster.storage` — the segmented CRC-framed write-ahead
  log (:class:`~repro.cluster.storage.WalWriter` /
  :class:`~repro.cluster.storage.WalReader`) backing crash recovery
  in :mod:`repro.serve`,
- :mod:`repro.cluster.node` — a cluster node and its disk-bound
  service queue,
- :mod:`repro.cluster.cluster` — cluster orchestration and failure
  injection.
"""

from .cluster import Cluster
from .membership import GossipMembership, NodeState
from .node import ClusterNode
from .partitioner import RandomPartitioner
from .ring import ConsistentHashRing
from .storage import WalReader, WalWriter
from .topology import Topology

__all__ = [
    "RandomPartitioner",
    "ConsistentHashRing",
    "Topology",
    "GossipMembership",
    "NodeState",
    "WalWriter",
    "WalReader",
    "ClusterNode",
    "Cluster",
]
