"""A cluster node: liveness + disk-bound service queue.

This is the unit the paper's per-node analysis reasons about.  The
node owns a :class:`~repro.sim.server.FifoServer` modelling its
disk-bound match service.  The MOVE filter store and local inverted
lists of Figure 3 live in the dissemination system's columnar slab and
:class:`~repro.matching.inverted_index.InvertedIndex` instances.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import NodeDownError
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Simulator
from ..sim.server import FifoServer


class ClusterNode:
    """One simulated commodity machine."""

    def __init__(
        self,
        node_id: str,
        sim: Optional[Simulator] = None,
        rack: str = "rack0",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        """``registry`` (usually the owning cluster's) receives the
        disk queue's service/wait histograms and this node's
        crash/recovery counters; ``None`` leaves the node
        uninstrumented."""
        self.node_id = node_id
        self.rack = rack
        self.sim = sim or Simulator()
        self.registry = registry
        self.server = FifoServer(
            self.sim, name=f"{node_id}/disk", registry=registry
        )
        self.alive = True

    def crash(self) -> None:
        """Fail-stop: reject new work, pause the service queue."""
        self.alive = False
        self.server.pause()
        if self.registry is not None:
            self.registry.counter("node_crashes").add()

    def recover(self) -> None:
        """Bring the node back with its durable state intact."""
        self.alive = True
        self.server.resume()
        if self.registry is not None:
            self.registry.counter("node_recoveries").add()

    def require_alive(self, operation: str = "") -> None:
        if not self.alive:
            raise NodeDownError(self.node_id, operation)

    def submit_work(
        self,
        service_time: float,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enqueue a disk-bound job (raises when the node is down)."""
        self.require_alive("submit_work")
        self.server.submit(service_time, on_complete)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"ClusterNode({self.node_id}, rack={self.rack}, {state})"
