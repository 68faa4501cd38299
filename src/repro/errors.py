"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still distinguishing subsystem-specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration object failed validation."""


class ClusterError(ReproError):
    """Base class for cluster-substrate errors."""


class NodeDownError(ClusterError):
    """An operation was routed to a node that is not alive."""

    def __init__(self, node_id: str, operation: str = "") -> None:
        self.node_id = node_id
        self.operation = operation
        detail = f" during {operation}" if operation else ""
        super().__init__(f"node {node_id!r} is down{detail}")


class UnknownNodeError(ClusterError):
    """A node id was referenced that is not part of the cluster."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(f"unknown node {node_id!r}")


class RingEmptyError(ClusterError):
    """A lookup was attempted on a hash ring with no live members."""


class StorageError(ReproError):
    """Base class for durable-state errors: the WAL and snapshots."""


class WalError(StorageError):
    """The write-ahead log was driven incorrectly."""


class WalCorruptionError(WalError):
    """A WAL segment holds an unreadable record outside the torn tail.

    The reader tolerates a truncated or CRC-broken record at the *end
    of the final segment* (a torn write from the crash that the log
    exists to survive); the same damage anywhere else means the log
    files were tampered with or lost data, which replay must not paper
    over.
    """


class AllocationError(ReproError):
    """A filter-allocation plan could not be constructed or is invalid."""


class WorkloadError(ReproError):
    """A workload generator received unsatisfiable parameters."""


class SimulationError(ReproError):
    """The discrete-event engine was driven incorrectly."""


class MatchingError(ReproError):
    """A matching engine was misused (e.g. unregistered filter id)."""


class BatchContractError(ReproError):
    """Registration/allocation/membership mutated inside a batch.

    The staged pipeline memoizes per-term routing and posting
    retrievals for the duration of one ``publish_batch`` call on the
    premise that registration, allocation, and cluster membership are
    frozen while the batch runs.  A mutation that lands mid-batch
    (reachable from the asyncio service runtime, or from a stage-hook
    override calling back into the system) would silently serve stale
    memos; the pipeline detects it per document and raises this
    instead.
    """


class ServiceError(ReproError):
    """Base class for the asyncio service runtime's errors."""


class AdmissionError(ServiceError):
    """The ingest queue refused a document (backpressure shed).

    Raised by non-waiting ingest when the bounded queue is at (or
    above) the admission watermark; the publisher should back off and
    retry, exactly as a loaded HTTP frontend would answer 429.
    """


class ServiceDrainingError(ServiceError):
    """An operation arrived after the runtime began draining."""


class ProtocolError(ServiceError):
    """A wire frame or binary record could not be decoded.

    Covers both directions: a server rejecting a malformed, truncated,
    or oversized binary frame (the connection answers with a typed
    error and survives), and a client rejecting a response it cannot
    parse.  Also raised by the journal's binary record codec when a
    record's bytes don't decode.
    """


class SnapshotError(StorageError):
    """A checkpoint snapshot file is unreadable or failed validation.

    Recovery treats this as "that snapshot does not exist" and falls
    back to the next-older snapshot (or full WAL replay); the journal
    only raises it to a caller when *no* usable snapshot remains and
    the WAL alone cannot reconstruct state.
    """
