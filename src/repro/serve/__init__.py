"""Real service mode: the asyncio dataplane over the same pipeline.

The simulator answers "what would MOVE do at scale"; this package
answers "run it, for real, on this machine".  The same staged
dissemination pipeline (:mod:`repro.core.pipeline`) is driven by a
live event loop instead of virtual time — the split is the
:class:`~repro.sim.engine.Clock` / :class:`~repro.sim.engine.
EventDriver` contract, implemented here by
:class:`AsyncioEventDriver`.

- :mod:`repro.serve.driver` — the asyncio
  :class:`~repro.sim.engine.EventDriver` (loop time + ``call_later``),
- :mod:`repro.serve.wire` — the one binary codec, shared by the
  protocol-v3 frames and every journal record (LEB128 varints,
  length-prefixed strings, reused encode buffers),
- :mod:`repro.serve.journal` — :class:`JournaledSystem`:
  log-before-apply journalling of every mutation onto the
  write-ahead log (:mod:`repro.cluster.storage`), fsynced per
  group-commit window,
  plus :meth:`~JournaledSystem.checkpoint` snapshots and
  tail-only crash recovery — a recovered system is bit-identical to
  a never-crashed twin,
- :mod:`repro.serve.snapshot` — the CRC-framed snapshot files
  checkpointing writes and recovery boots from,
- :mod:`repro.serve.runtime` — :class:`ServiceRuntime`: a bounded
  single-worker queue carrying documents and control commands in one
  total order (micro-batching, WAL commit windows, admission
  control, backpressure, graceful drain),
- :mod:`repro.serve.server` / :mod:`repro.serve.client` — the TCP
  front end (``python -m repro serve``) speaking binary protocol v3
  frames, and its blocking client, with ``repro.obs`` metrics
  exposed in Prometheus text format.
"""

from .client import ServiceClient, ServiceClientError
from .driver import AsyncioEventDriver
from .journal import JournaledSystem
from .runtime import ServeConfig, ServiceRuntime
from .server import ServiceServer
from .wire import BINARY_PROTOCOL_VERSION

__all__ = [
    "AsyncioEventDriver",
    "BINARY_PROTOCOL_VERSION",
    "JournaledSystem",
    "ServeConfig",
    "ServiceRuntime",
    "ServiceServer",
    "ServiceClient",
    "ServiceClientError",
]
