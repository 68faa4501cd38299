"""The asyncio service runtime: bounded queues, batching, drain.

:class:`ServiceRuntime` is the live counterpart of the experiment
harness: one dissemination system, one single-worker dataplane.  All
mutations — documents *and* control commands (subscribe, unregister,
reallocate, …) — flow through one bounded :class:`asyncio.Queue`, so
the worker applies them in a total order.  That ordering is what
satisfies the pipeline's batch contract by construction: a command
never lands inside a publish batch, because the worker only forms
batches from contiguous document items.

Flow control has two layers:

- **admission control** — when queue depth reaches
  ``admission_high_watermark × queue_capacity`` new documents are
  shed immediately with :class:`~repro.errors.AdmissionError`
  (clients see the overload instead of silently growing latency);
- **backpressure** — with the watermark at 1.0 (the default
  semantics of a full queue), ``await``-ing producers block in
  ``Queue.put`` until the worker drains.

With a journal, every worker cycle is one WAL group-commit window:
the records of every item drained in that cycle share one fsync, and
no ack is released before it.  A failed fsync fails every ack of its
window with the :class:`~repro.errors.WalError` and stops the runtime
for good: queued work is refused with the same error, never applied.

``drain()`` stops intake, lets every accepted item complete, and
stops the worker — the graceful half of shutdown; the crash half is
the journal's job (:mod:`repro.serve.journal`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..errors import (
    AdmissionError,
    ReproError,
    ServiceDrainingError,
    ServiceError,
    WalError,
)
from ..experiments.harness import build_cluster, make_system
from ..model import Document, Filter
from ..obs.metrics import MetricsRegistry, prometheus_text
from .driver import AsyncioEventDriver
from .journal import JournaledSystem

#: Bucket bounds for the batch-size histogram (documents per batch).
_BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one service runtime.

    ``wal_dir=None`` runs without durability (useful in tests);
    pointing it at a directory journals every mutation and recovers
    on restart.  ``admission_high_watermark`` is the queue-depth
    fraction at which ingest starts shedding; at ``1.0`` shedding is
    disabled entirely and a full queue exerts backpressure (blocking
    producers) instead.
    """

    scheme: str = "move"
    num_nodes: int = 8
    node_capacity: int = 2_000
    seed: int = 0
    threshold: Optional[float] = None
    wal_dir: Optional[str] = None
    segment_max_bytes: int = 1 << 20
    queue_capacity: int = 1_024
    admission_high_watermark: float = 1.0
    batch_max_docs: int = 64
    #: Seconds between periodic allocation refreshes (MOVE's
    #: 10-minute timer); ``None`` disables the timer.
    reallocate_interval: Optional[float] = None
    #: Drift threshold the periodic refresh hands to ``reallocate``;
    #: ``None`` defers to the system's configured epsilon.  Refreshes
    #: never force — a tick below the drift gate is counted as
    #: skipped, not executed.
    drift_epsilon: Optional[float] = None
    #: Seconds between automatic ``checkpoint()`` calls; ``None``
    #: leaves checkpointing to explicit operator commands.
    checkpoint_interval: Optional[float] = None
    #: Snapshot files kept on disk after each checkpoint.
    snapshot_retain: int = 2

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0:
            raise ServiceError(
                f"queue_capacity must be positive, got "
                f"{self.queue_capacity}"
            )
        if self.batch_max_docs <= 0:
            raise ServiceError(
                f"batch_max_docs must be positive, got "
                f"{self.batch_max_docs}"
            )
        if not 0.0 < self.admission_high_watermark <= 1.0:
            raise ServiceError(
                "admission_high_watermark must be in (0, 1], got "
                f"{self.admission_high_watermark}"
            )
        if self.reallocate_interval is not None and (
            self.reallocate_interval <= 0
        ):
            raise ServiceError(
                f"reallocate_interval must be positive, got "
                f"{self.reallocate_interval}"
            )
        if self.drift_epsilon is not None and self.drift_epsilon < 0:
            raise ServiceError(
                f"drift_epsilon must be non-negative, got "
                f"{self.drift_epsilon}"
            )
        if self.checkpoint_interval is not None and (
            self.checkpoint_interval <= 0
        ):
            raise ServiceError(
                f"checkpoint_interval must be positive, got "
                f"{self.checkpoint_interval}"
            )
        if self.snapshot_retain < 1:
            raise ServiceError(
                f"snapshot_retain must be >= 1, got "
                f"{self.snapshot_retain}"
            )


class _Item:
    """One queue entry: a document or a control command."""

    __slots__ = ("kind", "payload", "future")

    def __init__(
        self, kind: str, payload: Any, future: "asyncio.Future"
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.future = future


class ServiceRuntime:
    """Single-worker asyncio dataplane over one dissemination system."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.journal: Optional[JournaledSystem] = None
        if self.config.wal_dir is not None:
            self.journal = JournaledSystem(
                self.config.wal_dir,
                scheme=self.config.scheme,
                num_nodes=self.config.num_nodes,
                node_capacity=self.config.node_capacity,
                seed=self.config.seed,
                threshold=self.config.threshold,
                segment_max_bytes=self.config.segment_max_bytes,
                snapshot_retain=self.config.snapshot_retain,
            )
            self.system = self.journal.system
        else:
            cluster, system_config = build_cluster(
                self.config.num_nodes,
                self.config.node_capacity,
                seed=self.config.seed,
            )
            self.system = make_system(
                self.config.scheme,
                cluster,
                system_config,
                threshold=self.config.threshold,
            )
        #: The mutation surface the worker dispatches to: the journal
        #: when durable, the bare system otherwise (same method names).
        self._backend = (
            self.journal if self.journal is not None else self.system
        )
        #: Runtime-side metrics (queueing, batching, shedding); the
        #: system keeps its own registry, merged at scrape time.
        self.metrics = MetricsRegistry()
        self.driver = AsyncioEventDriver()
        self._queue: Optional["asyncio.Queue[_Item]"] = None
        self._worker: Optional["asyncio.Task"] = None
        self._refresh_handle = None
        self._checkpoint_handle = None
        self._draining = False
        #: Set when a WAL fsync fails; the runtime then refuses all
        #: work with this error.
        self.failure: Optional[WalError] = None

    # -- lifecycle --------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._worker is not None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    async def start(self) -> None:
        """Bind to the running loop and start the worker."""
        if self._worker is not None:
            raise ServiceError("runtime already started")
        loop = asyncio.get_running_loop()
        self.driver = AsyncioEventDriver(loop)
        # One timebase for the dataplane: scheduled work, pipeline
        # stage timings, and tracer spans all read the loop clock.
        self.system._engine.clock = self.driver
        self._queue = asyncio.Queue(maxsize=self.config.queue_capacity)
        self._draining = False
        self._worker = loop.create_task(self._run(), name="serve-worker")
        if self.config.reallocate_interval is not None:
            # Fail at start rather than raising from the timer on
            # every tick forever: only schemes exposing reallocate
            # (MOVE) can run the periodic refresh.
            if not hasattr(self.system, "reallocate"):
                await self.drain()
                raise ServiceError(
                    f"scheme {self.config.scheme!r} does not support "
                    "reallocate; unset reallocate_interval"
                )
            self._arm_refresh()
        if self.config.checkpoint_interval is not None:
            if self.journal is None:
                await self.drain()
                raise ServiceError(
                    "checkpoint_interval requires a journal "
                    "(set wal_dir)"
                )
            self._arm_checkpoint()

    async def drain(self) -> None:
        """Stop intake, finish accepted work, stop the worker."""
        if self._worker is None:
            return
        self._draining = True
        if self._refresh_handle is not None:
            self._refresh_handle.cancel()
            self._refresh_handle = None
        if self._checkpoint_handle is not None:
            self._checkpoint_handle.cancel()
            self._checkpoint_handle = None
        loop = asyncio.get_running_loop()
        stop = _Item("stop", None, loop.create_future())
        await self._queue.put(stop)
        await stop.future
        await self._worker
        self._worker = None
        if self.journal is not None and self.failure is None:
            self.journal.sync()

    async def close(self) -> None:
        """Drain, then release the journal."""
        await self.drain()
        if self.journal is not None:
            self.journal.close()

    # -- producers --------------------------------------------------------

    def _check_intake(self) -> None:
        if self._queue is None:
            raise ServiceError("runtime not started")
        if self.failure is not None:
            raise self.failure
        if self._draining:
            raise ServiceDrainingError(
                "runtime is draining; no new work accepted"
            )

    def _admit(self, count: int) -> None:
        """Shed ``count`` documents above the admission watermark.

        Raises :class:`~repro.errors.AdmissionError` (and counts the
        shed documents) when the queue depth has reached
        ``admission_high_watermark × queue_capacity``; with the
        watermark at 1.0 nothing is shed and a full queue
        backpressures instead.
        """
        high = self.config.admission_high_watermark
        if high >= 1.0:
            return
        watermark = max(1, int(high * self.config.queue_capacity))
        if self._queue.qsize() >= watermark:
            self.metrics.counter("serve.shed").add(float(count))
            raise AdmissionError(
                f"ingest queue at admission watermark "
                f"({self._queue.qsize()}/"
                f"{self.config.queue_capacity})"
            )

    async def ingest(self, document: Document):
        """Queue one document; returns its dissemination plan.

        A batch of one: see :meth:`ingest_batch`.
        """
        return (await self.ingest_batch([document]))[0]

    async def ingest_batch(self, documents: List[Document]) -> List:
        """Queue a batch of documents; returns their plans in order.

        One admission decision covers the whole batch (shed all or
        accept all); acceptance then enqueues per document, so the
        worker's micro-batcher and WAL commit window see the batch as
        contiguous items and backpressure (blocking while the queue is
        full) still applies per slot.
        """
        if not documents:
            return []
        self._check_intake()
        self._admit(len(documents))
        loop = asyncio.get_running_loop()
        futures = []
        for document in documents:
            future = loop.create_future()
            await self._queue.put(_Item("doc", document, future))
            futures.append(future)
        self.metrics.counter("serve.ingested").add(
            float(len(documents))
        )
        return list(await asyncio.gather(*futures))

    async def command(self, op: str, *args: Any):
        """Queue one control command; returns its result.

        Commands share the document queue, so they serialize against
        in-flight batches (never inside one).  Supported ops mirror
        the journal surface: ``subscribe``, ``unregister``,
        ``finalize``, ``seed_frequencies``, ``reallocate``,
        ``checkpoint``.
        """
        self._check_intake()
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Item(op, args, future))
        self.metrics.counter("serve.commands").add()
        return await future

    async def subscribe(self, items: List[Any]) -> List[str]:
        return await self.command("subscribe", items)

    async def unregister(self, filter_id: str) -> Filter:
        return await self.command("unregister", filter_id)

    async def checkpoint(self) -> dict:
        """Checkpoint the journal via the worker (total-order safe)."""
        if self.journal is None:
            raise ServiceError(
                "checkpoint requires a journal (set wal_dir)"
            )
        return await self.command("checkpoint")

    # -- the worker -------------------------------------------------------

    async def _run(self) -> None:
        queue = self._queue
        while True:
            item = await queue.get()
            #: Deferred acks: ``(future, ok, plan-or-exception)``.
            #: Futures resolve only after the commit window closes, so
            #: no producer observes success before its record's fsync.
            ready: List[Tuple["asyncio.Future", bool, Any]] = []
            stop: Optional[_Item] = None
            journal = self.journal if self.failure is None else None
            if journal is not None:
                journal.begin_commit_window()
            # Drain the whole backlog under one durability window.
            # Nothing awaits inside, so the queue cannot refill
            # mid-window: the window is exactly the items queued when
            # the worker woke (bounded by queue_capacity), and they all
            # share a single fsync.
            while item is not None:
                if item.kind == "stop":
                    stop = item
                    break
                if self.failure is not None:
                    # Fail-stop: nothing is applied after a failed
                    # fsync, so nothing can be acked on a retry.
                    ready.append((item.future, False, self.failure))
                    item = self._next_nowait()
                    continue
                if item.kind == "doc":
                    batch, item = self._collect_batch(item)
                    self._publish(batch, ready)
                    if item is None:
                        item = self._next_nowait()
                    continue
                self._execute_command(item, ready)
                item = self._next_nowait()
            if journal is not None:
                try:
                    journal.end_commit_window()
                except WalError as error:
                    self.failure = error
                    ready = [(f, False, error) for f, _, _ in ready]
            for future, ok, value in ready:
                if future.done():
                    continue
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
            if stop is not None:
                stop.future.set_result(None)
                return
            self.metrics.gauge("serve.queue_depth").set(queue.qsize())
            # Yield so producers blocked in put() make progress even
            # under a steady stream of ready items.
            await asyncio.sleep(0)

    def _next_nowait(self) -> Optional[_Item]:
        try:
            return self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None

    def _collect_batch(
        self, first: _Item
    ) -> Tuple[List[_Item], Optional[_Item]]:
        """Opportunistic micro-batch: contiguous queued documents.

        Stops at ``batch_max_docs``, an empty queue, or the first
        non-document item (returned as ``trailing`` so commands keep
        their queue position *between* batches).
        """
        batch = [first]
        trailing: Optional[_Item] = None
        while len(batch) < self.config.batch_max_docs:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt.kind == "doc":
                batch.append(nxt)
            else:
                trailing = nxt
                break
        return batch, trailing

    def _publish(
        self,
        batch: List[_Item],
        ready: List[Tuple["asyncio.Future", bool, Any]],
    ) -> None:
        documents = [item.payload for item in batch]
        self.metrics.counter("serve.batches").add()
        self.metrics.histogram(
            "serve.batch_size", bounds=_BATCH_SIZE_BOUNDS
        ).observe(float(len(documents)))
        try:
            plans = self._backend.publish_batch(documents)
        except Exception as error:  # surface to every waiting producer
            for item in batch:
                ready.append((item.future, False, error))
            return
        for item, plan in zip(batch, plans):
            ready.append((item.future, True, plan))

    def _execute_command(
        self,
        item: _Item,
        ready: List[Tuple["asyncio.Future", bool, Any]],
    ) -> None:
        try:
            method = getattr(self._backend, self._COMMANDS[item.kind])
            result = method(*item.payload)
        except Exception as error:
            ready.append((item.future, False, error))
            return
        ready.append((item.future, True, result))

    _COMMANDS = {
        "subscribe": "subscribe",
        "unregister": "unregister",
        "finalize": "finalize_registration",
        "seed_frequencies": "seed_frequencies",
        "reallocate": "reallocate",
        "checkpoint": "checkpoint",
    }

    # -- periodic refresh -------------------------------------------------

    def _arm_refresh(self) -> None:
        interval = self.config.reallocate_interval
        assert interval is not None

        def fire() -> None:
            if self._draining or self._queue is None:
                return
            task = asyncio.ensure_future(self._refresh())
            task.add_done_callback(lambda _t: None)
            self._arm_refresh()

        self._refresh_handle = self.driver.schedule(interval, fire)

    async def _refresh(self) -> None:
        try:
            # Never force: the periodic timer proposes, the drift gate
            # disposes.  An epsilon of None defers to the system's
            # configured allocation.drift_epsilon.
            report = await self.command(
                "reallocate", False, self.config.drift_epsilon
            )
        except ReproError:
            # A refresh racing a drain (or any backend refusal) is a
            # skipped tick, not a worker-killing failure.
            self.metrics.counter("serve.refresh_errors").add()
            return
        if getattr(report, "skipped", False):
            self.metrics.counter(
                "serve.reallocations_skipped"
            ).add()
        else:
            self.metrics.counter("serve.refreshes").add()

    def _arm_checkpoint(self) -> None:
        interval = self.config.checkpoint_interval
        assert interval is not None

        def fire() -> None:
            if self._draining or self._queue is None:
                return
            task = asyncio.ensure_future(self._checkpoint_tick())
            task.add_done_callback(lambda _t: None)
            self._arm_checkpoint()

        self._checkpoint_handle = self.driver.schedule(interval, fire)

    async def _checkpoint_tick(self) -> None:
        try:
            await self.checkpoint()
        except ReproError:
            self.metrics.counter("serve.checkpoint_errors").add()

    # -- scrape surface ---------------------------------------------------

    def _export_wal_gauges(self) -> None:
        """Copy journal/WAL accounting onto the metrics registry.

        Pulled at scrape time instead of pushed per append: the hot
        path touches plain ints on the writer, and the registry only
        pays when someone looks.
        """
        journal = self.journal
        if journal is None:
            return
        writer = journal.writer
        gauge = self.metrics.gauge
        gauge("serve.wal_fsyncs").set(float(writer.fsyncs))
        per_fsync = (
            writer.records_synced / writer.fsyncs
            if writer.fsyncs
            else 0.0
        )
        gauge("serve.wal_records_per_fsync").set(per_fsync)
        gauge("serve.checkpoints").set(float(journal.checkpoints))
        gauge("serve.checkpoint_seconds").set(
            journal.last_checkpoint_seconds
        )
        gauge("serve.checkpoint_segments_removed").set(
            float(journal.last_checkpoint_segments_removed)
        )
        gauge("serve.recovery_replayed_records").set(
            float(journal.recovery_replayed_records)
        )
        gauge("serve.recovery_seconds").set(journal.recovery_seconds)
        gauge("serve.snapshots_skipped").set(
            float(journal.snapshots_skipped)
        )

    def prometheus_text(self) -> str:
        """System + runtime registries in Prometheus text format."""
        self._export_wal_gauges()
        return prometheus_text(
            self.system.metrics, prefix="repro"
        ) + prometheus_text(self.metrics, prefix="repro")
