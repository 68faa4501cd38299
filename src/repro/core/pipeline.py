"""The staged dissemination pipeline shared by all four systems.

The paper's central claim (Section III) is that MOVE's allocation
machinery is *semantics- and scheme-agnostic*: routing, matching, and
load accounting follow the same skeleton whether filters live on term
home nodes (IL), on allocated grids (MOVE), on hashed partitions (RS),
or on one machine (Centralized).  This module is that skeleton, run
per batch of documents:

1. **term pruning** — Bloom-filter membership drops terms no filter
   uses (:func:`group_terms_by_home` for the home-node schemes);
2. **route resolution** — which nodes must see the document: ring
   home-node lookup, forwarding-table partition draw, flooded
   partitions, or the one central matcher
   (:meth:`~repro.baselines.base.DisseminationSystem._resolve_routes`);
3. **execution** — per-node posting retrieval and matching, with all
   per-destination work folded into a :class:`WorkAccumulator`
   (:meth:`~repro.baselines.base.DisseminationSystem._execute`);
4. **accounting** — :class:`~repro.baselines.base.NodeTask`
   construction and the Figure 9 load metrics, identical for every
   scheme (:meth:`DisseminationPipeline._disseminate`);
5. **delivery** — once per batch, every document's matched slab slots
   resolve to its filter ids
   (:meth:`~repro.model.slab.FilterSlabStore.resolve_ids`; large match
   sets share one vectorized pass that orders them by the slab's
   order key), followed by the predicate gate and the unreachable
   reconciliation.  Execution works in slot space only: filter-id
   strings are looked up once, at this boundary, and the plan sorts
   them when they are first read.

Memoization lives here, once: :class:`BatchCaches` holds the per-term
route decisions, posting-list retrievals, forwarding-row groupings,
and home-subset annotations that are pure functions of registration +
allocation + membership state.  The pipeline keeps one cache set per
*epoch* — the counter
:meth:`~repro.baselines.base.DisseminationSystem._batch_epoch` moves
on every registration, allocation or membership change — and reuses
it across batches until the epoch moves.  Systems supply only their
route-resolution and matching callbacks; ``publish()`` is literally
``publish_batch([document])[0]``, so batching changes *when* work is
shared, never *what* is computed — plans and RNG consumption are
bit-identical either way, and identical to a twin that drops the
cache before every batch.

**The epoch contract is enforced, not assumed.**  Every mutation of
registration (``subscribe`` / ``unregister``), allocation
(``MoveSystem`` plan applies, home-posting hand-offs on
``rebalance``), or cluster membership (node join/crash/recovery)
bumps the epoch; a batch opens on the cache set of the current epoch
and re-checks the epoch before each document.  A mid-batch mutation —
reachable from the asyncio service runtime (:mod:`repro.serve`), or
from a stage-hook override calling back into the system — raises
:class:`~repro.errors.BatchContractError` instead of silently serving
stale memos.

The pipeline is clock-agnostic: it stamps its traced spans off a
:class:`~repro.sim.engine.Clock` (``perf_counter`` by default), so the
same engine serves the discrete-event harness and the real-time
asyncio runtime unchanged — only *who calls* ``publish_batch`` and
*which clock* it carries differ between the two drivers.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..baselines.base import DisseminationPlan, NodeTask
from ..errors import BatchContractError
from ..model import Document, Filter
from ..model.slab import FilterSlabStore
from ..sim.engine import Clock, PERF_CLOCK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import DisseminationSystem
    from ..matching.inverted_index import InvertedIndex

#: Sentinel distinguishing "never routed" from "pruned by the Bloom
#: filter" in the route memo.
_UNROUTED = object()

#: Memoized posting retrieval: (filters, their slab slots, posting
#: lists touched, posting entries scanned).  ``slots`` is an
#: ``array('q')`` of slots, ascending; ``filters`` is any
#: sequence/iterable of the posting's filters — boolean paths consume
#: only the slots, and the index supplies a lazy sequence that
#: rehydrates ``Filter`` objects from its slab on iteration.
Retrieval = Tuple[Sequence[Filter], Sequence[int], int, int]


class WorkAccumulator:
    """Per-destination accumulated matching work for one document.

    Replaces the ad-hoc ``work: Dict[str, List]`` triples: a node
    serving several routes (e.g. subsets of different home nodes)
    still receives the document payload once, accumulating its posting
    costs and keeping the shortest payload route.  Task order is the
    first-routed order, matching the per-destination iteration of the
    pre-pipeline implementations bit for bit.
    """

    __slots__ = ("_work",)

    def __init__(self) -> None:
        #: node -> [posting_lists, posting_entries, path]
        self._work: Dict[str, List] = {}

    def __len__(self) -> int:
        return len(self._work)

    def add(
        self,
        node_id: str,
        posting_lists: int,
        posting_entries: int,
        path: Tuple[str, ...],
    ) -> None:
        """Fold one route's work into the node's accumulated task."""
        entry = self._work.get(node_id)
        if entry is None:
            self._work[node_id] = [posting_lists, posting_entries, path]
        else:
            entry[0] += posting_lists
            entry[1] += posting_entries
            if len(path) < len(entry[2]):
                entry[2] = path  # keep the shortest payload route
        return None

    def tasks(self) -> List[NodeTask]:
        """Materialize the accumulated work as :class:`NodeTask`s."""
        return [
            NodeTask(
                node_id=node_id,
                path=tuple(path),
                posting_lists=lists,
                posting_entries=entries,
            )
            for node_id, (lists, entries, path) in self._work.items()
        ]


class TracedWorkAccumulator(WorkAccumulator):
    """A :class:`WorkAccumulator` emitting per-node ``execute_node`` spans.

    Execution is single-threaded, so the matching work behind one route
    fold happens between the previous :meth:`add` call (or the stage
    start) and the fold itself; each sub-span covers exactly that
    interval and is tagged with the node and its posting costs.  The
    per-document sub-span set therefore reconciles with the plan: its
    distinct nodes are the task nodes, and its posting costs sum to the
    task totals (the tracing acceptance invariant).
    """

    __slots__ = ("_tracer", "_clock", "_mark")

    def __init__(self, tracer, clock: Clock = PERF_CLOCK) -> None:
        super().__init__()
        self._tracer = tracer
        self._clock = clock
        self._mark = clock.now

    def add(
        self,
        node_id: str,
        posting_lists: int,
        posting_entries: int,
        path: Tuple[str, ...],
    ) -> None:
        WorkAccumulator.add(
            self, node_id, posting_lists, posting_entries, path
        )
        now = self._clock.now
        self._tracer.emit(
            "execute_node",
            self._mark,
            now,
            node=node_id,
            posting_lists=posting_lists,
            posting_entries=posting_entries,
        )
        self._mark = now


class BatchCaches:
    """Epoch-scoped memos for the staged pipeline.

    Everything here except :attr:`doc_scores` is a pure function of
    registration, allocation, and cluster-membership state.  Term-keyed
    maps use the dense shared-interner term id; composite keys are
    scheme-chosen tuples (ints and tuples never collide, so one map
    serves every scheme).

    **Lifetime.**  A cache set lives for one *epoch*, not one batch:
    the owning :class:`DisseminationPipeline` reuses it for every
    batch opened while the system's batch epoch
    (:meth:`~repro.baselines.base.DisseminationSystem._batch_epoch`)
    equals :attr:`epoch`, and replaces it when the epoch moves.
    :attr:`doc_scores` is keyed by ``id(document)`` and therefore
    cleared when each batch closes.  The pipeline compares
    :attr:`epoch` before every document and raises
    :class:`~repro.errors.BatchContractError` on a mid-batch mutation.
    A cache set is never pickled: snapshots carry the state it is
    derived from, and a restored pipeline starts with none.
    ``epoch=None`` (direct construction in tests or tooling) marks a
    set no pipeline owns.
    """

    __slots__ = (
        "epoch",
        "route",
        "retrieval",
        "routing",
        "home_subsets",
        "doc_scores",
    )

    def __init__(self, epoch: Optional[int] = None) -> None:
        #: The owning system's batch epoch this set memoizes (``None``
        #: for a set no pipeline owns).
        self.epoch = epoch
        #: term id -> destination node, or None when pruned (Bloom).
        self.route: Dict[int, Optional[str]] = {}
        #: retrieval key (term id, or a scheme tuple such as
        #: ``(node, origin, term id)``) -> memoized posting retrieval.
        self.retrieval: Dict[Hashable, Retrieval] = {}
        #: routing state memo: MOVE keys it by origin (forwarding-row
        #: groupings per partition), RS by partition index (live
        #: replica lists).
        self.routing: Dict[Hashable, object] = {}
        #: (origin key, term id) -> {grid subset: slots}: a home-index
        #: posting split by each filter's grid subset (MOVE's
        #: home-fallback and lost-subset paths).
        self.home_subsets: Dict[Tuple[str, int], Dict[int, List[int]]] = {}
        #: id(document) -> :class:`repro.matching.kernel.DocumentScores`
        #: (tf–idf weights, norm, suffix masses, per-filter score
        #: memo), shared by every node/partition visit of the batch and
        #: cleared when the batch closes.  Entries hold a strong
        #: reference to their document, so the id key cannot be
        #: recycled while the batch runs; epochs on the entry (IDF
        #: ``documents_seen`` + kernel registration) invalidate it if
        #: statistics or registration change.
        self.doc_scores: Dict[int, object] = {}

    def retrieve(
        self, key: Hashable, index: "InvertedIndex", term: str
    ) -> Retrieval:
        """Perform and memoize one posting-list retrieval.

        Callers check ``caches.retrieval.get(key)`` first (keeping the
        hit path a single dict probe) and call this only on a miss.
        The index builds the entry (``InvertedIndex.retrieve_for_term``)
        so it can hand back the posting's slots with a lazy filter
        sequence in the ``filters`` position — boolean paths never
        touch it, threshold paths rehydrate through the slab's bounded
        cache.
        """
        entry = index.retrieve_for_term(term)
        self.retrieval[key] = entry
        return entry


class ExecutionContext:
    """One document's pass through the pipeline.

    Carries the mutable dissemination state the scheme callbacks fill
    in: the matched and unreachable slab slots, the per-destination
    :class:`WorkAccumulator`, the control-plane message count, and the
    batch caches; the accounting stage adds the document's tasks.

    ``matched`` and ``unreachable`` are lists of slot sequences —
    memoized posting slots appended as they are, duplicates and all.
    When every document of the batch has executed, the pipeline
    resolves their matched slots to filter ids in one call
    (:meth:`~repro.model.slab.FilterSlabStore.resolve_ids`).  That
    happens before ``publish_batch`` returns, so before the system can
    mutate again: a later ``unregister`` + ``subscribe`` can hand a
    freed slot to another filter.

    **Lifetime.**  A context lives for one document within one batch
    — it is constructed by the pipeline's ingest stage and dies with
    the document's plan.  It borrows the pipeline's
    :class:`BatchCaches` (it does not own them) and therefore inherits
    the epoch contract: the registration/allocation/membership state
    the caches memoize must not change while the context is in flight.
    Stage hooks must not retain a context (or its ``caches``) past the
    ``_execute`` call that received it.
    """

    __slots__ = (
        "document",
        "ingest",
        "caches",
        "matched",
        "unreachable",
        "work",
        "routing_messages",
        "tasks",
    )

    def __init__(
        self, document: Document, ingest: str, caches: BatchCaches
    ) -> None:
        self.document = document
        self.ingest = ingest
        self.caches = caches
        self.matched: List[Sequence[int]] = []
        self.unreachable: List[Sequence[int]] = []
        self.work = WorkAccumulator()
        self.routing_messages = 0
        self.tasks: List[NodeTask] = []


def _unreachable_ids(
    slab: FilterSlabStore,
    parts: Sequence[Sequence[int]],
    matched_ids: Tuple[str, ...],
) -> FrozenSet[str]:
    """Ids lost to failures that no live holder delivered."""
    filter_id = slab.filter_id
    lost = {filter_id(slot) for part in parts for slot in part}
    return frozenset(lost.difference(matched_ids))


def group_terms_by_home(
    document: Document,
    caches: BatchCaches,
    bloom,
    home_of: Callable[[str], str],
) -> Dict[str, List[int]]:
    """Stages 1–2 for the home-node schemes (IL and MOVE).

    Bloom-prunes the document's terms and groups the survivors (as
    dense term ids) by their ring home node, memoizing the per-term
    prune + route decision for the cache set's epoch.
    """
    route = caches.route
    grouped: Dict[str, List[int]] = {}
    for term, term_id in zip(document.terms, document.term_ids):
        home = route.get(term_id, _UNROUTED)
        if home is _UNROUTED:
            if bloom is not None and term not in bloom:
                home = None
            else:
                home = home_of(term)
            route[term_id] = home
        if home is None:
            continue
        bucket = grouped.get(home)
        if bucket is None:
            grouped[home] = bucket = []
        bucket.append(term_id)
    return grouped


class DisseminationPipeline:
    """The staged engine driving one system's dissemination.

    Owns the stage sequencing and the scheme-independent stages (the
    epoch-scoped cache set, epoch-contract enforcement, task
    materialization, Figure 9 load accounting); delegates route
    resolution and matching to the system's stage hooks.  The
    per-document hook order — observe, ingest draw, route, execute —
    fixes the RNG consumption order for every scheme.

    ``clock`` is the timebase for the traced path's per-node
    ``execute_node`` marks (``perf_counter`` by default).  Drivers
    that install their own clock — the asyncio service runtime hands
    in its event-loop clock — should give the tracer the same one so
    all span timestamps share a timebase.
    """

    __slots__ = ("system", "clock", "_caches")

    def __init__(
        self,
        system: "DisseminationSystem",
        clock: Optional[Clock] = None,
    ) -> None:
        self.system = system
        self.clock = clock if clock is not None else PERF_CLOCK
        #: The cache set of the current epoch (``None`` until the
        #: first batch, and after unpickling).
        self._caches: Optional[BatchCaches] = None

    def __getstate__(self):
        # The cache set is derived state: leave it out of snapshots.
        # Same ``(None, slots)`` shape as the default slots pickle, so
        # snapshots written before the cache outlived a batch load too.
        return None, {"system": self.system, "clock": self.clock}

    def __setstate__(self, state) -> None:
        _, slots = state
        self.system = slots["system"]
        self.clock = slots["clock"]
        self._caches = None

    def _run_batch(
        self,
        documents: Sequence[Document],
        disseminate: Callable[[Document, BatchCaches], ExecutionContext],
    ) -> List[ExecutionContext]:
        """Open a batch and run ``disseminate`` over its documents.

        The one batch opener of the untraced, predicated and traced
        loops: reuses the cache set while the system's batch epoch is
        unchanged and replaces it when the epoch has moved, exposes it
        to the scoring kernel for the batch (via ``_active_caches`` —
        `_apply_semantics`'s two-argument signature is public API for
        subclassers and cannot carry it), and re-checks the epoch
        before every document and after the last one — the slots the
        contexts hold are resolved to ids only afterwards.  Closing the
        batch drops the per-document score vectors, which key by
        ``id(document)``.
        """
        system = self.system
        epoch = system._batch_epoch()
        caches = self._caches
        if caches is None or caches.epoch != epoch:
            caches = self._caches = BatchCaches(epoch=epoch)
        system._active_caches = caches

        try:
            contexts = []
            for document in documents:
                if caches.epoch != system._batch_epoch():
                    break
                contexts.append(disseminate(document, caches))
            if caches.epoch == system._batch_epoch():
                return contexts
            raise BatchContractError(
                f"{system.name}: registration, allocation, or "
                "cluster membership mutated inside a publish "
                f"batch (epoch {caches.epoch} -> "
                f"{system._batch_epoch()}); mutations must be "
                "serialized between batches — the memos would "
                "otherwise be stale"
            )
        finally:
            caches.doc_scores.clear()
            system._active_caches = None

    def _resolve(
        self, contexts: Sequence[ExecutionContext]
    ) -> List[Tuple[str, ...]]:
        """Every document's matched ids, in one slab call."""
        return self.system.filter_slab.resolve_ids(
            [ctx.matched for ctx in contexts]
        )

    def _plan(
        self, ctx: ExecutionContext, delivered_ids: Tuple[str, ...]
    ) -> DisseminationPlan:
        """The document's plan; unreachable ids that a live holder
        delivered are dropped."""
        unreachable = ctx.unreachable
        return DisseminationPlan(
            document=ctx.document,
            delivered_ids=delivered_ids,
            tasks=ctx.tasks,
            unreachable_filter_ids=(
                _unreachable_ids(
                    self.system.filter_slab, unreachable, delivered_ids
                )
                if unreachable
                else frozenset()
            ),
            routing_messages=ctx.routing_messages,
        )

    def publish_batch(
        self, documents: Sequence[Document]
    ) -> List[DisseminationPlan]:
        """Disseminate ``documents`` in order on the epoch's cache set.

        When the system's tracer is enabled, dissemination runs the
        traced twin (:meth:`_publish_batch_traced`) instead; the two
        paths compute the same plans and consume RNG identically (the
        tracer only reads the clock), so tracing is observationally
        inert.  The ``enabled`` check below (plus one delegating call
        per batch) is the untraced path's entire overhead.
        """
        tracer = getattr(self.system, "tracer", None)
        if tracer is not None and tracer.enabled:
            return self._publish_batch_traced(documents, tracer)
        if getattr(self.system, "has_predicates", False):
            return self._publish_batch_predicated(documents)
        return self._publish_batch_untraced(documents)

    def _publish_batch_untraced(
        self, documents: Sequence[Document]
    ) -> List[DisseminationPlan]:
        """The raw engine loop: ``_disseminate`` per document, then
        one id resolution for the batch.

        Kept as a separate method so the disabled-overhead bench can
        time the identical code object with and without the public
        dispatcher above — their ratio isolates exactly what tracing
        costs when disabled.
        """
        contexts = self._run_batch(documents, self._disseminate)
        return [
            self._plan(ctx, delivered_ids)
            for ctx, delivered_ids in zip(contexts, self._resolve(contexts))
        ]

    def _disseminate(
        self, document: Document, caches: BatchCaches
    ) -> ExecutionContext:
        system = self.system
        system._observe(document)
        ctx = ExecutionContext(document, system._choose_ingest(), caches)
        routes = system._resolve_routes(document, caches)
        system._execute(ctx, routes)
        # -- accounting (stage 4): identical for every scheme ---------
        ctx.tasks = ctx.work.tasks()
        system._account_tasks(ctx.tasks)
        system.metrics.counter("documents_published").add()
        return ctx

    # -- predicated twin -----------------------------------------------------

    def _publish_batch_predicated(
        self, documents: Sequence[Document]
    ) -> List[DisseminationPlan]:
        """The engine loop with the predicate delivery gate.

        Selected once per batch (the dispatcher's ``has_predicates``
        check), so systems holding only flat filters never pay for it:
        :meth:`_publish_batch_untraced` stays byte-identical to the
        pre-predicate pipeline.  Everything up to id resolution —
        cache set, hook order, RNG consumption — is identical; the
        gate only *removes* ids from each delivery list afterwards
        (it consumes no RNG), so flat subscriptions disseminate
        bit-identically on either loop.  It runs before unreachable
        ids are reconciled against the delivered ones, so an id the
        predicate rejects at one node but a failure lost at another
        stays counted as unreachable (the same convention the
        threshold semantics established).
        """
        contexts = self._run_batch(documents, self._disseminate)
        return [
            self._plan(ctx, self._gate(ctx.document, delivered_ids)[0])
            for ctx, delivered_ids in zip(contexts, self._resolve(contexts))
        ]

    def _gate(
        self, document: Document, delivered_ids: Tuple[str, ...]
    ) -> Tuple[Tuple[str, ...], int, int]:
        """The predicate gate plus its per-document counters."""
        system = self.system
        delivered_ids, evaluated, rejected = system._apply_predicate_gate(
            document, delivered_ids
        )
        metrics = system.metrics
        metrics.counter("predicate_evaluated").add(float(evaluated))
        metrics.counter("predicate_rejected").add(float(rejected))
        return delivered_ids, evaluated, rejected

    # -- traced twin ---------------------------------------------------------

    def _publish_batch_traced(
        self, documents: Sequence[Document], tracer
    ) -> List[DisseminationPlan]:
        """The traced mirror of :meth:`publish_batch`.

        One root ``publish_batch`` span per batch, with the per-document
        spans of :meth:`_disseminate_traced` and one ``deliver`` span
        for the batch's id resolution (and predicate gate) under it;
        everything else — cache set, hook order, RNG consumption,
        accounting — is identical to the untraced path, so plans are
        bit-for-bit the same.  Each ``publish`` span is annotated with
        its plan's fanout and candidate/match counts once the plan is
        built.
        """
        system = self.system
        spans: List[Tuple[object, object]] = []
        with tracer.span(
            "publish_batch",
            system=system.name,
            batch_size=len(documents),
        ):
            contexts = self._run_batch(
                documents,
                lambda document, caches: self._disseminate_traced(
                    document, caches, tracer, spans
                ),
            )
            gated = getattr(system, "has_predicates", False)
            plans = []
            with tracer.span("deliver"):
                resolved = self._resolve(contexts)
                for ctx, delivered_ids, (doc_span, exec_span) in zip(
                    contexts, resolved, spans
                ):
                    if gated:
                        delivered_ids, evaluated, rejected = self._gate(
                            ctx.document, delivered_ids
                        )
                        exec_span.annotate(
                            predicate_evaluated=evaluated,
                            predicate_rejected=rejected,
                        )
                    plan = self._plan(ctx, delivered_ids)
                    doc_span.annotate(
                        fanout=plan.fanout,
                        matched=len(plan.delivered_ids),
                        candidate_entries=plan.total_posting_entries,
                        unreachable=len(plan.unreachable_filter_ids),
                    )
                    plans.append(plan)
        return plans

    def _disseminate_traced(
        self,
        document: Document,
        caches: BatchCaches,
        tracer,
        spans: List[Tuple[object, object]],
    ) -> ExecutionContext:
        """One document under the span model of :mod:`repro.obs.tracing`.

        A ``publish`` span wraps the document; each pipeline stage gets
        one child span (``observe`` / ``ingest`` / ``route`` /
        ``execute`` / ``account``); the execution stage's work
        accumulator is swapped for the traced variant, whose folds emit
        the per-node ``execute_node`` sub-spans.  The ``publish`` and
        ``execute`` spans go to ``spans`` for the batch's delivery step
        to annotate.
        """
        system = self.system
        with tracer.span(
            "publish", system=system.name, document_id=document.doc_id
        ) as doc_span:
            with tracer.span("observe"):
                system._observe(document)
            with tracer.span("ingest"):
                ctx = ExecutionContext(
                    document, system._choose_ingest(), caches
                )
            with tracer.span("route"):
                routes = system._resolve_routes(document, caches)
            with tracer.span("execute") as exec_span:
                ctx.work = TracedWorkAccumulator(tracer, self.clock)
                system._execute(ctx, routes)
            with tracer.span("account"):
                ctx.tasks = ctx.work.tasks()
                system._account_tasks(ctx.tasks)
                system.metrics.counter("documents_published").add()
        spans.append((doc_span, exec_span))
        return ctx
