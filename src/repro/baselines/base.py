"""Shared protocol for all four dissemination systems.

Every system (IL, RS, MOVE, Centralized) answers the same two
questions for a published document:

1. *logical* — which registered filters match (must equal the brute-
   force oracle; the completeness invariant), and
2. *physical* — which nodes do how much disk and network work
   (the per-node tasks the discrete-event harness schedules and the
   Figure 9 load metrics aggregate).

:meth:`DisseminationSystem.publish` returns both as a
:class:`DisseminationPlan`.

Dissemination itself runs through the staged engine in
:mod:`repro.core.pipeline`; a concrete system supplies the engine's
stage hooks (:meth:`~DisseminationSystem._choose_ingest`,
:meth:`~DisseminationSystem._resolve_routes`,
:meth:`~DisseminationSystem._execute`, plus the optional
:meth:`~DisseminationSystem._observe`) instead of overriding
:meth:`~DisseminationSystem.publish` directly.  The schemes differ
only in routing: every node they visit runs the same matching step,
:meth:`~DisseminationSystem._match_node`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import (
    Callable,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from types import MappingProxyType
from typing import Mapping, MutableMapping

from ..config import SystemConfig
from ..matching.inverted_index import InvertedIndex
from ..model import Document, Filter, Subscription
from ..model.query import QueryNode
from ..model.slab import FilterSlabStore, SlabRegistry
from ..obs import MetricsRegistry, SystemStats, get_default_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import BatchCaches, ExecutionContext


@dataclass(frozen=True)
class NodeTask:
    """Work one node performs for one document.

    ``path`` is the hop sequence the document payload travels (ingest
    node first, executing node last); the harness charges link latency
    per hop and the payload transfer cost once per delivery.
    ``posting_lists``/``posting_entries`` parameterize the disk-bound
    service time via the cost model.
    """

    node_id: str
    path: Tuple[str, ...]
    posting_lists: int
    posting_entries: int

    def __post_init__(self) -> None:
        if not self.path or self.path[-1] != self.node_id:
            raise ValueError(
                f"task path must end at the executing node {self.node_id!r}"
            )
        if self.posting_lists < 0 or self.posting_entries < 0:
            raise ValueError("task costs must be non-negative")


@dataclass(eq=False)
class DisseminationPlan:
    """Outcome of publishing one document.

    The pipeline resolves the matched slab slots to filter ids before
    ``publish_batch`` returns, into :attr:`delivered_ids` (each id
    once, in resolution order).  Readers take them sorted from
    :attr:`matched_ids` or as a set from :attr:`matched_filter_ids`;
    both are built on first use, so the final sort runs where the
    delivery list is read — in the server, after the commit window's
    fsync — not while the batch holds the worker.
    """

    document: Document
    #: The matched filter ids, each once, in resolution order: sorted
    #: by the slab's order key for large match sets (ties beyond the
    #: key unordered), in no particular order for small ones.
    delivered_ids: Tuple[str, ...]
    tasks: List[NodeTask] = field(default_factory=list)
    #: Filter ids that *should* have matched but were unreachable due
    #: to node failures (the Figure 9(d) availability loss).
    unreachable_filter_ids: FrozenSet[str] = frozenset()
    #: Control-plane routing messages (bloom-pruned forwarding).
    routing_messages: int = 0
    _sorted: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False
    )
    _set: Optional[FrozenSet[str]] = field(
        default=None, init=False, repr=False
    )

    @property
    def matched_ids(self) -> Tuple[str, ...]:
        """The matched filter ids in ``sorted()`` order.

        Timsort needs about ``n`` comparisons when the resolution
        order is already key-sorted.
        """
        if self._sorted is None:
            self._sorted = tuple(sorted(self.delivered_ids))
        return self._sorted

    @property
    def matched_filter_ids(self) -> FrozenSet[str]:
        """The matched filter ids as a set."""
        if self._set is None:
            self._set = frozenset(self.delivered_ids)
        return self._set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DisseminationPlan):
            return NotImplemented
        return (
            self.document == other.document
            and self.matched_filter_ids == other.matched_filter_ids
            and self.tasks == other.tasks
            and self.unreachable_filter_ids == other.unreachable_filter_ids
            and self.routing_messages == other.routing_messages
        )

    @property
    def fanout(self) -> int:
        """Distinct nodes that performed matching work."""
        return len({task.node_id for task in self.tasks})

    @property
    def total_posting_entries(self) -> int:
        return sum(task.posting_entries for task in self.tasks)


class DisseminationSystem(ABC):
    """Common lifecycle: register filters → finalize → publish docs.

    ``threshold`` switches all three systems from the paper's boolean
    any-term semantics to the similarity-threshold extension (Section
    III-A, following SIFT/STAIRS): a candidate filter sharing a term
    with the document is delivered only when its VSM cosine similarity
    reaches the threshold.  Candidate *routing* is unchanged — shared
    terms still decide which nodes see the document — so the allocation
    machinery is semantics-agnostic, exactly as the paper argues.
    """

    #: Short scheme label used in experiment tables ("Move", "IL", "RS").
    name: str = "abstract"

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        threshold: Optional[float] = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.metrics = MetricsRegistry()
        #: Bumped on every registration/allocation mutation; combined
        #: with the cluster's membership epoch it forms the *batch
        #: epoch* (:meth:`_batch_epoch`) that scopes the pipeline's
        #: memos.
        self._mutation_epoch = 0
        #: The tracer dissemination reports to.  Defaults to the
        #: module default (the disabled no-op singleton unless
        #: :func:`repro.obs.set_default_tracer` installed one); assign
        #: a :class:`repro.obs.Tracer` any time to start tracing.
        self.tracer = get_default_tracer()
        #: Columnar filter storage: one shared
        #: :class:`~repro.model.slab.FilterSlabStore` holds every
        #: registered filter's interned term-ids (and the raw query
        #: text of predicated subscriptions), the registry below is a
        #: lazy view over it, and the scheme's indexes store its slots
        #: in their postings.
        self.filter_slab = FilterSlabStore()
        self._registered: MutableMapping[str, Filter] = SlabRegistry(
            self.filter_slab
        )
        #: How many registered subscriptions carry a delivery-time
        #: predicate; ``0`` keeps every batch on the anchor-only fast
        #: path, bit-identical to the pre-predicate pipeline.
        self._predicate_count = 0
        #: Monotonic sequence for auto-assigned subscription ids
        #: (bare query-text items passed to :meth:`subscribe`).
        self._subscription_seq = 0
        if threshold is not None and not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        self.threshold = threshold
        #: The semantics seam: ``None`` delivers every term-sharing
        #: candidate (boolean any-term); under a threshold,
        #: :meth:`_match_node` asks this
        #: :class:`~repro.matching.kernel.ScoreKernel` which to deliver.
        if threshold is not None:
            from ..matching.kernel import ScoreKernel
            from ..matching.vsm import VsmScorer

            self._scorer = VsmScorer()
            self._kernel = ScoreKernel(self._scorer, threshold)
        else:
            self._scorer = None
            self._kernel = None
        # Deferred import: the pipeline module imports this one for
        # the plan/task types, so it cannot be imported at module
        # scope without a cycle.
        from ..core.pipeline import DisseminationPipeline

        self._engine = DisseminationPipeline(self)

    def _make_index(self) -> InvertedIndex:
        """One local inverted index over the system's shared slab.

        Every scheme constructs its per-node/home/subset indexes
        through this hook.
        """
        return InvertedIndex(self.filter_slab)

    # -- batch contract ------------------------------------------------------

    def _batch_epoch(self) -> int:
        """Epoch pinning the state the pipeline's memos depend on.

        The sum of this system's mutation epoch (registration,
        allocation and home-posting hand-off changes) and the
        cluster's membership epoch (node joins, crashes, recoveries);
        both only ever increase, so any mutation changes the sum.  The
        pipeline keeps its cache set while the epoch holds and replaces
        it when the epoch moves; it also re-checks the epoch before
        every document, raising :class:`~repro.errors.
        BatchContractError` on a mid-batch move.  Every method that
        mutates index, routing or allocation state must therefore bump
        ``_mutation_epoch`` (or go through one that does).
        """
        cluster = getattr(self, "cluster", None)
        if cluster is None:
            return self._mutation_epoch
        return self._mutation_epoch + cluster.membership_epoch

    # -- registration ------------------------------------------------------

    @abstractmethod
    def _register(self, profile: Filter) -> None:
        """Scheme-specific placement of one filter."""

    def _term_popularity(self, term: str) -> float:
        """How many registered filters carry ``term`` (anchor choice).

        Schemes that track term statistics (MOVE's
        :class:`~repro.stats.TermStatistics`) answer from the live
        popularity tracker, so a conjunctive subscription homes at its
        *rarest* candidate anchor set; schemes without statistics
        return 0 and the choice degrades to the deterministic
        smallest/lexicographic rule.
        """
        stats = getattr(self, "term_stats", None)
        if stats is None:
            return 0.0
        return float(stats.popularity.count(term))

    def _next_subscription_id(self, pending: Set[str]) -> str:
        """Deterministic auto id for a bare query-text item.

        Skips ids already registered *and* ids earlier items of the
        in-flight chunk claimed (``pending``), so a bare-text item
        never collides with an explicit id in the same call.
        """
        while True:
            self._subscription_seq += 1
            candidate = f"q{self._subscription_seq}"
            if candidate not in self._registered and candidate not in pending:
                return candidate

    def _coerce_subscription(
        self,
        item: Union[Filter, str, Tuple[str, ...]],
        pending: Set[str],
    ) -> Filter:
        """Normalize one :meth:`subscribe` item to a profile object.

        ``Filter``/``Subscription`` objects pass through unchanged
        (their anchors were fixed at construction); a query string or
        an ``(id, query[, owner])`` tuple is parsed and homed at its
        rarest anchor candidate against the live popularity
        statistics.  Raises :class:`~repro.model.QueryError` here — at
        the API boundary — when a query cannot be routed.
        """
        if isinstance(item, Filter):
            return item
        if isinstance(item, str):
            return Subscription.from_query(
                self._next_subscription_id(pending),
                item,
                popularity=self._term_popularity,
            )
        if isinstance(item, tuple) and len(item) in (2, 3):
            owner = item[2] if len(item) == 3 else ""
            return Subscription.from_query(
                item[0],
                item[1],
                owner=owner,
                popularity=self._term_popularity,
            )
        raise TypeError(
            "subscribe() items must be Filter/Subscription objects, "
            "query strings, or (id, query[, owner]) tuples; "
            f"got {item!r}"
        )

    def subscribe(
        self,
        items: Union[Filter, str, Iterable[Union[Filter, str, Tuple[str, ...]]]],
        *,
        chunk_size: Optional[int] = None,
    ) -> List[str]:
        """Register subscriptions; **the** registration entrypoint.

        Accepts any mix of flat :class:`~repro.model.Filter` profiles,
        first-class :class:`~repro.model.Subscription` objects, raw
        query strings (``"storm AND (flood OR surge) NOT sports"`` —
        ids are auto-assigned ``q1, q2, …``), and ``(id, query[,
        owner])`` tuples; a single item may be passed bare.  Returns
        the registered ids in input order.

        Query items are parsed up front and homed at their **rarest
        anchor term** (live popularity statistics where the scheme
        tracks them); the full predicate is evaluated at the delivery
        boundary, so routing, allocation, and Bloom pruning see only
        the anchors.  An unroutable query (``NOT sports``) raises
        :class:`~repro.model.QueryError` before anything registers.

        Validation is all-or-nothing per chunk: a duplicate id
        anywhere in a chunk (against the registry or within the chunk)
        raises without registering any of that chunk.  ``chunk_size``
        bounds peak memory when ``items`` is a large stream — each
        chunk is admitted as one bulk operation.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if isinstance(items, (Filter, str)):
            items = [items]
        registered: List[str] = []
        iterator = iter(items)
        while True:
            if chunk_size is None:
                raw_chunk = list(iterator)
            else:
                raw_chunk = list(islice(iterator, chunk_size))
            if not raw_chunk:
                break
            pending: Set[str] = set()
            chunk: List[Filter] = []
            for item in raw_chunk:
                profile = self._coerce_subscription(item, pending)
                pending.add(profile.filter_id)
                chunk.append(profile)
            self._admit_batch(chunk)
            registered.extend(profile.filter_id for profile in chunk)
            if chunk_size is None:
                break
        return registered

    def subscriptions(self) -> Mapping[str, Filter]:
        """Read-only view of every registered subscription by id.

        Flat registrations appear as :class:`~repro.model.Filter`,
        predicated ones as :class:`~repro.model.Subscription` (whose
        ``query`` carries the original text).  The view is a lazy
        read-only proxy that rehydrates one profile at a time through
        the slab's bounded cache.
        """
        return MappingProxyType(self._registered)

    def _record_predicates(self, batch: Sequence[Filter]) -> None:
        """Post-admission predicate bookkeeping for ``batch``."""
        for profile in batch:
            if (
                isinstance(profile, Subscription)
                and profile.predicate is not None
            ):
                self._predicate_count += 1

    def _register_batch(self, profiles: Sequence[Filter]) -> None:
        """Scheme-specific bulk placement.

        The default is the per-filter loop; schemes whose placement
        funnels into an :class:`~repro.matching.inverted_index.
        InvertedIndex` override it to buffer per destination and load
        postings through ``add_filters`` (one sort per posting list
        instead of one insert per filter).  An override must leave the
        system in exactly the state the per-filter loop would.
        """
        for profile in profiles:
            self._register(profile)

    def _admit_batch(self, batch: Sequence[Filter]) -> None:
        """Register many profiles as one bulk operation.

        Equivalent to admitting the profiles one at a time — same
        final placement, stores, metrics, and duplicate-id rejection —
        but lets the scheme amortize posting-list maintenance across
        the batch.  Validation is all-or-nothing *before* placement: a
        duplicate anywhere in the batch (against the registry or
        within the batch itself) raises without registering any of it.
        """
        seen: Set[str] = set()
        for profile in batch:
            if profile.filter_id in self._registered or (
                profile.filter_id in seen
            ):
                raise ValueError(
                    f"filter {profile.filter_id!r} is already registered"
                )
            seen.add(profile.filter_id)
        self._register_batch(batch)
        if batch:
            self._mutation_epoch += 1
        for profile in batch:
            self._registered[profile.filter_id] = profile
        if self._kernel is not None:
            for profile in batch:
                self._kernel.register_filter(profile)
        self._record_predicates(batch)
        if batch:
            self.metrics.counter("filters_registered").add(
                float(len(batch))
            )

    def _unregister(self, profile: Filter) -> None:
        """Scheme-specific removal of one filter.

        Default raises; schemes that support subscription churn
        override it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support unregistration"
        )

    def unregister(self, filter_id: str) -> Filter:
        """Remove a registered filter; returns the removed profile.

        The registry entry is dropped only after the scheme-specific
        removal succeeds: a scheme that raises (e.g. one that does not
        support churn) leaves the filter registered, keeping the
        registry consistent with the placement structures that still
        hold it.
        """
        profile = self._registered.get(filter_id)
        if profile is None:
            raise KeyError(f"unknown filter {filter_id!r}")
        self._unregister(profile)
        if (
            isinstance(profile, Subscription)
            and profile.predicate is not None
        ):
            self._predicate_count -= 1
        del self._registered[filter_id]
        self._mutation_epoch += 1
        if self._kernel is not None:
            self._kernel.unregister_filter(filter_id)
        self.metrics.counter("filters_unregistered").add()
        return profile

    def finalize_registration(self) -> None:
        """Hook run after bulk registration (MOVE allocates here)."""

    # -- predicate delivery gate --------------------------------------------

    @property
    def has_predicates(self) -> bool:
        """True when any registered subscription carries a predicate.

        Checked once per batch by the pipeline: ``False`` keeps the
        whole batch on the anchor-only fast path, byte-identical to
        the flat-filter pipeline.
        """
        return self._predicate_count > 0

    def _predicate_of(self, filter_id: str) -> Optional[QueryNode]:
        """The parsed predicate of ``filter_id``, or None if flat.

        The slab parses the stored raw query text lazily and memoizes
        the tree per slot.
        """
        return self.filter_slab.predicate_by_id(filter_id)

    def _apply_predicate_gate(
        self, document: Document, delivered_ids: Tuple[str, ...]
    ) -> Tuple[Tuple[str, ...], int, int]:
        """Drop matched ids whose predicate rejects ``document``.

        The delivery-boundary evaluation: anchors got the document
        here (routing is predicate-blind), the full boolean tree
        decides delivery.  Takes the document's resolved ids, consumes
        no RNG, and returns ``(kept ids in the same order, evaluated,
        rejected)`` — the counts feed the per-batch metrics.  Ids
        rejected here are *not* moved to the unreachable set — same
        convention as the threshold semantics, where a candidate
        failing the score test is simply not a match.
        """
        doc_terms = document.terms
        evaluated = 0
        kept: List[str] = []
        for filter_id in delivered_ids:
            predicate = self._predicate_of(filter_id)
            if predicate is not None:
                evaluated += 1
                if not predicate.matches(doc_terms):
                    continue
            kept.append(filter_id)
        rejected = len(delivered_ids) - len(kept)
        if rejected:
            delivered_ids = tuple(kept)
        return delivered_ids, evaluated, rejected

    @property
    def total_filters(self) -> int:
        return len(self._registered)

    # -- stats snapshot ------------------------------------------------------

    def _build_stats(self) -> SystemStats:
        """Snapshot the registry (the implementation behind ``stats``)."""
        return SystemStats.from_registry(
            self.name, self.metrics, len(self._registered)
        )

    def stats(self) -> SystemStats:
        """Uniform typed metrics snapshot, same shape on all schemes.

        Replaces ad-hoc probing of ``system.metrics``: the returned
        :class:`~repro.obs.SystemStats` carries the cross-scheme
        totals (documents published/received, posting entries, filter
        counts, nodes touched) plus full counter / load-total maps for
        scheme-specific extras.
        """
        return self._build_stats()

    # -- pipeline stage hooks ------------------------------------------------

    def _observe(self, document: Document) -> None:
        """Pre-dissemination statistics hook (MOVE feeds ``q_i`` here).

        Runs before the ingest draw so the observation order matches
        the seed implementations exactly.  Default: no-op.
        """

    def _choose_ingest(self) -> str:
        """Draw the ingest node for one document (consumes RNG)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _choose_ingest"
        )

    def _resolve_routes(
        self, document: Document, caches: "BatchCaches"
    ) -> object:
        """Stages 1–2: prune terms and resolve destinations.

        Returns the scheme's routing state for one document — e.g. a
        ``{home node: [term ids]}`` grouping for the home-node schemes
        (see :func:`repro.core.pipeline.group_terms_by_home`) — which
        the pipeline passes on to :meth:`_execute` untouched.  Pure
        modulo the batch caches: must not consume RNG.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _resolve_routes"
        )

    def _execute(self, ctx: "ExecutionContext", routes: object) -> None:
        """Stage 3: routing to the nodes that match the document.

        Decides which nodes and indexes to visit and runs
        :meth:`_match_node` on each live one (or
        :meth:`_unreachable_at` for a dead one's share), and sets
        ``ctx.routing_messages``.  Any per-document RNG (partition
        draws, failure fallbacks) is consumed here, after the ingest
        draw, in the same order as the seed implementations.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _execute"
        )

    def _match_node(
        self,
        ctx: "ExecutionContext",
        node_id: str,
        index: InvertedIndex,
        term_ids: Sequence[int],
        path: Tuple[str, ...],
        *,
        all_terms: bool = False,
        served: Optional[Callable[[int], List[Sequence[int]]]] = None,
    ) -> None:
        """One node's matching step, the same for every scheme.

        Retrieves the posting lists of ``term_ids`` from the node's
        ``index`` (memoized per epoch in ``ctx.caches``), appends the
        slots the active semantics deliver to ``ctx.matched``, and
        folds the lists and entries scanned into ``ctx.work`` under
        the payload route ``path``.

        ``all_terms`` states the index contract.  The RS and
        Centralized indexes hold each filter under all of its terms,
        so threshold semantics score them in one accumulation pass
        (``ScoreKernel.match_slots``); the IL and MOVE home and subset
        indexes hold single-term postings, so each candidate's full
        cosine comes from the cached document vector
        (``ScoreKernel.select``).  ``served`` maps a term id to the
        runs of its posting the node delivers (MOVE's home fallback
        serves only the subsets that fell back to it); the node still
        scans the whole posting.
        """
        kernel = self._kernel
        if all_terms and kernel is not None:
            slots, lists, entries = kernel.match_slots(
                ctx.document, index, ctx.caches
            )
            ctx.matched.append(slots)
        else:
            # Boolean any-term delivers every candidate: the runs go
            # straight to ``ctx.matched``.
            runs = ctx.matched if kernel is None else []
            memo = ctx.caches.postings_of(index)
            lists = entries = 0
            for term_id in term_ids:
                slots, n_lists, n_entries = memo[term_id]
                lists += n_lists
                entries += n_entries
                if served is None:
                    runs.append(slots)
                else:
                    runs.extend(served(term_id))
            if kernel is not None:
                slab = self.filter_slab
                slot_of = slab.slot_of
                selected = kernel.select(
                    ctx.document, map(slab.get, chain(*runs)), ctx.caches
                )
                ctx.matched.append(
                    [slot_of(profile.filter_id) for profile in selected]
                )
        ctx.work.add(node_id, lists, entries, path)

    def _unreachable_at(
        self,
        ctx: "ExecutionContext",
        index: InvertedIndex,
        term_ids: Sequence[int],
    ) -> None:
        """A dead node's share: its postings of ``term_ids``, appended
        to ``ctx.unreachable``."""
        memo = ctx.caches.postings_of(index)
        ctx.unreachable.extend(memo[term_id][0] for term_id in term_ids)

    # -- publication --------------------------------------------------------

    def publish(self, document: Document) -> DisseminationPlan:
        """Match ``document`` against all registered filters.

        Literally a singleton batch: per-document and batched
        publishing share one implementation (and the epoch's cache
        set) and cannot drift apart.
        """
        return self.publish_batch([document])[0]

    def publish_all(
        self, documents: Iterable[Document]
    ) -> List[DisseminationPlan]:
        return [self.publish(document) for document in documents]

    def publish_batch(
        self, documents: Sequence[Document]
    ) -> List[DisseminationPlan]:
        """Publish ``documents`` as one batch, in order.

        Runs the staged pipeline (:mod:`repro.core.pipeline`) on the
        cache set of the current epoch, memoizing per-term routing and
        retrieval work until registration, allocation or membership
        changes.  Batching is observationally inert:
        plans are bit-identical to the per-document loop under the
        same seed — equal matched sets, tasks, costs, and RNG
        consumption.  Registration, allocation, and cluster
        membership must not change mid-batch: the pipeline pins the
        batch epoch and raises
        :class:`~repro.errors.BatchContractError` if they do.

        Subclasses customize dissemination through the stage hooks
        (``_choose_ingest`` / ``_resolve_routes`` / ``_execute``); an
        override of :meth:`publish` is *not* consulted here (the
        pre-pipeline publish-override shim has been removed).
        """
        return self._engine.publish_batch(documents)

    # -- shared accounting ---------------------------------------------------

    def _account_tasks(self, tasks: Sequence[NodeTask]) -> None:
        """Fold a plan's tasks into the Figure 9 load metrics."""
        received = self.metrics.load("documents_received")
        entries = self.metrics.load("posting_entries")
        for task in tasks:
            received.add(task.node_id, 1.0)
            entries.add(task.node_id, float(task.posting_entries))
