"""The MOVE dissemination system (Sections IV–V).

MOVE is the IL baseline *plus* adaptive filter allocation:

1. **Registration** is identical to IL — a filter is stored on the home
   node of each of its terms, indexed under that term only (the
   distributed inverted list).
2. **Allocation** (``finalize_registration`` / ``reallocate``): the
   coordinator aggregates per-node statistics, computes ``n_i`` by the
   configured sqrt rule under the ``N * C`` storage budget, picks
   allocated nodes (hybrid ring/rack placement), and materializes
   grids: home-node filters are separated into subsets and replicated
   across partitions; each allocated node receives its subset's filters
   indexed under the origin home node's terms.
3. **Dissemination**: a document is routed (bloom-pruned) to the home
   nodes of its terms; a home node *with* a forwarding table picks a
   random partition and forwards the document in parallel to all nodes
   of that partition, which match against their (small) subsets; a home
   node *without* a table matches locally exactly as IL does.

Failures: subsets fall back to live copies in other partitions, then to
the home node itself (which retains the full filter set per Section V);
filters with no live holder are recorded as unreachable.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from ..cluster.cluster import Cluster
from ..config import SystemConfig
from ..matching.bloom import BloomFilter
from ..matching.inverted_index import InvertedIndex
from ..model import Document, Filter
from ..stats.term_stats import TermStatistics
from .coordinator import AllocationPlan, Coordinator
from .reallocation import (
    KEY_DELTA,
    KEY_DROPPED,
    KEY_NEW,
    KEY_RESIZED,
    KEY_UNCHANGED,
    ReallocationReport,
    ReplicaMove,
    diff_plans,
)
from .pipeline import (
    BatchCaches,
    ExecutionContext,
    Retrieval,
    group_terms_by_home,
)
from .placement import PlacementSelector
from ..baselines.base import DisseminationSystem
from ..text.interning import DEFAULT_INTERNER


class MoveSystem(DisseminationSystem):
    """The paper's proposed scheme."""

    name = "Move"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[SystemConfig] = None,
        threshold: Optional[float] = None,
    ) -> None:
        super().__init__(config, threshold=threshold)
        self.cluster = cluster
        #: Term popularity/frequency trackers (formerly ``self.stats``;
        #: renamed so ``stats()`` could become the uniform snapshot
        #: accessor shared by all four systems).
        self.term_stats = TermStatistics()
        #: Home-node indexes (the distributed inverted list), as in IL.
        self._home_indexes: Dict[str, InvertedIndex] = {
            node_id: self._make_index() for node_id in cluster.node_ids()
        }
        #: Allocated-subset indexes: receiving node -> origin home node
        #: -> index of the subset filters (indexed under origin terms).
        self._allocated_indexes: Dict[str, Dict[str, InvertedIndex]] = (
            defaultdict(dict)
        )
        self._bloom = (
            BloomFilter(
                self.config.expected_filter_terms,
                self.config.bloom_fp_rate,
            )
            if self.config.use_bloom_filter
            else None
        )
        placement = PlacementSelector(
            cluster.ring,
            cluster.topology,
            mode=self.config.allocation.placement,
        )
        self.coordinator = Coordinator(
            placement,
            config=self.config.allocation,
            cost_model=self.config.cost_model,
            seed=(self.config.seed or 0) + 0x40,
        )
        self.plan: Optional[AllocationPlan] = None
        self._rng = random.Random((self.config.seed or 0) + 0x41)
        #: Per-key registration epochs, bumped whenever a filter is
        #: registered or unregistered under the key (a home-node id,
        #: or a term in the per-term ablation mode).
        #: ``_applied_epochs`` snapshots them at every plan apply; a
        #: mismatch marks the key as churned (*delta*) for the plan
        #: differ.
        self._key_epochs: Dict[str, int] = {}
        self._applied_epochs: Dict[str, int] = {}
        #: Replica copies the write-through maintenance added/removed
        #: per key since the last apply — the delta keys' movement
        #: accounting (the physical copies already happened at
        #: registration/unregistration time).
        self._writethrough_adds: Dict[str, int] = {}
        self._writethrough_drops: Dict[str, int] = {}
        #: Filters registered/unregistered since the last apply, for
        #: the churn component of :meth:`estimate_drift`.
        self._filter_churn_since_apply = 0
        #: Report of the most recent :meth:`reallocate` call.
        self.last_reallocation: Optional[ReallocationReport] = None

    # -- registration (identical to IL) ---------------------------------

    def home_of(self, term: str) -> str:
        return self.cluster.ring.home_node(term)

    def home_index(self, node_id: str) -> InvertedIndex:
        """The home index of ``node_id``, created empty on first use.

        A node that joined the ring owns terms before :meth:`rebalance`
        hands their postings over; until then its home index is empty
        (as IL's ``index_of`` treats it), not missing.
        """
        index = self._home_indexes.get(node_id)
        if index is None:
            index = self._home_indexes[node_id] = self._make_index()
        return index

    def _register(self, profile: Filter) -> None:
        self.term_stats.register_filter(profile)
        self._filter_churn_since_apply += 1
        storage_load = self.metrics.load("storage_replicas")
        aggregate = self.config.allocation.aggregate_per_node
        key_epochs = self._key_epochs
        for term in profile.terms:
            node_id = self.home_of(term)
            key = node_id if aggregate else term
            key_epochs[key] = key_epochs.get(key, 0) + 1
            self.home_index(node_id).add_filter(
                profile, indexed_terms=[term]
            )
            storage_load.add(node_id, 1.0)
            if self._bloom is not None:
                self._bloom.add(term)
            self._write_through_allocation(profile, node_id, term)

    def _register_batch(self, profiles) -> None:
        """Bulk registration: identical placement to the per-filter
        loop (same stats, bloom and load updates, in the
        same order), with each home index loaded through
        ``add_filters`` — one sort per posting list instead of one
        insert per filter replica."""
        storage_load = self.metrics.load("storage_replicas")
        bloom = self._bloom
        aggregate = self.config.allocation.aggregate_per_node
        key_epochs = self._key_epochs
        buffers: Dict[str, List[Tuple[Filter, List[str]]]] = {}
        for profile in profiles:
            self.term_stats.register_filter(profile)
            self._filter_churn_since_apply += 1
            for term in profile.terms:
                node_id = self.home_of(term)
                key = node_id if aggregate else term
                key_epochs[key] = key_epochs.get(key, 0) + 1
                buffers.setdefault(node_id, []).append(
                    (profile, [term])
                )
                storage_load.add(node_id, 1.0)
                if bloom is not None:
                    bloom.add(term)
                self._write_through_allocation(profile, node_id, term)
        for node_id, buffered in buffers.items():
            self.home_index(node_id).add_filters(buffered)

    def _write_through_allocation(
        self, profile: Filter, home_id: str, term: str
    ) -> None:
        """Keep live grids complete for filters registered after an
        allocation: the home node writes the new filter to every holder
        of its subset, so documents routed to the grid (instead of the
        home) still find it before the next reallocation."""
        if self.plan is None:
            return
        origin_key = (
            home_id
            if self.config.allocation.aggregate_per_node
            else term
        )
        table = self.plan.tables.get(origin_key)
        if table is None:
            return
        subset = table.grid.subset_of(profile.filter_id)
        holders = table.grid.subset_holders()[subset]
        self._writethrough_adds[origin_key] = (
            self._writethrough_adds.get(origin_key, 0) + len(holders)
        )
        for holder in holders:
            per_origin = self._allocated_indexes[holder]
            index = per_origin.get(origin_key)
            if index is None:
                index = self._make_index()
                per_origin[origin_key] = index
            index.add_filter(profile, indexed_terms=[term])

    def _unregister(self, profile: Filter) -> None:
        """Remove the filter from home indexes and live grid copies.

        Every home index is searched, not only each term's current
        home: between a ring join and :meth:`rebalance` a moved term's
        postings (and the grid keyed by its old home) still belong to
        the old home.
        """
        self.term_stats.popularity.unregister(profile)
        self._filter_churn_since_apply += 1
        filter_id = profile.filter_id
        homes = [
            node_id
            for node_id, index in self._home_indexes.items()
            if filter_id in index
        ]
        for node_id in homes:
            self._home_indexes[node_id].remove_filter(filter_id)
        aggregate = self.config.allocation.aggregate_per_node
        key_epochs = self._key_epochs
        for origin_key in homes if aggregate else profile.terms:
            key_epochs[origin_key] = key_epochs.get(origin_key, 0) + 1
            if self.plan is None:
                continue
            table = self.plan.tables.get(origin_key)
            if table is None:
                continue
            subset = table.grid.subset_of(profile.filter_id)
            for holder in table.grid.subset_holders()[subset]:
                allocated = self._allocated_indexes[holder].get(
                    origin_key
                )
                if allocated is not None and allocated.remove_filter(
                    profile.filter_id
                ):
                    self._writethrough_drops[origin_key] = (
                        self._writethrough_drops.get(origin_key, 0) + 1
                    )

    # -- statistics & allocation ------------------------------------------

    def seed_frequencies(self, corpus) -> None:
        """Bootstrap ``q_i`` from an offline corpus (proactive policy)."""
        self.term_stats.frequency.seed_from_corpus(corpus)

    def observe_document(self, document: Document) -> None:
        """Feed the frequency tracker (renewed on ``reallocate``)."""
        self.term_stats.observe_document(document)

    def finalize_registration(self) -> None:
        """Compute and apply the allocation plan.

        Requires frequency statistics: call :meth:`seed_frequencies`
        (proactive) or publish a learning batch then
        :meth:`reallocate` (passive) first.  With no frequency signal
        at all, MOVE degenerates gracefully to IL (every ``n_i = 1``).
        """
        self.reallocate()

    def reallocate(
        self,
        force: bool = False,
        drift_epsilon: Optional[float] = None,
    ) -> ReallocationReport:
        """Renew statistics and re-run the coordinator (the 10-minute
        refresh of Section VI-A).

        With a positive drift threshold (the ``drift_epsilon``
        argument, falling back to ``allocation.drift_epsilon`` in the
        config) the refresh first measures :meth:`estimate_drift`;
        below the threshold the replan is skipped entirely: the
        statistics window is *not* renewed (so drift keeps
        accumulating until it crosses the threshold) and the
        write-through maintenance keeps the live grids correct in the
        meantime.  ``force=True`` bypasses the gate — used after ring
        changes, where the applied plan may reference departed nodes.

        Returns the :class:`~repro.core.reallocation.
        ReallocationReport` describing what the refresh did; the same
        report is kept as :attr:`last_reallocation` and tagged onto
        the ``reallocate`` tracer span.
        """
        start = time.perf_counter()
        epsilon = (
            drift_epsilon
            if drift_epsilon is not None
            else self.config.allocation.drift_epsilon
        )
        with self.tracer.span("reallocate", system=self.name) as span:
            report = self._reallocate_inner(force, epsilon, start)
            span.annotate(**report.as_tags())
        self._finish_reallocation(report)
        return report

    def _reallocate_inner(
        self, force: bool, epsilon: float, start: float
    ) -> ReallocationReport:
        drift = 0.0
        if not force and epsilon > 0.0 and self.plan is not None:
            drift = self.estimate_drift()
            if drift < epsilon:
                report = ReallocationReport(skipped=True, drift=drift)
                report.seconds = time.perf_counter() - start
                return report
        self.term_stats.frequency.renew()
        plan = self.coordinator.plan_from_stats(
            self.term_stats, self.home_of, num_nodes=len(self.cluster)
        )
        report = self._apply_plan(plan)
        report.drift = drift
        report.seconds = time.perf_counter() - start
        return report

    def estimate_drift(self) -> float:
        """Demand drift since the last applied plan, in [0, 1].

        The maximum of two cheap signals: the frequency tracker's
        window drift (document-side ``q_i`` movement since the last
        renewal) and the registered-filter churn fraction (filter-side
        ``p_i`` movement — filters registered/unregistered since the
        last apply over the current filter count).  Either signal
        moving is enough to justify a replan; both near zero means a
        replan would reproduce (nearly) the same plan, which is what
        the drift gate in :meth:`reallocate` exploits.
        """
        freq_drift = self.term_stats.window_drift()
        total = self.term_stats.popularity.total_filters
        if total:
            churn = min(1.0, self._filter_churn_since_apply / total)
        else:
            churn = 1.0 if self._filter_churn_since_apply else 0.0
        return max(freq_drift, churn)

    def _finish_reallocation(self, report: ReallocationReport) -> None:
        """Fold one refresh's outcome into the metric registry."""
        self.last_reallocation = report
        metrics = self.metrics
        metrics.counter("reallocations").add()
        if report.skipped:
            metrics.counter("reallocations_skipped").add()
        else:
            metrics.counter("realloc_keys_kept").add(report.keys_kept)
            metrics.counter("realloc_keys_rebuilt").add(
                report.keys_rebuilt
            )
            metrics.counter("realloc_keys_dropped").add(
                report.keys_dropped
            )
            metrics.counter("realloc_replicas_moved").add(
                report.replicas_moved
            )
            metrics.counter("realloc_delta_replicas").add(
                report.delta_replicas
            )
            metrics.counter("realloc_replicas_dropped").add(
                report.replicas_dropped
            )
        metrics.gauge("realloc_last_drift").set(report.drift)
        metrics.gauge("realloc_last_seconds").set(report.seconds)

    def _apply_plan(self, plan: AllocationPlan) -> ReallocationReport:
        """Install ``plan``: copy subset filters to allocated nodes.

        Table keys are home-node ids in the aggregated mode (Section
        V's deployment) or terms in the per-term ablation mode; in
        either case an allocated node indexes its subset under the
        terms the origin home node serves.

        The first plan is installed from scratch; later plans go
        through the incremental engine (plan diffing, per-key
        rebuilds), which leaves the same index state the from-scratch
        apply would.  Either way the apply finishes by reconciling the
        epoch/write-through bookkeeping and the allocated-storage
        tracker.
        """
        if self.plan is None:
            report = self._apply_plan_full(plan)
        else:
            report = self._apply_plan_incremental(plan)
        # Allocation state changed: invalidate any open batch (the
        # batch-contract epoch the pipeline pins per publish_batch).
        self._mutation_epoch += 1
        self._applied_epochs = dict(self._key_epochs)
        self._writethrough_adds.clear()
        self._writethrough_drops.clear()
        self._filter_churn_since_apply = 0
        self._refresh_allocated_storage_load()
        return report

    def _origin_payloads(self, home_index: InvertedIndex, key: str):
        """Origin filters of one key as slab payloads.

        Yields ``(filter_id, (slot, term_ids))`` for every origin
        filter that has at least one indexed term; the buffered
        payloads feed :meth:`~repro.matching.inverted_index.
        InvertedIndex.add_slots`, so rebuilding subset indexes never
        rehydrates a single ``Filter``.
        """
        slab = home_index.slab
        if self.config.allocation.aggregate_per_node:
            slot_entries = home_index.iter_slot_items()
            origin_ids = set(home_index.posting_term_ids())
        else:
            slot_entries = home_index.slot_entries_for_term(key)
            term_id = slab.interner.lookup(key)
            origin_ids = {term_id} if term_id is not None else set()
        term_ids = slab.term_ids
        for slot, filter_id in slot_entries:
            indexed = [tid for tid in term_ids(slot) if tid in origin_ids]
            if indexed:
                yield filter_id, (slot, indexed)

    def _apply_plan_full(self, plan: AllocationPlan) -> ReallocationReport:
        """From-scratch apply: discard and rebuild every key."""
        report = ReallocationReport(keys_new=len(plan.tables))
        self.plan = plan
        self._allocated_indexes = defaultdict(dict)
        for key, table in plan.tables.items():
            grid = table.grid
            home_index = self.home_index(grid.home_node)
            subset_indexes: Dict[str, InvertedIndex] = {}
            for row in grid.rows:
                for node_id in row:
                    subset_indexes[node_id] = self._make_index()
            # Buffer per holder, then bulk-index: each posting list is
            # rebuilt with one sort instead of one insert per filter.
            buffers: Dict[str, List] = {
                node_id: [] for node_id in subset_indexes
            }
            subset_holders = grid.subset_holders()
            for filter_id, payload in self._origin_payloads(
                home_index, key
            ):
                holders = subset_holders[grid.subset_of(filter_id)]
                report.replicas_moved += len(holders)
                for holder in holders:
                    buffers[holder].append(payload)
            for node_id, buffered in buffers.items():
                if buffered:
                    subset_indexes[node_id].add_slots(buffered)
            for node_id, index in subset_indexes.items():
                self._allocated_indexes[node_id][key] = index
        return report

    def _apply_plan_incremental(
        self, plan: AllocationPlan
    ) -> ReallocationReport:
        """Diff-driven apply: rebuild only the keys that changed shape.

        Per :func:`~repro.core.reallocation.diff_plans`: *unchanged*
        and *delta* keys keep their live subset indexes untouched (the
        write-through maintenance already applied delta keys' filter
        churn at registration time, so only the movement accounting is
        folded in); *resized*/*new* keys are rebuilt from the home
        index with explicit :class:`~repro.core.reallocation.
        ReplicaMove` accounting; *dropped* keys discard their indexes.
        """
        old_plan = self.plan
        applied_epochs = self._applied_epochs
        churned = {
            key
            for key, epoch in self._key_epochs.items()
            if applied_epochs.get(key) != epoch
        }
        diff = diff_plans(old_plan, plan, churned)
        counts = diff.summary()
        report = ReallocationReport(
            keys_unchanged=counts[KEY_UNCHANGED],
            keys_delta=counts[KEY_DELTA],
            keys_resized=counts[KEY_RESIZED],
            keys_new=counts[KEY_NEW],
            keys_dropped=counts[KEY_DROPPED],
        )
        for key, key_diff in diff.diffs.items():
            status = key_diff.status
            if status == KEY_UNCHANGED:
                continue
            if status == KEY_DELTA:
                report.delta_replicas += self._writethrough_adds.get(
                    key, 0
                )
                report.replicas_dropped += self._writethrough_drops.get(
                    key, 0
                )
                continue
            if status == KEY_DROPPED:
                report.replicas_dropped += self._discard_key(
                    key, old_plan.tables[key]
                )
                continue
            # Resized or new: rebuild this one key from its home index.
            report.replicas_dropped += self._rebuild_key(
                key,
                plan.tables[key],
                old_plan.tables.get(key),
                report.moves,
            )
        report.replicas_moved = len(report.moves)
        self.plan = plan
        return report

    def _discard_key(self, key: str, table) -> int:
        """Drop every subset index of a key that lost its table.

        Returns the filter copies discarded (one per filter per
        holder, the same unit :meth:`allocation_movement` reports).
        """
        dropped = 0
        for node_id in table.grid.all_nodes():
            per_origin = self._allocated_indexes.get(node_id)
            if per_origin is None:
                continue
            index = per_origin.pop(key, None)
            if index is not None:
                dropped += len(index)
        return dropped

    def _rebuild_key(
        self,
        key: str,
        table,
        old_table,
        moves: List[ReplicaMove],
    ) -> int:
        """Rebuild one key's subset indexes from its home index.

        Appends to ``moves`` the explicit replica transfers — copies
        landing on a node that did not hold the filter's subset under
        the old grid (every copy, for a new key) — and returns the
        replica copies dropped (old holders that left the filter's
        subset).  The home node is always the sender: it retains the
        full filter set per Section V.
        """
        grid = table.grid
        home_id = grid.home_node
        home_index = self.home_index(home_id)
        subset_holders = grid.subset_holders()
        old_grid = old_table.grid if old_table is not None else None
        old_subset_holders = (
            old_grid.subset_holders() if old_grid is not None else None
        )
        buffers: Dict[str, List] = {
            node_id: [] for node_id in grid.all_nodes()
        }
        dropped = 0
        for filter_id, payload in self._origin_payloads(home_index, key):
            holders = subset_holders[grid.subset_of(filter_id)]
            for holder in holders:
                buffers[holder].append(payload)
            if old_grid is None:
                for holder in holders:
                    moves.append(
                        ReplicaMove(filter_id, home_id, holder)
                    )
                continue
            old_holders = old_subset_holders[
                old_grid.subset_of(filter_id)
            ]
            for holder in holders:
                if holder not in old_holders:
                    moves.append(
                        ReplicaMove(filter_id, home_id, holder)
                    )
            for holder in old_holders:
                if holder not in holders:
                    dropped += 1
        if old_grid is not None:
            for node_id in old_grid.all_nodes():
                per_origin = self._allocated_indexes.get(node_id)
                if per_origin is not None:
                    per_origin.pop(key, None)
        for node_id, buffered in buffers.items():
            index = self._make_index()
            if buffered:
                index.add_slots(buffered)
            self._allocated_indexes[node_id][key] = index
        return dropped

    def _refresh_allocated_storage_load(self) -> None:
        """Overwrite the allocated-storage tracker with live totals.

        ``set`` per node rather than ``add``: accumulating at apply
        time double-counted every surviving replica on each refresh,
        inflating the Figure 9(a) storage metric by one full plan per
        reallocation.  Nodes that no longer hold any allocated subset
        are zeroed (not deleted) so ranked listings keep showing them.
        """
        tracker = self.metrics.load("storage_replicas_allocated")
        totals: Dict[str, float] = {}
        for node_id, per_origin in self._allocated_indexes.items():
            total = 0.0
            for index in per_origin.values():
                total += index.stored_replica_count()
            totals[node_id] = total
        for node_id in tracker.as_dict():
            if node_id not in totals:
                tracker.set(node_id, 0.0)
        for node_id, total in totals.items():
            tracker.set(node_id, total)

    # -- dissemination (pipeline stage hooks) ------------------------------

    def _observe(self, document: Document) -> None:
        """Feed the frequency tracker before the ingest draw."""
        self.term_stats.observe_document(document)

    def _resolve_routes(
        self, document: Document, caches: BatchCaches
    ) -> Dict[str, List[int]]:
        """Bloom-pruned term-id grouping by ring home node."""
        return group_terms_by_home(
            document, caches, self._bloom, self.home_of
        )

    def _execute(
        self, ctx: ExecutionContext, routes: Dict[str, List[int]]
    ) -> None:
        """Dispatch each home group: local IL-style matching when the
        home node has no forwarding table, partition-parallel matching
        through the grid when it does (per home node in the aggregated
        deployment, per term in the ablation mode)."""
        ctx.routing_messages = len(routes)
        plan = self.plan
        aggregate = self.config.allocation.aggregate_per_node
        for home_id, term_ids in routes.items():
            if plan is None:
                self._match_at_home(ctx, home_id, term_ids)
                continue
            if aggregate:
                table = plan.tables.get(home_id)
                if table is None:
                    self._match_at_home(ctx, home_id, term_ids)
                else:
                    ctx.routing_messages += self._match_allocated(
                        ctx, home_id, term_ids, table,
                        origin_key=home_id,
                    )
                continue
            # Per-term mode: each term routes through its own table.
            local_term_ids: List[int] = []
            for term_id in term_ids:
                term = DEFAULT_INTERNER.term(term_id)
                table = plan.tables.get(term)
                if table is None:
                    local_term_ids.append(term_id)
                else:
                    ctx.routing_messages += self._match_allocated(
                        ctx, home_id, [term_id], table,
                        origin_key=term,
                    )
            if local_term_ids:
                self._match_at_home(ctx, home_id, local_term_ids)

    def _home_retrieve(
        self, caches: BatchCaches, home_id: str, term_id: int
    ) -> Retrieval:
        """Home-index posting retrieval, memoized per epoch."""
        entry = caches.retrieval.get(term_id)
        if entry is None:
            entry = caches.retrieve(
                term_id,
                self.home_index(home_id),
                DEFAULT_INTERNER.term(term_id),
            )
        return entry

    def _allocated_retrieve(
        self,
        caches: BatchCaches,
        node_id: str,
        origin_key: str,
        term_id: int,
    ) -> Retrieval:
        """Allocated-subset-index retrieval, memoized per epoch."""
        key = (node_id, origin_key, term_id)
        entry = caches.retrieval.get(key)
        if entry is None:
            entry = caches.retrieve(
                key,
                self._allocated_indexes[node_id][origin_key],
                DEFAULT_INTERNER.term(term_id),
            )
        return entry

    def _home_subset_triples(
        self,
        caches: BatchCaches,
        home_id: str,
        origin_key: str,
        grid,
        term_id: int,
    ) -> List[Tuple[int, str, Filter]]:
        """Home posting of one term annotated with each filter's grid
        subset, memoized per epoch (saves one stable hash per filter
        per document on the home-fallback and lost-subset paths)."""
        key = (origin_key, term_id)
        triples = caches.home_subsets.get(key)
        if triples is None:
            filters, filter_ids, _, _ = self._home_retrieve(
                caches, home_id, term_id
            )
            triples = [
                (grid.subset_of(filter_id), filter_id, profile)
                for filter_id, profile in zip(filter_ids, filters)
            ]
            caches.home_subsets[key] = triples
        return triples

    def _match_at_home(
        self, ctx: ExecutionContext, home_id: str, term_ids: List[int]
    ) -> None:
        """IL-style local matching on an unallocated home node."""
        caches = ctx.caches
        if not self.cluster.node(home_id).alive:
            for term_id in term_ids:
                ctx.unreachable.update(
                    self._home_retrieve(caches, home_id, term_id)[1]
                )
            return
        document = ctx.document
        matched = ctx.matched
        plain_boolean = self._scorer is None
        lists = 0
        entries = 0
        for term_id in term_ids:
            filters, filter_ids, n_lists, n_entries = (
                self._home_retrieve(caches, home_id, term_id)
            )
            lists += n_lists
            entries += n_entries
            if plain_boolean:
                matched.update(filter_ids)
            else:
                matched.update(
                    profile.filter_id
                    for profile in self._apply_semantics(
                        document, filters
                    )
                )
        ctx.work.add(home_id, lists, entries, (ctx.ingest, home_id))

    def _match_allocated(
        self,
        ctx: ExecutionContext,
        home_id: str,
        term_ids: List[int],
        table,
        origin_key: str,
    ) -> int:
        """Partition-parallel matching through the forwarding table.

        Returns the number of forwarding messages issued.  The home
        node acts as the router (its forwarding table is in main
        memory); if the home node itself is down, the ingest node
        routes directly from a gossip-replicated copy of the table —
        per the paper the table contents derive from the coordinator,
        so any node can reconstruct them.
        """
        caches = ctx.caches
        document = ctx.document
        ingest = ctx.ingest
        matched = ctx.matched
        home_alive = self.cluster.node(home_id).alive
        router = home_id if home_alive else ingest
        grid = table.grid

        node_of = self.cluster.node
        grouping, lost_subsets = table.route_grouped(
            self._rng,
            is_alive=lambda node_id: node_of(node_id).alive,
            home_alive=home_alive,
            memo=caches.routing.setdefault(origin_key, {}),
        )

        plain_boolean = self._scorer is None
        messages = 0
        for node_id, subsets in grouping:
            lists = 0
            entries = 0
            if node_id == home_id:
                # Home fallback: the home node retains every filter;
                # restrict matching to the subsets that fell back.
                restrict_subsets = set(subsets)
                for term_id in term_ids:
                    _, _, n_lists, n_entries = self._home_retrieve(
                        caches, home_id, term_id
                    )
                    lists += n_lists
                    entries += n_entries
                    triples = self._home_subset_triples(
                        caches, home_id, origin_key, grid, term_id
                    )
                    if plain_boolean:
                        matched.update(
                            filter_id
                            for subset, filter_id, _ in triples
                            if subset in restrict_subsets
                        )
                    else:
                        candidates = [
                            profile
                            for subset, _, profile in triples
                            if subset in restrict_subsets
                        ]
                        matched.update(
                            profile.filter_id
                            for profile in self._apply_semantics(
                                document, candidates
                            )
                        )
            else:
                for term_id in term_ids:
                    filters, filter_ids, n_lists, n_entries = (
                        self._allocated_retrieve(
                            caches, node_id, origin_key, term_id
                        )
                    )
                    lists += n_lists
                    entries += n_entries
                    if plain_boolean:
                        matched.update(filter_ids)
                    else:
                        matched.update(
                            profile.filter_id
                            for profile in self._apply_semantics(
                                document, filters
                            )
                        )
            path = (
                (ingest, node_id)
                if router == node_id
                else (ingest, router, node_id)
            )
            ctx.work.add(node_id, lists, entries, path)
            messages += 1

        for subset in lost_subsets:
            for term_id in term_ids:
                triples = self._home_subset_triples(
                    caches, home_id, origin_key, grid, term_id
                )
                ctx.unreachable.update(
                    filter_id
                    for candidate_subset, filter_id, _ in triples
                    if candidate_subset == subset
                )
        return messages

    def _choose_ingest(self) -> str:
        live = self.cluster.live_node_ids()
        if not live:
            raise RuntimeError("no live nodes to ingest documents")
        return self._rng.choice(live)

    # -- elasticity ------------------------------------------------------------

    def rebalance(self) -> int:
        """Restore the home-node invariant after ring changes, then
        re-run the allocation.

        When nodes join the ring, some terms acquire new home nodes;
        their postings are handed off exactly as in IL, new nodes get
        empty home indexes, and the coordinator recomputes the grids
        over the new membership.  Returns filter replicas moved.
        """
        for node_id in self.cluster.node_ids():
            self.home_index(node_id)
        moved = 0
        aggregate = self.config.allocation.aggregate_per_node
        key_epochs = self._key_epochs
        for node_id, index in list(self._home_indexes.items()):
            for term in list(index.terms()):
                new_home = self.home_of(term)
                if new_home == node_id:
                    continue
                filters = index.remove_term(term)
                # Both the losing and the gaining key saw their filter
                # set change; mark them churned for the plan differ.
                for key in (
                    (node_id, new_home) if aggregate else (term,)
                ):
                    key_epochs[key] = key_epochs.get(key, 0) + 1
                target_index = self.home_index(new_home)
                for profile in filters:
                    target_index.add_filter(
                        profile, indexed_terms=[term]
                    )
                    moved += 1
        # The hand-off changed which home index serves a term: move the
        # batch epoch here, not only through the re-allocation below.
        self._mutation_epoch += 1
        # Ring changes leave grid copies out of sync with the moved
        # home postings (the hand-off above bypasses the write-through
        # path) and may reference departed nodes, so the diff-driven
        # apply must not keep any key: drop the applied plan — the
        # refresh then rebuilds every key from scratch in either apply
        # mode — and bypass the drift gate.
        self.plan = None
        self._allocated_indexes = defaultdict(dict)
        self.reallocate(force=True)
        return moved

    # -- diagnostics --------------------------------------------------------

    def storage_distribution(self) -> Dict[str, float]:
        """Total filter replicas per node: home + allocated copies.

        The home-resident replicas only count where the node still
        performs matching itself (no forwarding table); a routed home
        node's own copy is cold storage and the paper's Figure 9(a)
        measures serving replicas.
        """
        totals: Dict[str, float] = {
            node_id: 0.0 for node_id in self.cluster.node_ids()
        }
        for node_id, index in self._home_indexes.items():
            allocated = (
                self.plan is not None and node_id in self.plan.tables
            )
            if not allocated:
                totals[node_id] += len(index)
        for node_id, per_home in self._allocated_indexes.items():
            for index in per_home.values():
                totals[node_id] += len(index)
        return totals

    def allocation_movement(self) -> List[Tuple[str, str, int]]:
        """Filter copies moved by the allocation: (origin home node,
        receiving node, filter count) triples.

        The paper's Section V notes this movement is the ring
        placement's downside ("the successor-based option might cause
        network traffic"); the throughput harness charges the receiving
        node for it.
        """
        moves: List[Tuple[str, str, int]] = []
        for node_id, per_origin in self._allocated_indexes.items():
            for origin_key, index in per_origin.items():
                if not len(index):
                    continue
                table = (
                    self.plan.tables.get(origin_key)
                    if self.plan is not None
                    else None
                )
                # Resolve the origin key (home node id, or term in the
                # per-term mode) to the physical home node.
                home_id = (
                    table.grid.home_node
                    if table is not None
                    else origin_key
                )
                moves.append((home_id, node_id, len(index)))
        return moves

    def allocation_summary(self) -> List[str]:
        """One line per forwarding table (examples/diagnostics)."""
        if self.plan is None:
            return []
        return [
            table.describe()
            for _, table in sorted(self.plan.tables.items())
        ]
