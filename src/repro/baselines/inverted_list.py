"""IL — the pure distributed inverted list baseline (Section III).

Registration: a filter is stored, by the key/value ``put``, on the home
node of *each* of its terms; the home node of ``t_i`` indexes it only
under ``t_i`` (the posting lists of all home nodes together form one
distributed inverted list).

Dissemination: a document is forwarded, in parallel, to the home nodes
of all of its terms that pass the Bloom-filter membership check; each
home node matches the document using only its own term's posting list.
Both stages run through the staged pipeline
(:mod:`repro.core.pipeline`); IL supplies the simplest hooks of the
four systems — Bloom + ring routing and single-term posting matching.

No allocation: skewed ``p_i`` makes some home nodes store huge filter
sets (storage hot spots, Figure 9a) and skewed ``q_i`` makes some home
nodes receive most documents (matching hot spots, Figure 9b) — the low
throughput the MOVE scheme exists to fix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..config import SystemConfig
from ..core.pipeline import (
    BatchCaches,
    ExecutionContext,
    Retrieval,
    group_terms_by_home,
)
from ..matching.bloom import BloomFilter
from ..matching.inverted_index import InvertedIndex
from ..model import Document, Filter
from ..text.interning import DEFAULT_INTERNER
from .base import DisseminationSystem


class InvertedListSystem(DisseminationSystem):
    """The paper's baseline solution on the key/value cluster."""

    name = "IL"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[SystemConfig] = None,
        threshold: Optional[float] = None,
    ) -> None:
        super().__init__(config, threshold=threshold)
        self.cluster = cluster
        self._indexes: Dict[str, InvertedIndex] = {
            node_id: self._make_index() for node_id in cluster.node_ids()
        }
        self._bloom = (
            BloomFilter(
                self.config.expected_filter_terms,
                self.config.bloom_fp_rate,
            )
            if self.config.use_bloom_filter
            else None
        )
        self._ingest_rng = None  # lazily built per-config seed stream

    # -- registration -----------------------------------------------------

    def home_of(self, term: str) -> str:
        return self.cluster.ring.home_node(term)

    def index_of(self, node_id: str) -> InvertedIndex:
        index = self._indexes.get(node_id)
        if index is None:
            index = self._make_index()
            self._indexes[node_id] = index
        return index

    def _register(self, profile: Filter) -> None:
        storage_load = self.metrics.load("storage_replicas")
        for term in profile.terms:
            node_id = self.home_of(term)
            # Filter stored in the shared slab (Figure 3's filter
            # store) and indexed under this home node's term only.
            self.index_of(node_id).add_filter(
                profile, indexed_terms=[term]
            )
            storage_load.add(node_id, 1.0)
            if self._bloom is not None:
                self._bloom.add(term)

    def _register_batch(self, profiles) -> None:
        """Bulk registration: identical placement to the per-filter
        loop (same bloom and load updates, in the same
        order), with each home index loaded through ``add_filters`` —
        one sort per posting list instead of one insert per replica."""
        storage_load = self.metrics.load("storage_replicas")
        bloom = self._bloom
        buffers: Dict[str, List[Tuple[Filter, List[str]]]] = {}
        for profile in profiles:
            for term in profile.terms:
                node_id = self.home_of(term)
                buffers.setdefault(node_id, []).append(
                    (profile, [term])
                )
                storage_load.add(node_id, 1.0)
                if bloom is not None:
                    bloom.add(term)
        for node_id, buffered in buffers.items():
            self.index_of(node_id).add_filters(buffered)

    # -- dissemination (pipeline stage hooks) ------------------------------

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
        """Single-term posting matching on each term's home node."""
        ctx.routing_messages = len(routes)
        caches = ctx.caches
        document = ctx.document
        matched = ctx.matched
        plain_boolean = self._scorer is None
        for node_id, term_ids in routes.items():
            if not self.cluster.node(node_id).alive:
                for term_id in term_ids:
                    ctx.unreachable.update(
                        self._retrieve_cached(caches, node_id, term_id)[1]
                    )
                continue
            lists = 0
            entries = 0
            for term_id in term_ids:
                filters, filter_ids, n_lists, n_entries = (
                    self._retrieve_cached(caches, node_id, term_id)
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
            ctx.work.add(node_id, lists, entries, (ctx.ingest, node_id))

    def _retrieve_cached(
        self, caches: BatchCaches, node_id: str, term_id: int
    ) -> Retrieval:
        """Posting retrieval for one home term, memoized per epoch
        (the home node derives from the term, so the id alone keys it).
        """
        entry = caches.retrieval.get(term_id)
        if entry is None:
            entry = caches.retrieve(
                term_id,
                self.index_of(node_id),
                DEFAULT_INTERNER.term(term_id),
            )
        return entry

    def _choose_ingest(self) -> str:
        """Documents enter at a random live node (a client connection)."""
        if self._ingest_rng is None:
            import random

            self._ingest_rng = random.Random(
                (self.config.seed or 0) + 0x1A
            )
        live = self.cluster.live_node_ids()
        if not live:
            raise RuntimeError("no live nodes to ingest documents")
        return self._ingest_rng.choice(live)

    def _unregister(self, profile: Filter) -> None:
        """Remove the filter from every home node that indexed it.

        Every index is searched, not only each term's current home:
        between a ring join and :meth:`rebalance` a moved term's
        postings still sit on its old home.
        """
        storage_load = self.metrics.load("storage_replicas")
        for node_id, index in self._indexes.items():
            if profile.filter_id in index:
                index.remove_filter(profile.filter_id)
                storage_load.add(node_id, 0.0)

    # -- elasticity -----------------------------------------------------------

    def rebalance(self) -> int:
        """Move term postings whose home changed (ring membership).

        After a node joins (or permanently leaves) the ring, some terms
        map to new home nodes; their posting lists are handed off so
        the home-node invariant — every term's filters live on its
        current home — is restored.  Returns the number of filter
        replicas moved.  A hand-off changes which home index serves a
        term, so it moves the batch epoch and the pipeline's memoized
        retrievals are rebuilt on the next batch.
        """
        moved = 0
        for node_id, index in list(self._indexes.items()):
            for term in list(index.terms()):
                new_home = self.home_of(term)
                if new_home == node_id:
                    continue
                filters = index.remove_term(term)
                target_index = self.index_of(new_home)
                storage_load = self.metrics.load("storage_replicas")
                for profile in filters:
                    target_index.add_filter(
                        profile, indexed_terms=[term]
                    )
                    storage_load.add(new_home, 1.0)
                    moved += 1
        self._mutation_epoch += 1
        return moved

    # -- diagnostics ---------------------------------------------------------

    def storage_distribution(self) -> Dict[str, float]:
        """Filter replicas per node (Figure 9a's raw data)."""
        return {
            node_id: float(index.stored_replica_count())
            for node_id, index in self._indexes.items()
        }
