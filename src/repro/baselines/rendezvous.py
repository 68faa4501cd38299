"""RS — the distributed rendezvous (flooding) baseline.

The Google-cluster search architecture [5] with the ROAR [16]
partition-level extension, adapted to content matching as the paper's
evaluation does (Section VI-A):

- the hash of a filter's unique name maps it to a partition, so filters
  are evenly distributed over the cluster;
- the cluster's ``N`` nodes are arranged into ``partition_level``
  partitions of ``N / partition_level`` replica nodes; every replica of
  a partition stores that partition's full filter share (this is where
  "the partition mechanism leads to more redundant filters on each
  node" comes from);
- RS has no distributed inverted list, so each node indexes its local
  filters under *all* their terms and matches each received document
  with the centralized SIFT algorithm — retrieving the posting lists of
  all ``|d|`` document terms;
- a published document is forwarded to one (randomly chosen) replica of
  *every* partition: blind flooding — every partition is visited whether
  or not it stores matching filters.

Dissemination runs through the staged pipeline
(:mod:`repro.core.pipeline`): route resolution is the partition list
itself (flooding has no pruning), and execution memoizes each
partition's live-replica roster and each replica's per-term posting
retrievals until membership or registration changes — the
per-partition replica *choice* stays
a fresh RNG draw per document, exactly as in the seed implementation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..config import SystemConfig
from ..core.pipeline import BatchCaches, ExecutionContext, Retrieval
from ..errors import ConfigurationError
from ..matching.inverted_index import InvertedIndex
from ..model import Document, Filter
from ..sim.randomness import stable_hash64
from .base import DisseminationSystem


class RendezvousSystem(DisseminationSystem):
    """Flooding with ROAR-style partition levels and SIFT matching."""

    name = "RS"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[SystemConfig] = None,
        partition_level: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> None:
        super().__init__(config, threshold=threshold)
        self.cluster = cluster
        node_ids = cluster.node_ids()
        if not node_ids:
            raise ConfigurationError("cluster has no nodes")
        replica_target = self.config.cluster.replica_count
        if partition_level is None:
            # Default: enough partitions that each filter lands on
            # ~replica_count nodes (the paper's "three folds of
            # replicas" comparison point).
            partition_level = max(1, len(node_ids) // replica_target)
        if not 1 <= partition_level <= len(node_ids):
            raise ConfigurationError(
                f"partition_level must be in [1, {len(node_ids)}], "
                f"got {partition_level}"
            )
        self.partition_level = partition_level
        # Round-robin nodes into partitions: partition p gets nodes
        # p, p + L, p + 2L, ... — every partition has >= 1 replica.
        self._partitions: List[List[str]] = [
            node_ids[p :: partition_level] for p in range(partition_level)
        ]
        self._indexes: Dict[str, InvertedIndex] = {
            node_id: self._make_index() for node_id in node_ids
        }
        self._rng = random.Random((self.config.seed or 0) + 0x25)

    # -- registration ----------------------------------------------------

    def partition_of(self, filter_id: str) -> int:
        return stable_hash64(filter_id) % self.partition_level

    def _register(self, profile: Filter) -> None:
        partition = self._partitions[self.partition_of(profile.filter_id)]
        storage_load = self.metrics.load("storage_replicas")
        for node_id in partition:
            # Full local inverted list: indexed under every term.
            self._indexes[node_id].add_filter(profile)
            storage_load.add(node_id, 1.0)

    def _register_batch(self, profiles) -> None:
        """Bulk registration: identical placement to the per-filter
        loop (same load updates, in the same order),
        with each replica's local inverted list loaded through
        ``add_filters`` — one sort per posting list instead of one
        insert per filter."""
        storage_load = self.metrics.load("storage_replicas")
        buffers: Dict[str, List[Tuple[Filter, None]]] = {}
        for profile in profiles:
            partition = self._partitions[
                self.partition_of(profile.filter_id)
            ]
            for node_id in partition:
                buffers.setdefault(node_id, []).append((profile, None))
                storage_load.add(node_id, 1.0)
        for node_id, buffered in buffers.items():
            self._indexes[node_id].add_filters(buffered)

    def _unregister(self, profile: Filter) -> None:
        """Remove the filter from every replica of its partition."""
        partition = self._partitions[self.partition_of(profile.filter_id)]
        for node_id in partition:
            self._indexes[node_id].remove_filter(profile.filter_id)

    # -- dissemination (pipeline stage hooks) ------------------------------

    def _resolve_routes(
        self, document: Document, caches: BatchCaches
    ) -> List[List[str]]:
        """Blind flooding: every partition sees every document."""
        return self._partitions

    def _execute(
        self, ctx: ExecutionContext, routes: List[List[str]]
    ) -> None:
        """One randomly chosen live replica of every partition runs the
        centralized SIFT match over all document terms."""
        ctx.routing_messages = self.partition_level
        caches = ctx.caches
        document = ctx.document
        matched = ctx.matched
        rosters = caches.routing
        node_of = self.cluster.node
        plain_boolean = self._scorer is None
        for p_index, partition in enumerate(routes):
            live = rosters.get(p_index)
            if live is None:
                live = [
                    node_id
                    for node_id in partition
                    if node_of(node_id).alive
                ]
                rosters[p_index] = live
            if not live:
                # Whole partition down: its filter share is unreachable.
                sample = partition[0]
                for term, term_id in zip(
                    document.terms, document.term_ids
                ):
                    ctx.unreachable.append(
                        self._retrieve_cached(caches, sample, term_id, term)[1]
                    )
                continue
            node_id = self._rng.choice(live)
            lists = 0
            entries = 0
            if plain_boolean:
                for term, term_id in zip(
                    document.terms, document.term_ids
                ):
                    _, slots, n_lists, n_entries = (
                        self._retrieve_cached(
                            caches, node_id, term_id, term
                        )
                    )
                    lists += n_lists
                    entries += n_entries
                    matched.append(slots)
            elif self._kernel_accumulates():
                # Score-accumulation SIFT: every replica indexes its
                # filters under all their terms, so one pass over the
                # |d| posting lists accumulates each candidate's full
                # dot product (see repro.matching.kernel).
                slots, lists, entries = self._kernel.match_slots(
                    document, self._indexes[node_id], caches
                )
                matched.append(slots)
            else:
                # Dedup candidates across terms (as SIFT does) before
                # scoring each one once against the threshold.
                candidates: Dict[str, Filter] = {}
                for term, term_id in zip(
                    document.terms, document.term_ids
                ):
                    filters, _, n_lists, n_entries = (
                        self._retrieve_cached(
                            caches, node_id, term_id, term
                        )
                    )
                    lists += n_lists
                    entries += n_entries
                    for profile in filters:
                        candidates.setdefault(profile.filter_id, profile)
                matched.append(
                    self._selected_slots(document, candidates.values())
                )
            ctx.work.add(node_id, lists, entries, (ctx.ingest, node_id))

    def _retrieve_cached(
        self,
        caches: BatchCaches,
        node_id: str,
        term_id: int,
        term: str,
    ) -> Retrieval:
        """Per-replica posting retrieval, memoized per epoch (RS nodes
        index under all terms, so the node must be part of the key)."""
        key = (node_id, term_id)
        entry = caches.retrieval.get(key)
        if entry is None:
            entry = caches.retrieve(key, self._indexes[node_id], term)
        return entry

    def _choose_ingest(self) -> str:
        live = self.cluster.live_node_ids()
        if not live:
            raise RuntimeError("no live nodes to ingest documents")
        return self._rng.choice(live)

    # -- diagnostics -----------------------------------------------------------

    def storage_distribution(self) -> Dict[str, float]:
        """Distinct filters stored per node.

        RS indexes each local filter under all of its terms, so the
        capacity-relevant count is the number of filters, not posting
        entries (IL/MOVE home copies are indexed under exactly one term
        each, where the two counts coincide).
        """
        return {
            node_id: float(len(index))
            for node_id, index in self._indexes.items()
        }
