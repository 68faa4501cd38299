"""Centralized SIFT matching — one node holds every filter.

Two faces of the same baseline:

- :class:`CentralizedSift` — the Figure 6/7 experiment substrate.
  Before the cluster experiments, the paper studies on one node how
  the number of documents ``Q`` and the number of filters ``P`` trade
  off at a fixed product ``R = P * Q``.  This class is that single
  node: all filters local, SIFT matching, and the cost model's
  disk-pressure behaviour (very large ``P`` pushes the working set out
  of cache and the disk becomes the bottleneck — the Figure 6 knee at
  ``Q = 2``).
- :class:`CentralizedSystem` — the same idea as a
  :class:`~repro.baselines.base.DisseminationSystem`: a cluster where
  one designated node stores and matches everything (the degenerate
  scheme every distributed design is measured against).  It runs
  through the staged pipeline (:mod:`repro.core.pipeline`), so it gets
  batched publishing and per-term retrieval memoization like the
  distributed schemes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cluster.cluster import Cluster
from ..config import CostModelConfig, SystemConfig
from ..core.pipeline import BatchCaches, ExecutionContext
from ..errors import ConfigurationError
from ..matching.inverted_index import InvertedIndex
from ..matching.sift import SiftMatcher
from ..model import Document, Filter
from ..sim.costs import MatchCostModel
from .base import DisseminationSystem


@dataclass(frozen=True)
class SingleNodeResult:
    """Outcome of matching a document batch on one node."""

    documents_matched: int
    total_filters: int
    total_match_seconds: float
    total_posting_entries: int

    @property
    def document_throughput(self) -> float:
        """Documents matched per second of modelled latency."""
        if self.total_match_seconds <= 0:
            return 0.0
        return self.documents_matched / self.total_match_seconds

    @property
    def pair_throughput(self) -> float:
        """(document, filter) match work per second — ``R / time``.

        This is the metric Figures 6/7 plot: with ``R = P * Q`` fixed,
        fewer/larger batches of filters (small Q, large P) finish the
        same amount of match work sooner because the dominant cost is
        the per-document posting-list seeks.  All three of the paper's
        quantitative claims (8.92x at fixed R, 6.714x across R at fixed
        Q, and the Q=2 disk knee) hold under this reading and none
        holds under documents-per-second.
        """
        if self.total_match_seconds <= 0:
            return 0.0
        return (
            self.documents_matched
            * self.total_filters
            / self.total_match_seconds
        )


class CentralizedSift:
    """One node holding ``P`` filters and matching documents via SIFT."""

    def __init__(
        self,
        cost_model: Optional[MatchCostModel] = None,
        memory_capacity: int = 5_000_000,
        disk_pressure_slope: float = 1.5,
    ) -> None:
        """``memory_capacity`` is the filter count beyond which the
        working set spills and each retrieval slows down by
        ``disk_pressure_slope`` per capacity multiple — the mechanism
        behind the paper's observation that ``P = 5e6`` is *slower*
        than ``P = 1e6`` on Figure 6 (bound ``C ≈ 5e6``)."""
        self.cost_model = cost_model or MatchCostModel(CostModelConfig())
        if memory_capacity < 1:
            raise ValueError("memory_capacity must be >= 1")
        if disk_pressure_slope < 0:
            raise ValueError("disk_pressure_slope must be >= 0")
        self.memory_capacity = memory_capacity
        self.disk_pressure_slope = disk_pressure_slope
        self.index = InvertedIndex()
        self._matcher = SiftMatcher(self.index)

    def register_all(self, profiles: Iterable[Filter]) -> None:
        for profile in profiles:
            self.index.add_filter(profile)

    def disk_pressure_factor(self) -> float:
        """Service-time multiplier from working-set overflow."""
        stored = len(self.index)
        overflow = stored / self.memory_capacity - 1.0
        if overflow <= 0:
            return 1.0
        return 1.0 + self.disk_pressure_slope * overflow

    def match(self, document: Document) -> List[Filter]:
        """Matching filters only (logical result)."""
        filters, _ = self._matcher.match(document)
        return filters

    def run_batch(
        self, documents: Sequence[Document]
    ) -> SingleNodeResult:
        """Match a batch and report modelled throughput.

        Every document term costs one dictionary probe (``y_p``) even
        when no posting list exists for it — SIFT must look the term up
        to find that out — plus the retrieval cost of the lists that do
        exist.  Only the cost is modelled, so no matched filter is
        collected or rehydrated.
        """
        pressure = self.disk_pressure_factor()
        y_probe = self.cost_model.config.y_p
        total_seconds = 0.0
        total_entries = 0
        for document in documents:
            cost = self.index.all_terms_cost(document)
            total_entries += cost.posting_entries
            total_seconds += pressure * (
                self.cost_model.match_time(
                    cost.posting_lists, cost.posting_entries
                )
                + y_probe * len(document)
            )
        return SingleNodeResult(
            documents_matched=len(documents),
            total_filters=len(self.index),
            total_match_seconds=total_seconds,
            total_posting_entries=total_entries,
        )


class CentralizedSystem(DisseminationSystem):
    """All filters on one cluster node — the degenerate scheme.

    Registration stores every filter on the designated central node,
    indexed under all of its terms; every published document is
    forwarded there (one routing message, no pruning) and matched with
    the centralized SIFT algorithm.  When the central node is down the
    entire term-sharing candidate set is unreachable — the paper's
    single point of failure, made measurable.
    """

    name = "Central"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[SystemConfig] = None,
        threshold: Optional[float] = None,
        central_node: Optional[str] = None,
    ) -> None:
        super().__init__(config, threshold=threshold)
        self.cluster = cluster
        node_ids = cluster.node_ids()
        if not node_ids:
            raise ConfigurationError("cluster has no nodes")
        if central_node is None:
            central_node = node_ids[0]
        elif central_node not in node_ids:
            raise ConfigurationError(
                f"central node {central_node!r} is not in the cluster"
            )
        self.central_node = central_node
        self.index = self._make_index()
        self._rng = random.Random((self.config.seed or 0) + 0x0C)

    # -- registration ----------------------------------------------------

    def _register(self, profile: Filter) -> None:
        # Full local inverted list: indexed under every term.
        self.index.add_filter(profile)
        self.metrics.load("storage_replicas").add(self.central_node, 1.0)

    def _register_batch(self, profiles) -> None:
        """Bulk registration: identical placement to the per-filter
        loop (same load updates, in the same order),
        with the central inverted list loaded through ``add_filters``
        — one sort per posting list instead of one insert per filter.
        """
        storage_load = self.metrics.load("storage_replicas")
        buffered: List[Tuple[Filter, None]] = []
        for profile in profiles:
            buffered.append((profile, None))
            storage_load.add(self.central_node, 1.0)
        if buffered:
            self.index.add_filters(buffered)

    def _unregister(self, profile: Filter) -> None:
        """Remove the filter from the central node."""
        self.index.remove_filter(profile.filter_id)

    # -- dissemination (pipeline stage hooks) ------------------------------

    def _resolve_routes(
        self, document: Document, caches: BatchCaches
    ) -> str:
        """Everything routes to the one central node."""
        return self.central_node

    def _execute(self, ctx: ExecutionContext, central: str) -> None:
        """Centralized SIFT matching over all document terms."""
        ctx.routing_messages = 1
        term_ids = ctx.document.term_ids
        if self.cluster.node(central).alive:
            self._match_node(
                ctx,
                central,
                self.index,
                term_ids,
                (ctx.ingest, central),
                all_terms=True,
            )
        else:
            self._unreachable_at(ctx, self.index, term_ids)

    def _choose_ingest(self) -> str:
        live = self.cluster.live_node_ids()
        if not live:
            raise RuntimeError("no live nodes to ingest documents")
        return self._rng.choice(live)

    # -- diagnostics -----------------------------------------------------------

    def storage_distribution(self) -> Dict[str, float]:
        """Distinct filters per node: everything on the central node."""
        return {
            node_id: (
                float(len(self.index))
                if node_id == self.central_node
                else 0.0
            )
            for node_id in self.cluster.node_ids()
        }

