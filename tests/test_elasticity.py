"""Elasticity tests: node joins, rebalance, home-node invariant."""

from __future__ import annotations

import random

import pytest

from repro.baselines import InvertedListSystem
from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.model import brute_force_match


def _config(num_nodes=6):
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=num_nodes, num_racks=2, seed=1),
        allocation=AllocationConfig(node_capacity=400),
        expected_filter_terms=5_000,
        seed=1,
    )


def _oracle_ids(document, filters):
    return {f.filter_id for f in brute_force_match(document, filters)}


class TestILRebalance:
    def _system(self, filters):
        config = _config()
        cluster = Cluster(config.cluster)
        system = InvertedListSystem(cluster, config)
        system.subscribe(filters)
        return system, cluster

    def test_join_then_rebalance_restores_invariant(self, tiny_workload):
        filters, _documents = tiny_workload
        system, cluster = self._system(filters)
        cluster.add_node()
        cluster.add_node()
        moved = system.rebalance()
        assert moved > 0
        # Home-node invariant: every indexed term lives on its home.
        for node_id, index in system._indexes.items():
            for term in index.terms():
                assert system.home_of(term) == node_id

    def test_completeness_after_rebalance(self, tiny_workload):
        filters, documents = tiny_workload
        system, cluster = self._system(filters)
        cluster.add_node()
        system.rebalance()
        for document in documents[:15]:
            plan = system.publish(document)
            assert plan.matched_filter_ids == _oracle_ids(
                document, filters
            )

    def test_without_rebalance_join_loses_matches(self, tiny_workload):
        # Documents route by the *new* ring; filters still sit on old
        # homes: some matches are missed until rebalance runs.  This
        # is why the rebalance step exists.
        filters, documents = tiny_workload
        system, cluster = self._system(filters)
        for _ in range(3):
            cluster.add_node()
        missing = 0
        for document in documents[:20]:
            plan = system.publish(document)
            missing += len(
                _oracle_ids(document, filters) - plan.matched_filter_ids
            )
        assert missing > 0

    def test_rebalance_idempotent(self, tiny_workload):
        filters, _documents = tiny_workload
        system, cluster = self._system(filters)
        cluster.add_node()
        first = system.rebalance()
        second = system.rebalance()
        assert first >= 0
        assert second == 0

    def test_no_join_rebalance_is_noop(self, tiny_workload):
        filters, _documents = tiny_workload
        system, _cluster = self._system(filters)
        assert system.rebalance() == 0

    def test_rebalance_moves_the_batch_epoch(self, tiny_workload):
        filters, _documents = tiny_workload
        system, cluster = self._system(filters)
        cluster.add_node()
        before = system._batch_epoch()
        assert system.rebalance() > 0
        assert system._batch_epoch() > before

    def test_memos_from_before_rebalance_are_not_served(
        self, tiny_workload
    ):
        # A batch between the join and the rebalance memoizes the new
        # homes' still-empty postings; the hand-off must invalidate
        # them, or the next batches miss every moved filter.
        filters, documents = tiny_workload
        system, cluster = self._system(filters)
        cluster.add_node()
        cluster.add_node()
        system.publish_batch(documents[:20])
        assert system.rebalance() > 0
        for plan in system.publish_batch(documents[:20]):
            assert plan.matched_filter_ids == _oracle_ids(
                plan.document, filters
            )


class TestMoveRebalance:
    def test_join_rebalance_reallocates_and_stays_complete(
        self, tiny_workload
    ):
        filters, documents = tiny_workload
        config = _config()
        cluster = Cluster(config.cluster)
        system = MoveSystem(cluster, config)
        system.subscribe(filters)
        system.seed_frequencies(documents[:10])
        system.finalize_registration()
        cluster.add_node()
        cluster.add_node()
        moved = system.rebalance()
        assert moved > 0
        # Grids only reference current members.
        for table in system.plan.tables.values():
            for node_id in table.grid.all_nodes():
                assert node_id in cluster.nodes
        for document in documents[:15]:
            plan = system.publish(document)
            assert plan.matched_filter_ids == _oracle_ids(
                document, filters
            )

    def test_new_node_participates(self, tiny_workload):
        filters, documents = tiny_workload
        config = _config(num_nodes=4)
        cluster = Cluster(config.cluster)
        system = MoveSystem(cluster, config)
        system.subscribe(filters)
        system.seed_frequencies(documents[:10])
        system.finalize_registration()
        new_node = cluster.add_node()
        system.rebalance()
        appears = any(
            new_node.node_id in table.grid.all_nodes()
            for table in system.plan.tables.values()
        ) or any(
            system.home_of(term) == new_node.node_id
            for index in system._home_indexes.values()
            for term in index.terms()
        )
        assert appears

    def test_publish_between_join_and_rebalance(self, tiny_workload):
        # The joined node owns terms before any posting is handed
        # over: its home index is empty, not missing.
        filters, documents = tiny_workload
        config = _config()
        cluster = Cluster(config.cluster)
        system = MoveSystem(cluster, config)
        system.subscribe(filters)
        system.seed_frequencies(documents[:10])
        system.finalize_registration()
        cluster.add_node()
        cluster.add_node()
        for plan in system.publish_batch(documents[:20]):
            assert plan.matched_filter_ids <= _oracle_ids(
                plan.document, filters
            )
        assert system.rebalance() > 0
        for plan in system.publish_batch(documents[:20]):
            assert plan.matched_filter_ids == _oracle_ids(
                plan.document, filters
            )


@pytest.mark.parametrize("scheme", ["move", "il", "rs", "central"])
def test_unregister_between_join_and_rebalance(scheme):
    """Unregistering while a moved term's postings still sit on its old
    home removes the filter there too, so the hand-off that follows
    neither trips over a freed slab slot nor resurrects the filter."""
    bundle = ScaledWorkload(
        num_filters=400,
        num_documents=40,
        num_nodes=8,
        node_capacity=200,
        vocabulary_size=1_500,
        mean_doc_terms=24.0,
        seed=11,
    ).build()
    cluster, config = build_cluster(8, 200, seed=2)
    system = make_system(scheme, cluster, config)
    system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    cluster.add_node()
    dropped = set(random.Random(0).sample(sorted(system.subscriptions()), 100))
    for filter_id in sorted(dropped):
        system.unregister(filter_id)
    if hasattr(system, "rebalance"):
        system.rebalance()
    live = [f for f in bundle.filters if f.filter_id not in dropped]
    for plan in system.publish_batch(bundle.documents):
        assert plan.matched_filter_ids == _oracle_ids(plan.document, live)
