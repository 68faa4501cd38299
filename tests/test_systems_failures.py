"""Failure-injection behaviour of the three systems (Figure 9 c/d)."""

from __future__ import annotations

import pytest

from repro.baselines import InvertedListSystem, RendezvousSystem
from repro.cluster import Cluster
from repro.config import (
    AllocationConfig,
    ClusterConfig,
    SystemConfig,
)
from repro.core import MoveSystem
from repro.model import Document, Filter, brute_force_match


def _config(placement="hybrid", capacity=200):
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(
            node_capacity=capacity, placement=placement
        ),
        expected_filter_terms=5_000,
        seed=1,
    )


def _oracle_ids(document, filters):
    return {f.filter_id for f in brute_force_match(document, filters)}


class TestILFailures:
    def test_dead_home_node_loses_its_terms(self, tiny_workload):
        filters, documents = tiny_workload
        config = _config()
        cluster = Cluster(config.cluster)
        system = InvertedListSystem(cluster, config)
        system.subscribe(filters)
        document = documents[0]
        healthy = system.publish(document)
        # Fail the home node handling the most terms of this document.
        victim = healthy.tasks[0].node_id
        cluster.fail_node(victim)
        degraded = system.publish(document)
        missing = (
            healthy.matched_filter_ids - degraded.matched_filter_ids
        )
        # Whatever is missing is reported unreachable, and nothing new
        # appears.
        assert missing <= degraded.unreachable_filter_ids | set()
        assert degraded.matched_filter_ids <= healthy.matched_filter_ids

    def test_ingest_skips_dead_nodes(self, tiny_workload):
        filters, documents = tiny_workload
        config = _config()
        cluster = Cluster(config.cluster)
        system = InvertedListSystem(cluster, config)
        system.subscribe(filters)
        for node_id in cluster.node_ids()[:4]:
            cluster.fail_node(node_id)
        plan = system.publish(documents[0])
        for task in plan.tasks:
            assert cluster.node(task.node_id).alive


class TestRSFailures:
    def test_replica_failover_within_partition(self, tiny_workload):
        filters, documents = tiny_workload
        config = _config()
        cluster = Cluster(config.cluster)
        system = RendezvousSystem(cluster, config, partition_level=2)
        system.subscribe(filters)
        # Each partition has 4 replicas; kill one replica of each.
        for partition in system._partitions:
            cluster.fail_node(partition[0])
        for document in documents[:10]:
            plan = system.publish(document)
            assert plan.matched_filter_ids == _oracle_ids(
                document, filters
            )

    def test_whole_partition_down_loses_share(self, tiny_workload):
        filters, documents = tiny_workload
        config = _config()
        cluster = Cluster(config.cluster)
        system = RendezvousSystem(cluster, config, partition_level=4)
        system.subscribe(filters)
        for node_id in system._partitions[0]:
            cluster.fail_node(node_id)
        lost_any = False
        for document in documents[:10]:
            plan = system.publish(document)
            expected = _oracle_ids(document, filters)
            assert plan.matched_filter_ids <= expected
            if plan.matched_filter_ids != expected:
                lost_any = True
                assert plan.unreachable_filter_ids
        assert lost_any


class TestMoveFailures:
    def _system(self, filters, documents, placement):
        config = _config(placement=placement, capacity=100)
        cluster = Cluster(config.cluster)
        system = MoveSystem(cluster, config)
        system.subscribe(filters)
        system.seed_frequencies(documents[:10])
        system.finalize_registration()
        return system, cluster

    def test_partition_fallback_keeps_completeness(self, tiny_workload):
        filters, documents = tiny_workload
        system, cluster = self._system(filters, documents, "hybrid")
        assert system.plan.tables
        # Kill one grid node of some table.  The victim may also be
        # the home node of other terms, so full completeness is only
        # guaranteed for documents whose terms are homed elsewhere;
        # those route around the dead grid slot via fallback rows.
        home, table = next(iter(system.plan.tables.items()))
        victim = table.grid.rows[0][0]
        cluster.fail_node(victim)
        checked = 0
        for document in documents:
            plan = system.publish(document)
            expected = _oracle_ids(document, filters)
            assert plan.matched_filter_ids <= expected
            # Anything lost must be accounted as unreachable.
            assert (
                expected - plan.matched_filter_ids
            ) <= plan.unreachable_filter_ids
            if all(
                system.home_of(term) != victim
                for term in document.terms
            ):
                assert plan.matched_filter_ids == expected
                checked += 1
        assert checked > 0

    def test_home_fallback_when_all_copies_dead(self):
        # One hot term concentrates every filter on a single home
        # node; killing that home's entire grid leaves the (live) home
        # to match locally from its retained full copy.
        filters = [
            Filter.from_terms(f"f{i}", ["hot", f"extra{i}"])
            for i in range(40)
        ]
        seed_docs = [
            Document.from_terms(f"s{i}", ["hot"]) for i in range(10)
        ]
        config = _config(placement="hybrid", capacity=60)
        cluster = Cluster(config.cluster)
        system = MoveSystem(cluster, config)
        system.subscribe(filters)
        system.seed_frequencies(seed_docs)
        system.finalize_registration()
        hot_home = system.home_of("hot")
        table = system.plan.tables.get(hot_home)
        assert table is not None
        for node_id in set(table.grid.all_nodes()):
            cluster.fail_node(node_id)
        document = Document.from_terms("d", ["hot"])
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)
        # The work fell back to the home node itself.
        assert any(task.node_id == hot_home for task in plan.tasks)

    def test_rack_placement_loses_filters_on_rack_failure(
        self, tiny_workload
    ):
        filters, documents = tiny_workload
        system, cluster = self._system(filters, documents, "rack")
        # Fail an entire rack: homes in that rack lose themselves AND
        # every copy (all placed in-rack).
        rack = cluster.topology.racks()[0]
        cluster.fail_rack(rack)
        total_missing = 0
        for document in documents[:20]:
            plan = system.publish(document)
            expected = _oracle_ids(document, filters)
            assert plan.matched_filter_ids <= expected
            total_missing += len(expected - plan.matched_filter_ids)
        assert total_missing > 0

    def test_ring_placement_survives_rack_failure(self, tiny_workload):
        filters, documents = tiny_workload
        system, cluster = self._system(filters, documents, "ring")
        rack = cluster.topology.racks()[0]
        cluster.fail_rack(rack)
        missing = 0
        for document in documents[:20]:
            plan = system.publish(document)
            expected = _oracle_ids(document, filters)
            missing += len(expected - plan.matched_filter_ids)
        # Ring placement spreads copies across racks; losses should be
        # far rarer than under rack placement (frequently zero).
        rack_system, rack_cluster = self._system(
            filters, documents, "rack"
        )
        rack_cluster.fail_rack(rack_cluster.topology.racks()[0])
        rack_missing = 0
        for document in documents[:20]:
            plan = rack_system.publish(document)
            expected = _oracle_ids(document, filters)
            rack_missing += len(expected - plan.matched_filter_ids)
        assert missing <= rack_missing
