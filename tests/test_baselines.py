"""Scheme-specific behaviour of the baselines (beyond completeness)."""

from __future__ import annotations

import pytest

from repro.baselines import (
    CentralizedSift,
    InvertedListSystem,
    NodeTask,
    RendezvousSystem,
)
from repro.cluster import Cluster
from repro.config import ClusterConfig, ConfigurationError, SystemConfig
from repro.errors import ConfigurationError
from repro.model import Document, Filter


def _config(num_nodes=8):
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=num_nodes, num_racks=2, seed=1),
        expected_filter_terms=1_000,
        seed=1,
    )


class TestNodeTask:
    def test_path_must_end_at_node(self):
        with pytest.raises(ValueError):
            NodeTask(
                node_id="n1",
                path=("a", "b"),
                posting_lists=0,
                posting_entries=0,
            )

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            NodeTask(
                node_id="n1",
                path=("a", "n1"),
                posting_lists=-1,
                posting_entries=0,
            )


class TestInvertedList:
    def test_filter_stored_on_home_of_each_term(self):
        config = _config()
        cluster = Cluster(config.cluster)
        system = InvertedListSystem(cluster, config)
        profile = Filter.from_terms("f", ["apple", "banana"])
        system.subscribe(profile)
        homes = {system.home_of("apple"), system.home_of("banana")}
        for home in homes:
            index = system.index_of(home)
            assert "f" in index
        # Posting list exists only for the home term (Section III-B).
        apple_home = system.home_of("apple")
        index = system.index_of(apple_home)
        assert index.posting_list("apple") is not None
        if system.home_of("banana") != apple_home:
            assert index.posting_list("banana") is None

    def test_storage_counts_term_replicas(self):
        config = _config()
        cluster = Cluster(config.cluster)
        system = InvertedListSystem(cluster, config)
        system.subscribe(Filter.from_terms("f", ["a", "b", "c"]))
        assert sum(system.storage_distribution().values()) == 3

    def test_tasks_grouped_per_home_node(self):
        config = _config()
        cluster = Cluster(config.cluster)
        system = InvertedListSystem(cluster, config)
        system.subscribe(Filter.from_terms("f", ["a", "b"]))
        plan = system.publish(Document.from_terms("d", ["a", "b"]))
        node_ids = [task.node_id for task in plan.tasks]
        assert len(node_ids) == len(set(node_ids))

    def test_bloom_prunes_unregistered_terms(self):
        config = _config()
        cluster = Cluster(config.cluster)
        system = InvertedListSystem(cluster, config)
        system.subscribe(Filter.from_terms("f", ["registered"]))
        doc = Document.from_terms(
            "d", ["registered"] + [f"junk{i}" for i in range(50)]
        )
        plan = system.publish(doc)
        # Without the bloom filter the routing fanout would be ~51.
        assert plan.routing_messages < 20


class TestRendezvous:
    def test_default_partition_level_gives_three_replicas(self):
        config = _config(num_nodes=9)
        cluster = Cluster(config.cluster)
        system = RendezvousSystem(cluster, config)
        assert system.partition_level == 3
        system.subscribe(Filter.from_terms("f", ["x"]))
        # Filter lands on every replica of its partition (9/3 = 3).
        stored = [v for v in system.storage_distribution().values() if v]
        assert sum(stored) == 3

    def test_every_partition_visited_per_document(self):
        config = _config(num_nodes=8)
        cluster = Cluster(config.cluster)
        system = RendezvousSystem(cluster, config, partition_level=4)
        system.subscribe(Filter.from_terms("f", ["x"]))
        plan = system.publish(Document.from_terms("d", ["anything"]))
        # Blind flooding: one task per partition even with no matches.
        assert len(plan.tasks) == 4

    def test_filters_evenly_distributed(self):
        config = _config(num_nodes=8)
        cluster = Cluster(config.cluster)
        system = RendezvousSystem(cluster, config, partition_level=4)
        for i in range(400):
            system.subscribe(Filter.from_terms(f"f{i}", [f"t{i}"]))
        storage = [
            v for v in system.storage_distribution().values() if v
        ]
        assert max(storage) / min(storage) < 1.6

    def test_sift_cost_scales_with_document_terms(self):
        config = _config()
        cluster = Cluster(config.cluster)
        system = RendezvousSystem(cluster, config, partition_level=1)
        for i in range(20):
            system.subscribe(Filter.from_terms(f"f{i}", [f"t{i}"]))
        small = system.publish(Document.from_terms("d1", ["t0"]))
        large = system.publish(
            Document.from_terms("d2", [f"t{i}" for i in range(20)])
        )
        assert (
            large.tasks[0].posting_lists
            > small.tasks[0].posting_lists
        )

    def test_invalid_partition_level(self):
        config = _config(num_nodes=4)
        cluster = Cluster(config.cluster)
        with pytest.raises(ConfigurationError):
            RendezvousSystem(cluster, config, partition_level=0)
        with pytest.raises(ConfigurationError):
            RendezvousSystem(cluster, config, partition_level=9)


class TestCentralizedSift:
    def test_match_returns_sharing_filters(self):
        node = CentralizedSift()
        node.register_all(
            [
                Filter.from_terms("f1", ["a"]),
                Filter.from_terms("f2", ["b"]),
            ]
        )
        matched = node.match(Document.from_terms("d", ["a"]))
        assert [f.filter_id for f in matched] == ["f1"]

    def test_batch_reports_costs(self):
        node = CentralizedSift()
        node.register_all(
            [Filter.from_terms(f"f{i}", ["t"]) for i in range(10)]
        )
        result = node.run_batch(
            [Document.from_terms("d", ["t", "u"])]
        )
        assert result.documents_matched == 1
        assert result.total_filters == 10
        assert result.total_posting_entries == 10
        assert result.total_match_seconds > 0
        assert result.document_throughput > 0
        assert result.pair_throughput == pytest.approx(
            result.document_throughput * 10
        )

    def test_batch_costs_without_rehydrating(self, monkeypatch):
        from repro.model.slab import FilterSlabStore

        node = CentralizedSift()
        node.register_all(
            [Filter.from_terms(f"f{i}", [f"t{i % 7}", "common"])
             for i in range(60)]
        )
        documents = [
            Document.from_terms("d1", ["t1", "t2", "absent"]),
            Document.from_terms("d2", ["common", "t3"]),
            Document.from_terms("d3", ["absent"]),
        ]
        expected = [
            node.index.match_document_all_terms(d)[1] for d in documents
        ]
        assert [node.index.all_terms_cost(d) for d in documents] == expected

        def no_get(self, slot):
            raise AssertionError("run_batch rehydrated a filter")

        monkeypatch.setattr(FilterSlabStore, "get", no_get)
        result = node.run_batch(documents)
        assert result.total_posting_entries == sum(
            cost.posting_entries for cost in expected
        )

    def test_disk_pressure_above_capacity(self):
        node = CentralizedSift(
            memory_capacity=5, disk_pressure_slope=1.0
        )
        node.register_all(
            [Filter.from_terms(f"f{i}", [f"t{i}"]) for i in range(10)]
        )
        assert node.disk_pressure_factor() == pytest.approx(2.0)

    def test_no_pressure_below_capacity(self):
        node = CentralizedSift(memory_capacity=100)
        node.register_all([Filter.from_terms("f", ["t"])])
        assert node.disk_pressure_factor() == 1.0

    def test_pressure_slows_batch(self):
        filters = [
            Filter.from_terms(f"f{i}", ["t"]) for i in range(10)
        ]
        doc = [Document.from_terms("d", ["t"])]
        fast = CentralizedSift(memory_capacity=1_000)
        fast.register_all(filters)
        slow = CentralizedSift(
            memory_capacity=5, disk_pressure_slope=2.0
        )
        slow.register_all(filters)
        assert (
            slow.run_batch(doc).total_match_seconds
            > fast.run_batch(doc).total_match_seconds
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CentralizedSift(memory_capacity=0)
        with pytest.raises(ValueError):
            CentralizedSift(disk_pressure_slope=-1)
