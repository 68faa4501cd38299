"""Edge-case coverage across the public API.

Single-node clusters, degenerate documents, extreme filter shapes,
empty systems — the corners where off-by-one logic tends to live.
"""

from __future__ import annotations

import pytest

from repro.baselines import InvertedListSystem, RendezvousSystem
from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.model import Document, Filter, brute_force_match


def _config(num_nodes=1, num_racks=1):
    return SystemConfig(
        cluster=ClusterConfig(
            num_nodes=num_nodes, num_racks=num_racks, seed=1
        ),
        allocation=AllocationConfig(node_capacity=100),
        expected_filter_terms=100,
        seed=1,
    )


class TestSingleNodeCluster:
    @pytest.mark.parametrize(
        "scheme_cls", [MoveSystem, InvertedListSystem, RendezvousSystem]
    )
    def test_all_schemes_work_on_one_node(self, scheme_cls):
        config = _config(num_nodes=1)
        system = scheme_cls(Cluster(config.cluster), config)
        system.subscribe(Filter.from_terms("f", ["x"]))
        system.finalize_registration()
        plan = system.publish(Document.from_terms("d", ["x", "y"]))
        assert plan.matched_filter_ids == {"f"}
        assert plan.fanout == 1

    def test_move_cannot_allocate_on_one_node(self):
        # No candidate nodes besides the home: graceful degeneration.
        config = _config(num_nodes=1)
        system = MoveSystem(Cluster(config.cluster), config)
        system.subscribe(Filter.from_terms("f", ["x"]))
        system.seed_frequencies([Document.from_terms("s", ["x"])])
        system.finalize_registration()
        assert not system.plan.tables
        plan = system.publish(Document.from_terms("d", ["x"]))
        assert plan.matched_filter_ids == {"f"}


class TestDegenerateDocuments:
    @pytest.fixture
    def system(self):
        config = _config(num_nodes=4, num_racks=2)
        system = InvertedListSystem(Cluster(config.cluster), config)
        system.subscribe(Filter.from_terms("f", ["alpha"]))
        return system

    def test_single_term_document(self, system):
        plan = system.publish(Document.from_terms("d", ["alpha"]))
        assert plan.matched_filter_ids == {"f"}

    def test_document_of_only_unknown_terms(self, system):
        plan = system.publish(
            Document.from_terms("d", [f"junk{i}" for i in range(30)])
        )
        assert plan.matched_filter_ids == set()
        # Bloom pruning keeps the routing fanout tiny.
        assert plan.routing_messages <= 3

    def test_huge_document(self, system):
        terms = ["alpha"] + [f"w{i}" for i in range(5_000)]
        plan = system.publish(Document.from_terms("big", terms))
        assert plan.matched_filter_ids == {"f"}

    def test_republishing_same_document(self, system):
        document = Document.from_terms("dup", ["alpha"])
        first = system.publish(document)
        second = system.publish(document)
        assert (
            first.matched_filter_ids == second.matched_filter_ids
        )


class TestExtremeFilters:
    def test_many_term_filter(self):
        config = _config(num_nodes=4, num_racks=2)
        system = MoveSystem(Cluster(config.cluster), config)
        wide = Filter.from_terms("wide", [f"t{i}" for i in range(50)])
        system.subscribe(wide)
        system.finalize_registration()
        plan = system.publish(Document.from_terms("d", ["t17"]))
        assert plan.matched_filter_ids == {"wide"}

    def test_identical_term_sets_different_ids(self):
        config = _config(num_nodes=4, num_racks=2)
        system = InvertedListSystem(Cluster(config.cluster), config)
        system.subscribe(Filter.from_terms("a", ["x", "y"]))
        system.subscribe(Filter.from_terms("b", ["x", "y"]))
        plan = system.publish(Document.from_terms("d", ["x"]))
        assert plan.matched_filter_ids == {"a", "b"}

    def test_thousands_of_single_term_filters_one_term(self):
        # The extreme hot term: every filter identical.
        config = _config(num_nodes=4, num_racks=2)
        system = MoveSystem(Cluster(config.cluster), config)
        filters = [
            Filter.from_terms(f"f{i}", ["hot"]) for i in range(500)
        ]
        system.subscribe(filters)
        system.seed_frequencies(
            [Document.from_terms("s", ["hot"])]
        )
        system.finalize_registration()
        plan = system.publish(Document.from_terms("d", ["hot"]))
        assert len(plan.matched_filter_ids) == 500


class TestEmptySystems:
    @pytest.mark.parametrize(
        "scheme_cls", [MoveSystem, InvertedListSystem, RendezvousSystem]
    )
    def test_publish_with_no_filters(self, scheme_cls):
        config = _config(num_nodes=4, num_racks=2)
        system = scheme_cls(Cluster(config.cluster), config)
        system.finalize_registration()
        plan = system.publish(Document.from_terms("d", ["x"]))
        assert plan.matched_filter_ids == set()

    def test_move_reallocate_without_filters(self):
        config = _config(num_nodes=4, num_racks=2)
        system = MoveSystem(Cluster(config.cluster), config)
        system.reallocate()
        assert system.plan is not None
        assert not system.plan.tables


class TestOracleAgreementOnEdgeCases:
    def test_two_node_cluster_with_skew(self):
        config = _config(num_nodes=2, num_racks=1)
        system = MoveSystem(Cluster(config.cluster), config)
        filters = [
            Filter.from_terms(f"f{i}", ["common", f"rare{i}"])
            for i in range(30)
        ]
        system.subscribe(filters)
        system.seed_frequencies(
            [Document.from_terms("s", ["common"])]
        )
        system.finalize_registration()
        for terms in (["common"], ["rare3"], ["common", "rare7"]):
            document = Document.from_terms("-".join(terms), terms)
            expected = {
                f.filter_id for f in brute_force_match(document, filters)
            }
            plan = system.publish(document)
            assert plan.matched_filter_ids == expected
