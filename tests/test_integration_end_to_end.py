"""End-to-end integration tests across subsystems.

These exercise paths that unit tests cover only in isolation: gossip
feeding failure knowledge, the DES harness driving real systems,
metrics consistency between publish-time accounting and harness
results, and determinism of full runs under a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.core import MoveSystem
from repro.experiments.harness import (
    ClusterThroughputHarness,
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.model import brute_force_match

WORKLOAD = ScaledWorkload(
    num_filters=400,
    num_documents=80,
    num_nodes=8,
    node_capacity=400,
    vocabulary_size=800,
    mean_doc_terms=20,
)


@pytest.fixture(scope="module")
def bundle():
    return WORKLOAD.build()


def _build(scheme, bundle, seed=0):
    cluster, config = build_cluster(
        WORKLOAD.num_nodes, WORKLOAD.node_capacity, seed=seed
    )
    system = make_system(scheme, cluster, config)
    system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system, cluster


class TestMetricsConsistency:
    @pytest.mark.parametrize("scheme", ["Move", "IL", "RS"])
    def test_received_documents_match_tasks(self, bundle, scheme):
        system, _cluster = _build(scheme, bundle)
        total_tasks = 0
        for document in bundle.documents:
            plan = system.publish(document)
            total_tasks += len(plan.tasks)
        received = system.metrics.load("documents_received")
        assert received.total() == pytest.approx(total_tasks)

    def test_harness_completions_equal_server_jobs(self, bundle):
        system, cluster = _build("IL", bundle)
        harness = ClusterThroughputHarness(
            system, cluster, injection_rate=1_000
        )
        result = harness.run(bundle.documents)
        jobs = sum(
            node.server.stats.jobs_completed
            for node in cluster.nodes.values()
        )
        # Every task became exactly one completed disk job.
        total_tasks = sum(
            1
            for _doc in []  # placeholder: tasks counted via metrics
        )
        received = system.metrics.load("documents_received")
        assert jobs == int(received.total())
        assert result.completed == len(bundle.documents)


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["Move", "IL", "RS"])
    def test_same_seed_same_results(self, bundle, scheme):
        first_system, first_cluster = _build(scheme, bundle, seed=3)
        second_system, second_cluster = _build(scheme, bundle, seed=3)
        first_matches = [
            sorted(first_system.publish(d).matched_filter_ids)
            for d in bundle.documents[:20]
        ]
        second_matches = [
            sorted(second_system.publish(d).matched_filter_ids)
            for d in bundle.documents[:20]
        ]
        assert first_matches == second_matches

    def test_harness_run_deterministic(self, bundle):
        results = []
        for _ in range(2):
            system, cluster = _build("Move", bundle, seed=5)
            harness = ClusterThroughputHarness(
                system, cluster, injection_rate=1_000
            )
            results.append(harness.run(bundle.documents))
        assert results[0].throughput == pytest.approx(
            results[1].throughput
        )
        assert results[0].total_matches == results[1].total_matches


class TestGossipFailureIntegration:
    def test_gossip_detects_harness_failures(self, bundle):
        system, cluster = _build("Move", bundle)
        victims = cluster.fail_fraction(
            0.25, __import__("random").Random(1)
        )
        cluster.membership.tick(12)
        for survivor in cluster.live_node_ids():
            view = cluster.membership.view_of(survivor)
            live = view.live_nodes()
            for victim in victims:
                assert victim not in live

    def test_matching_continues_under_gossiped_failures(self, bundle):
        system, cluster = _build("Move", bundle)
        cluster.fail_fraction(0.25, __import__("random").Random(2))
        cluster.membership.tick(12)
        for document in bundle.documents[:10]:
            plan = system.publish(document)
            expected = {
                f.filter_id
                for f in brute_force_match(document, bundle.filters)
            }
            assert plan.matched_filter_ids <= expected


class TestStorageIntegration:
    def test_filters_stored_on_home_of_each_term(self, bundle):
        system, cluster = _build("Move", bundle)
        # Every filter is stored on the home node of each of its terms,
        # indexed there under that term: one replica per (filter, term).
        for profile in bundle.filters:
            for term in profile.terms:
                home_index = system._home_indexes[system.home_of(term)]
                assert profile.filter_id in home_index
        stored = sum(
            index.stored_replica_count()
            for index in system._home_indexes.values()
        )
        assert stored == sum(len(p.terms) for p in bundle.filters)
