"""Tests for the proactive/passive allocation policies."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import (
    MoveSystem,
    PassivePolicy,
    ProactivePolicy,
    run_policy,
)
from repro.model import brute_force_match


def _system():
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(node_capacity=400),
        expected_filter_terms=5_000,
        seed=1,
    )
    return MoveSystem(Cluster(config.cluster), config)


class TestProactivePolicy:
    def test_allocates_before_publication(self, tiny_workload):
        filters, documents = tiny_workload
        system = _system()
        system.subscribe(filters)
        policy = ProactivePolicy()
        policy.prepare(system, documents[:10])
        assert system.plan is not None and system.plan.tables
        assert policy.allocations == 1

    def test_periodic_refresh(self, tiny_workload):
        filters, documents = tiny_workload
        system = _system()
        system.subscribe(filters)
        policy = ProactivePolicy(refresh_every=5)
        report = run_policy(
            policy, system, documents[:10], documents[:20]
        )
        # Initial allocation plus refreshes at 5, 10, 15, 20.
        assert report.allocations == 5

    def test_invalid_refresh(self):
        with pytest.raises(ValueError):
            ProactivePolicy(refresh_every=0)


class TestPassivePolicy:
    def test_no_allocation_during_learning(self, tiny_workload):
        filters, documents = tiny_workload
        system = _system()
        system.subscribe(filters)
        policy = PassivePolicy(learn_documents=10)
        policy.prepare(system, documents[:10])
        assert system.plan is None
        for index, document in enumerate(documents[:9], start=1):
            system.publish(document)
            policy.on_documents_published(system, index)
        assert system.plan is None

    def test_allocates_after_learning(self, tiny_workload):
        filters, documents = tiny_workload
        system = _system()
        system.subscribe(filters)
        policy = PassivePolicy(learn_documents=5)
        for index, document in enumerate(documents[:10], start=1):
            system.publish(document)
            policy.on_documents_published(system, index)
        assert system.plan is not None and system.plan.tables
        assert policy.allocations == 1

    def test_completeness_through_transition(self, tiny_workload):
        filters, documents = tiny_workload
        system = _system()
        system.subscribe(filters)
        policy = PassivePolicy(learn_documents=5)
        for index, document in enumerate(documents[:15], start=1):
            plan = system.publish(document)
            expected = {
                f.filter_id for f in brute_force_match(document, filters)
            }
            assert plan.matched_filter_ids == expected
            policy.on_documents_published(system, index)

    def test_invalid_learning_window(self):
        with pytest.raises(ValueError):
            PassivePolicy(learn_documents=0)


class TestRunPolicy:
    def test_report_fields(self, tiny_workload):
        filters, documents = tiny_workload
        system = _system()
        system.subscribe(filters)
        report = run_policy(
            ProactivePolicy(), system, documents[:10], documents[:20]
        )
        assert report.policy == "proactive"
        assert report.documents == 20
        assert report.warmup_hot_entries >= 0
        assert report.steady_hot_entries >= 0

    def test_passive_suffers_hotter_warmup(self):
        # Section V's argument for proactive allocation: during the
        # learning window the passive policy's hot home node absorbs
        # matching work the proactive policy had already spread.  A
        # single hot term makes the effect deterministic: proactive
        # pre-spreads its filters over a grid; passive funnels every
        # warmup document into the one home node.
        from repro.model import Document, Filter

        filters = [
            Filter.from_terms(f"f{i}", ["hot", f"extra{i}"])
            for i in range(60)
        ]
        offline = [
            Document.from_terms(f"s{i}", ["hot"]) for i in range(10)
        ]
        stream = [
            Document.from_terms(f"d{i}", ["hot", f"noise{i}"])
            for i in range(40)
        ]
        proactive_system = _system()
        proactive_system.subscribe(filters)
        proactive = run_policy(
            ProactivePolicy(), proactive_system, offline, stream
        )
        passive_system = _system()
        passive_system.subscribe(filters)
        passive = run_policy(
            PassivePolicy(learn_documents=20),
            passive_system,
            offline,
            stream,
        )
        assert (
            passive.warmup_hot_entries
            > proactive.warmup_hot_entries
        )

    def test_invalid_warmup_fraction(self, tiny_workload):
        filters, documents = tiny_workload
        system = _system()
        system.subscribe(filters)
        with pytest.raises(ValueError):
            run_policy(
                ProactivePolicy(),
                system,
                documents[:5],
                documents[:10],
                warmup_fraction=1.5,
            )
