"""Chaos test: rolling failures, recoveries and subscription churn.

Drives MOVE through an adversarial schedule — nodes failing and
recovering mid-stream, filters registered and unregistered between
publications, periodic reallocation — while checking the accounting
contract at every step and full completeness whenever the cluster is
healthy again.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.model import Document, Filter, brute_force_match


def _oracle_ids(document, registered):
    return {
        f.filter_id
        for f in brute_force_match(document, list(registered.values()))
    }


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_rolling_chaos_preserves_contract(tiny_workload, seed):
    filters, documents = tiny_workload
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=10, num_racks=2, seed=seed),
        allocation=AllocationConfig(node_capacity=400),
        expected_filter_terms=5_000,
        seed=seed,
    )
    cluster = Cluster(config.cluster)
    system = MoveSystem(cluster, config)
    system.subscribe(filters[:80])
    system.seed_frequencies(documents[:10])
    system.finalize_registration()

    rng = random.Random(seed)
    spare_filters = list(filters[80:])
    failed: list = []

    for step, document in enumerate(documents):
        action = rng.random()
        if action < 0.15 and len(failed) < 4:
            candidates = cluster.live_node_ids()
            victim = rng.choice(candidates)
            cluster.fail_node(victim)
            failed.append(victim)
        elif action < 0.30 and failed:
            cluster.recover_node(failed.pop())
        elif action < 0.40 and spare_filters:
            system.subscribe(spare_filters.pop())
        elif action < 0.50 and len(system.subscriptions()) > 10:
            victim_id = rng.choice(
                sorted(system.subscriptions())
            )
            system.unregister(victim_id)
        elif action < 0.55:
            system.reallocate()

        plan = system.publish(document)
        oracle = _oracle_ids(document, system.subscriptions())
        # Contract: no spurious matches; losses accounted.
        assert plan.matched_filter_ids <= oracle
        assert (oracle - plan.matched_filter_ids) <= (
            plan.unreachable_filter_ids
        )

    # Heal everything; completeness must fully return.
    while failed:
        cluster.recover_node(failed.pop())
    system.reallocate()
    for document in documents[:10]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(
            document, system.subscriptions()
        )
        assert not plan.unreachable_filter_ids
