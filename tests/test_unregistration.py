"""Subscription churn: unregistering filters across all systems."""

from __future__ import annotations

import pytest

from repro.baselines import (
    CentralizedSystem,
    InvertedListSystem,
    RendezvousSystem,
)
from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.model import Document, Filter, brute_force_match


def _config():
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(node_capacity=400),
        expected_filter_terms=5_000,
        seed=1,
    )


def _build(scheme, filters, seed_docs=()):
    config = _config()
    cluster = Cluster(config.cluster)
    if scheme == "move":
        system = MoveSystem(cluster, config)
    elif scheme == "il":
        system = InvertedListSystem(cluster, config)
    elif scheme == "central":
        system = CentralizedSystem(cluster, config)
    else:
        system = RendezvousSystem(cluster, config)
    system.subscribe(filters)
    if scheme == "move" and seed_docs:
        system.seed_frequencies(seed_docs)
    system.finalize_registration()
    return system


def _oracle_ids(document, filters):
    return {f.filter_id for f in brute_force_match(document, filters)}


@pytest.mark.parametrize("scheme", ["move", "il", "rs", "central"])
def test_unregistered_filter_no_longer_matches(scheme, tiny_workload):
    filters, documents = tiny_workload
    system = _build(scheme, filters, seed_docs=documents[:10])
    victim = filters[0]
    system.unregister(victim.filter_id)
    remaining = filters[1:]
    for document in documents[:20]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(
            document, remaining
        )


@pytest.mark.parametrize("scheme", ["move", "il", "rs", "central"])
def test_unregister_unknown_raises(scheme, tiny_workload):
    filters, documents = tiny_workload
    system = _build(scheme, filters[:5])
    with pytest.raises(KeyError):
        system.unregister("ghost")


def test_unregister_then_reregister(tiny_workload):
    filters, documents = tiny_workload
    system = _build("move", filters, seed_docs=documents[:10])
    victim = filters[0]
    system.unregister(victim.filter_id)
    system.subscribe(victim)
    for document in documents[:10]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


def test_move_unregister_updates_popularity(tiny_workload):
    filters, documents = tiny_workload
    system = _build("move", filters, seed_docs=documents[:10])
    before = system.term_stats.popularity.total_filters
    system.unregister(filters[0].filter_id)
    assert system.term_stats.popularity.total_filters == before - 1


def test_unregister_survives_reallocation(tiny_workload):
    filters, documents = tiny_workload
    system = _build("move", filters, seed_docs=documents[:10])
    system.unregister(filters[0].filter_id)
    system.reallocate()
    remaining = filters[1:]
    for document in documents[:10]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(
            document, remaining
        )


def test_counter_tracks_unregistrations(tiny_workload):
    filters, _documents = tiny_workload
    system = _build("il", filters)
    system.unregister(filters[0].filter_id)
    system.unregister(filters[1].filter_id)
    assert (
        system.metrics.counter("filters_unregistered").value == 2
    )


def test_failed_unregister_keeps_registry_consistent(tiny_workload):
    """Regression: a scheme whose ``_unregister`` raises must not lose
    the filter from the registry — its placement structures still hold
    it, and a retry (or a later successful removal) must see it."""
    filters, documents = tiny_workload

    class ChurnlessSystem(InvertedListSystem):
        def _unregister(self, profile):
            raise NotImplementedError("no churn support")

    config = _config()
    cluster = Cluster(config.cluster)
    system = ChurnlessSystem(cluster, config)
    system.subscribe(filters[:5])
    victim = filters[0]
    with pytest.raises(NotImplementedError):
        system.unregister(victim.filter_id)
    # Still registered, still matching, and not double-registrable.
    assert victim.filter_id in system.subscriptions()
    assert (
        system.metrics.counter("filters_unregistered").value == 0
    )
    with pytest.raises(ValueError):
        system.subscribe(victim)
    for document in documents[:10]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(
            document, filters[:5]
        )
