"""Bulk registration must be observationally identical to the loop.

``subscribe(profiles)`` amortizes posting-list maintenance (one sort
per posting list via ``InvertedIndex.add_filters`` instead of one
sorted insert per filter replica) but must leave the system in exactly
the state one-at-a-time ``subscribe([profile])`` calls produce: same
placement, same metrics, same Bloom contents — and therefore identical
dissemination plans afterwards.
"""

from __future__ import annotations

import pytest

from repro.baselines import DisseminationSystem
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)

SCHEMES = ["move", "il", "rs", "central"]

WORKLOAD = ScaledWorkload(num_filters=400, num_documents=25, seed=7)


def _fresh(scheme):
    bundle = WORKLOAD.build()
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=3
    )
    return bundle, make_system(scheme, cluster, config)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bulk_matches_sequential_state(scheme):
    bundle, sequential = _fresh(scheme)
    _, bulk = _fresh(scheme)
    for profile in bundle.filters:
        sequential.subscribe([profile])
    bulk.subscribe(bundle.filters)
    assert bulk.subscriptions() == sequential.subscriptions()
    assert (
        bulk.storage_distribution() == sequential.storage_distribution()
    )
    assert (
        bulk.metrics.counter("filters_registered").value
        == sequential.metrics.counter("filters_registered").value
        == len(bundle.filters)
    )
    assert (
        bulk.metrics.load("storage_replicas").as_dict()
        == sequential.metrics.load("storage_replicas").as_dict()
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bulk_matches_sequential_plans(scheme):
    bundle, sequential = _fresh(scheme)
    _, bulk = _fresh(scheme)
    for profile in bundle.filters:
        sequential.subscribe([profile])
    bulk.subscribe(bundle.filters)
    for system in (sequential, bulk):
        if hasattr(system, "seed_frequencies"):
            system.seed_frequencies(bundle.offline_corpus())
        system.finalize_registration()
    for slow_plan, fast_plan in zip(
        sequential.publish_batch(bundle.documents),
        bulk.publish_batch(bundle.documents),
    ):
        assert (
            slow_plan.matched_filter_ids == fast_plan.matched_filter_ids
        )
        assert slow_plan.tasks == fast_plan.tasks
        assert slow_plan.routing_messages == fast_plan.routing_messages


@pytest.mark.parametrize("scheme", SCHEMES)
def test_duplicate_in_batch_rejected_before_any_placement(scheme):
    bundle, system = _fresh(scheme)
    batch = list(bundle.filters[:10]) + [bundle.filters[3]]
    with pytest.raises(ValueError):
        system.subscribe(batch)
    # All-or-nothing: nothing registered, nothing placed.
    assert system.total_filters == 0
    assert system.metrics.counter("filters_registered").value == 0
    assert len(system.filter_slab) == 0
    assert not any(system.storage_distribution().values())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_duplicate_against_registry_rejected(scheme):
    bundle, system = _fresh(scheme)
    system.subscribe(bundle.filters[0])
    with pytest.raises(ValueError):
        system.subscribe(bundle.filters[:5])
    assert system.total_filters == 1


def test_empty_batch_is_a_no_op():
    bundle, system = _fresh("il")
    system.subscribe([])
    assert system.total_filters == 0
    assert system.metrics.counter("filters_registered").value == 0


def test_default_batch_falls_back_to_per_filter_loop():
    """A scheme without a bulk override still gets bulk subscribe."""
    registered = []

    class MinimalSystem(DisseminationSystem):
        def _register(self, profile):
            registered.append(profile.filter_id)

        def _choose_ingest(self):
            return "node0"

    bundle, _ = _fresh("il")
    system = MinimalSystem()
    system.subscribe(bundle.filters[:8])
    assert registered == [
        profile.filter_id for profile in bundle.filters[:8]
    ]
    assert system.total_filters == 8
