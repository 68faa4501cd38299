"""Tests for the virtual-clock periodic reallocation in the harness."""

from __future__ import annotations

import pytest

from repro.core import MoveSystem
from repro.experiments.harness import (
    ClusterThroughputHarness,
    ScaledWorkload,
    build_cluster,
    make_system,
)

WORKLOAD = ScaledWorkload(
    num_filters=300,
    num_documents=100,
    num_nodes=8,
    node_capacity=300,
    vocabulary_size=600,
    mean_doc_terms=15,
    injection_rate=100.0,  # 1s stream so refreshes fit inside it
)


def _harness(refresh_interval):
    bundle = WORKLOAD.build()
    cluster, config = build_cluster(
        WORKLOAD.num_nodes, WORKLOAD.node_capacity, seed=0
    )
    system = make_system("Move", cluster, config)
    system.subscribe(bundle.filters)
    system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return (
        ClusterThroughputHarness(
            system,
            cluster,
            injection_rate=WORKLOAD.injection_rate,
            refresh_interval=refresh_interval,
        ),
        bundle,
    )


def test_refreshes_fire_on_virtual_clock():
    harness, bundle = _harness(refresh_interval=0.25)
    result = harness.run(bundle.documents)
    # 100 docs at 100/s = 1s stream -> refreshes at 0.25/0.5/0.75/1.0.
    assert harness.refreshes_performed in (3, 4)
    assert result.completed == len(bundle.documents)


def test_no_interval_no_refreshes():
    harness, bundle = _harness(refresh_interval=None)
    harness.run(bundle.documents)
    assert harness.refreshes_performed == 0


def test_interval_longer_than_stream_never_fires():
    harness, bundle = _harness(refresh_interval=10.0)
    harness.run(bundle.documents)
    assert harness.refreshes_performed == 0


def test_refresh_is_noop_for_baselines():
    bundle = WORKLOAD.build()
    cluster, config = build_cluster(
        WORKLOAD.num_nodes, WORKLOAD.node_capacity, seed=0
    )
    system = make_system("IL", cluster, config)
    system.subscribe(bundle.filters)
    harness = ClusterThroughputHarness(
        system,
        cluster,
        injection_rate=WORKLOAD.injection_rate,
        refresh_interval=0.25,
    )
    result = harness.run(bundle.documents)
    assert harness.refreshes_performed == 0
    assert result.completed == len(bundle.documents)


def test_matching_stays_complete_through_refreshes():
    from repro.model import brute_force_match

    harness, bundle = _harness(refresh_interval=0.25)
    result = harness.run(bundle.documents)
    oracle_total = sum(
        len(brute_force_match(document, bundle.filters))
        for document in bundle.documents
    )
    assert result.total_matches == oracle_total
