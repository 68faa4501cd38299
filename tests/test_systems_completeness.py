"""Completeness invariant: every system finds exactly the oracle's
matching filters (paper Section V: "we can ensure all matching filters
... are found").

This is the central correctness property of the reproduction: IL, RS
and MOVE — with or without allocation, under any placement — must
deliver the same filter set as the brute-force oracle on a healthy
cluster.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import InvertedListSystem, RendezvousSystem
from repro.cluster import Cluster
from repro.config import (
    AllocationConfig,
    ClusterConfig,
    SystemConfig,
)
from repro.core import MoveSystem
from repro.model import Document, Filter, brute_force_match


def _config(num_nodes=8, capacity=200, placement="hybrid", **kwargs):
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=num_nodes, num_racks=2, seed=1),
        allocation=AllocationConfig(
            node_capacity=capacity, placement=placement
        ),
        expected_filter_terms=5_000,
        seed=1,
        **kwargs,
    )


def _build(scheme, filters, config=None, seed_docs=()):
    config = config or _config()
    cluster = Cluster(config.cluster)
    if scheme == "move":
        system = MoveSystem(cluster, config)
    elif scheme == "il":
        system = InvertedListSystem(cluster, config)
    else:
        system = RendezvousSystem(cluster, config)
    system.subscribe(filters)
    if scheme == "move" and seed_docs:
        system.seed_frequencies(seed_docs)
    system.finalize_registration()
    return system, cluster


def _oracle_ids(document, filters):
    return {f.filter_id for f in brute_force_match(document, filters)}


@pytest.mark.parametrize("scheme", ["move", "il", "rs"])
def test_completeness_on_generated_workload(scheme, tiny_workload):
    filters, documents = tiny_workload
    system, _ = _build(
        scheme, filters, seed_docs=documents[:10]
    )
    for document in documents:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)
        assert not plan.unreachable_filter_ids


@pytest.mark.parametrize("scheme", ["move", "il", "rs"])
def test_no_match_document(scheme, sample_filters):
    system, _ = _build(scheme, sample_filters)
    plan = system.publish(Document.from_terms("d", ["nothing", "here"]))
    assert plan.matched_filter_ids == set()


@pytest.mark.parametrize("placement", ["ring", "rack", "hybrid"])
def test_move_completeness_any_placement(placement, tiny_workload):
    filters, documents = tiny_workload
    system, _ = _build(
        "move",
        filters,
        config=_config(placement=placement),
        seed_docs=documents[:10],
    )
    for document in documents[:20]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


def test_move_completeness_without_bloom(tiny_workload):
    filters, documents = tiny_workload
    config = _config(use_bloom_filter=False)
    system, _ = _build(
        "move", filters, config=config, seed_docs=documents[:10]
    )
    for document in documents[:15]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


def test_move_completeness_under_tight_capacity(tiny_workload):
    # A capacity just above the per-node average forces separation on
    # the hot homes (columns > 1); coverage of every subset must still
    # be complete.
    filters, documents = tiny_workload
    config = _config(capacity=60)
    system, _ = _build(
        "move", filters, config=config, seed_docs=documents[:10]
    )
    assert system.plan is not None and system.plan.tables
    for document in documents[:20]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


def test_move_degenerates_to_il_when_budget_below_storage(tiny_workload):
    # When N*C is below the registered storage, no replication is
    # possible: MOVE keeps every home node local (no tables) and still
    # answers completely — the graceful-degeneration contract.
    filters, documents = tiny_workload
    config = _config(capacity=10)
    system, _ = _build(
        "move", filters, config=config, seed_docs=documents[:10]
    )
    assert system.plan is not None and not system.plan.tables
    for document in documents[:10]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


def test_move_without_frequency_stats_degenerates_to_il(tiny_workload):
    filters, documents = tiny_workload
    system, _ = _build("move", filters)  # no seeded corpus
    for document in documents[:10]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


@pytest.mark.parametrize("partition_level", [1, 2, 4, 8])
def test_rs_completeness_any_partition_level(
    partition_level, tiny_workload
):
    filters, documents = tiny_workload
    config = _config()
    cluster = Cluster(config.cluster)
    system = RendezvousSystem(
        cluster, config, partition_level=partition_level
    )
    system.subscribe(filters)
    for document in documents[:15]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


_term = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
)


@given(
    filter_terms=st.lists(
        st.sets(_term, min_size=1, max_size=3), min_size=1, max_size=15
    ),
    doc_terms=st.sets(_term, min_size=1, max_size=7),
)
@settings(max_examples=25, deadline=None)
def test_completeness_property_all_schemes(filter_terms, doc_terms):
    filters = [
        Filter.from_terms(f"f{i}", terms)
        for i, terms in enumerate(filter_terms)
    ]
    document = Document.from_terms("d", doc_terms)
    expected = _oracle_ids(document, filters)
    for scheme in ("move", "il", "rs"):
        system, _ = _build(
            scheme,
            filters,
            seed_docs=[document] if scheme == "move" else (),
        )
        plan = system.publish(document)
        assert plan.matched_filter_ids == expected, scheme


def test_filter_registered_after_allocation_is_found(tiny_workload):
    # Regression: a filter registered after finalize_registration must
    # be written through to the live allocation grids — otherwise
    # documents routed to the grid miss it until the next refresh.
    filters, documents = tiny_workload
    system, _ = _build("move", filters, seed_docs=documents[:10])
    assert system.plan is not None and system.plan.tables
    late = Filter.from_terms("late-filter", [next(iter(documents[0].terms))])
    system.subscribe(late)
    plan = system.publish(documents[0])
    all_filters = filters + [late]
    assert plan.matched_filter_ids == _oracle_ids(
        documents[0], all_filters
    )
    assert "late-filter" in plan.matched_filter_ids


def test_duplicate_registration_rejected(sample_filters):
    system, _ = _build("il", sample_filters)
    with pytest.raises(ValueError):
        system.subscribe(sample_filters[0])


def test_metrics_track_documents(tiny_workload):
    filters, documents = tiny_workload
    system, _ = _build("il", filters)
    for document in documents[:5]:
        system.publish(document)
    snapshot = system.metrics.snapshot()
    assert snapshot["documents_published"] == 5
    assert snapshot["filters_registered"] == len(filters)
