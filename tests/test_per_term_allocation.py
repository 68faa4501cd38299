"""Tests for the per-term allocation mode (aggregate_per_node=False).

Section V rejects per-term forwarding tables as too costly to maintain
(millions of terms vs hundreds of nodes) and aggregates statistics per
home node instead.  The per-term mode is kept as an ablation; these
tests verify it is correct (completeness) and that it indeed maintains
far more forwarding state than the aggregated mode.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.model import Document, Filter, brute_force_match


def _config(aggregate: bool, capacity: int = 400):
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(
            node_capacity=capacity, aggregate_per_node=aggregate
        ),
        expected_filter_terms=5_000,
        seed=1,
    )


def _build(aggregate: bool, filters, seed_docs, capacity: int = 400):
    config = _config(aggregate, capacity)
    cluster = Cluster(config.cluster)
    system = MoveSystem(cluster, config)
    system.subscribe(filters)
    system.seed_frequencies(seed_docs)
    system.finalize_registration()
    return system


def _oracle_ids(document, filters):
    return {f.filter_id for f in brute_force_match(document, filters)}


def test_per_term_mode_produces_tables(tiny_workload):
    filters, documents = tiny_workload
    system = _build(False, filters, documents[:10])
    assert system.plan is not None and system.plan.tables
    # Tables are keyed by terms, not node ids.
    assert all(
        not key.startswith("node") for key in system.plan.tables
    )


def test_per_term_completeness(tiny_workload):
    filters, documents = tiny_workload
    system = _build(False, filters, documents[:10])
    for document in documents[:25]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)
        assert not plan.unreachable_filter_ids


def test_per_term_write_through(tiny_workload):
    filters, documents = tiny_workload
    system = _build(False, filters, documents[:10])
    hot_term = next(iter(system.plan.tables))
    late = Filter.from_terms("late", [hot_term])
    system.subscribe(late)
    document = Document.from_terms("d-late", [hot_term])
    plan = system.publish(document)
    assert "late" in plan.matched_filter_ids


def test_per_term_maintains_more_tables(tiny_workload):
    filters, documents = tiny_workload
    aggregated = _build(True, filters, documents[:10])
    per_term = _build(False, filters, documents[:10])
    # The maintenance-cost argument of Section V: node aggregation
    # caps the table count at the node count; per-term mode scales
    # with the (much larger) term count.
    assert len(aggregated.plan.tables) <= len(aggregated.cluster.nodes)
    assert len(per_term.plan.tables) > len(aggregated.plan.tables)


def test_per_term_grid_homes_are_nodes(tiny_workload):
    filters, documents = tiny_workload
    system = _build(False, filters, documents[:10])
    for term, table in system.plan.tables.items():
        assert table.grid.home_node == system.home_of(term)
        assert term not in system.cluster.nodes
