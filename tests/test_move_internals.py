"""White-box tests for MoveSystem's allocated state."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.model import Document, Filter


def _system(capacity=400, **alloc_kwargs):
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(
            node_capacity=capacity, **alloc_kwargs
        ),
        expected_filter_terms=5_000,
        seed=1,
    )
    return MoveSystem(Cluster(config.cluster), config)


@pytest.fixture
def allocated_system(tiny_workload):
    filters, documents = tiny_workload
    system = _system()
    system.subscribe(filters)
    system.seed_frequencies(documents[:10])
    system.finalize_registration()
    return system, filters, documents


class TestAllocatedState:
    def test_grid_holders_have_subset_indexes(self, allocated_system):
        system, _filters, _documents = allocated_system
        for home_id, table in system.plan.tables.items():
            for node_id in table.grid.all_nodes():
                index = system._allocated_indexes[node_id].get(home_id)
                assert index is not None

    def test_subsets_partition_home_filters(self, allocated_system):
        system, _filters, _documents = allocated_system
        for home_id, table in system.plan.tables.items():
            home_index = system._home_indexes[home_id]
            home_filter_ids = {
                f.filter_id for f in home_index.all_filters()
            }
            # Union of one row's subset indexes == the home's full set.
            row = table.grid.rows[0]
            covered = set()
            for node_id in row:
                index = system._allocated_indexes[node_id][home_id]
                covered.update(
                    f.filter_id for f in index.all_filters()
                )
            assert covered == home_filter_ids

    def test_replica_rows_hold_identical_subsets(self, allocated_system):
        system, _filters, _documents = allocated_system
        for home_id, table in system.plan.tables.items():
            grid = table.grid
            if grid.partition_count < 2:
                continue
            for subset in range(grid.subset_count):
                holders = grid.holders_of_subset(subset)
                reference = {
                    f.filter_id
                    for f in system._allocated_indexes[holders[0]][
                        home_id
                    ].all_filters()
                    if grid.subset_of(f.filter_id) == subset
                }
                for holder in holders[1:]:
                    other = {
                        f.filter_id
                        for f in system._allocated_indexes[holder][
                            home_id
                        ].all_filters()
                        if grid.subset_of(f.filter_id) == subset
                    }
                    assert other == reference

    def test_storage_distribution_covers_all_nodes(
        self, allocated_system
    ):
        system, _filters, _documents = allocated_system
        distribution = system.storage_distribution()
        assert set(distribution) == set(system.cluster.node_ids())
        assert all(v >= 0 for v in distribution.values())

    def test_allocation_summary_lines(self, allocated_system):
        system, _filters, _documents = allocated_system
        summary = system.allocation_summary()
        assert len(summary) == len(system.plan.tables)
        for line in summary:
            assert "partitions=" in line

    def test_movement_triples_reference_real_nodes(
        self, allocated_system
    ):
        system, _filters, _documents = allocated_system
        for home_id, node_id, count in system.allocation_movement():
            assert home_id in system.cluster.nodes
            assert node_id in system.cluster.nodes
            assert count > 0

    def test_reallocation_resets_allocated_state(self, allocated_system):
        system, _filters, documents = allocated_system
        before = {
            node: sorted(per_home)
            for node, per_home in system._allocated_indexes.items()
        }
        for document in documents[:20]:
            system.observe_document(document)
        system.reallocate()
        # State was rebuilt (structurally valid), not appended to.
        for node_id, per_home in system._allocated_indexes.items():
            for home_id in per_home:
                assert home_id in system.plan.tables


class TestMetricsSnapshot:
    def test_snapshot_counts(self, allocated_system):
        system, filters, documents = allocated_system
        for document in documents[:5]:
            system.publish(document)
        snapshot = system.metrics.snapshot()
        assert snapshot["filters_registered"] == len(filters)
        assert snapshot["documents_published"] == 5
