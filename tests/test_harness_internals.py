"""Unit tests for the throughput harness's cost internals."""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    ClusterThroughputHarness,
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.core import MoveSystem

WORKLOAD = ScaledWorkload(
    num_filters=200,
    num_documents=30,
    num_nodes=8,
    node_capacity=200,
    vocabulary_size=400,
    mean_doc_terms=12,
)


@pytest.fixture
def harness():
    bundle = WORKLOAD.build()
    cluster, config = build_cluster(
        WORKLOAD.num_nodes, WORKLOAD.node_capacity, seed=0
    )
    system = make_system("Move", cluster, config)
    system.subscribe(bundle.filters)
    system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return (
        ClusterThroughputHarness(system, cluster, injection_rate=1_000),
        bundle,
    )


class TestPayloadCosts:
    def test_same_node_hop_free(self, harness):
        runner, _ = harness
        node = runner.cluster.node_ids()[0]
        assert runner._hop_cost(node, node) == 0.0

    def test_intra_rack_discounted(self, harness):
        runner, _ = harness
        topology = runner.cluster.topology
        nodes = runner.cluster.node_ids()
        same_rack_pair = None
        cross_rack_pair = None
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                if topology.same_rack(a, b) and same_rack_pair is None:
                    same_rack_pair = (a, b)
                if not topology.same_rack(a, b) and cross_rack_pair is None:
                    cross_rack_pair = (a, b)
        assert same_rack_pair and cross_rack_pair
        assert runner._hop_cost(*same_rack_pair) < runner._hop_cost(
            *cross_rack_pair
        )

    def test_path_cost_sums_hops(self, harness):
        runner, _ = harness
        nodes = runner.cluster.node_ids()
        three_hop = runner._payload_cost(
            (nodes[0], nodes[1], nodes[2])
        )
        two_hop = runner._payload_cost((nodes[0], nodes[1]))
        assert three_hop >= two_hop

    def test_receive_cost_is_final_hop(self, harness):
        runner, _ = harness
        nodes = runner.cluster.node_ids()
        path = (nodes[0], nodes[1], nodes[2])
        assert runner._receive_cost(path) == runner._hop_cost(
            nodes[1], nodes[2]
        )
        assert runner._receive_cost((nodes[0],)) == 0.0


class TestPressureFactors:
    def test_under_knee_no_pressure(self, harness):
        runner, _ = harness
        factors = runner._pressure_factors()
        # The workload fits comfortably: every factor is 1.0.
        assert all(f >= 1.0 for f in factors.values())

    def test_overflow_raises_factor(self, harness):
        runner, _ = harness
        # Shrink the configured capacity and recompute.
        original = runner.system.config.allocation.node_capacity
        object.__setattr__(
            runner.system.config.allocation, "node_capacity", 1
        )
        try:
            factors = runner._pressure_factors()
            assert max(factors.values()) > 1.0
        finally:
            object.__setattr__(
                runner.system.config.allocation,
                "node_capacity",
                original,
            )


class TestMovementCharge:
    def test_allocation_movement_charged_once(self, harness):
        runner, _ = harness
        runner._charge_allocation_movement()
        busy_before = [
            node.server.queued_work + node.server.stats.busy_time
            for node in runner.cluster.nodes.values()
        ]
        # Some nodes received filter-copy transfer work.
        assert sum(busy_before) > 0

    def test_movement_respects_liveness(self, harness):
        runner, _ = harness
        for node_id in runner.cluster.node_ids()[:4]:
            runner.cluster.fail_node(node_id)
        # Charging must skip dead nodes without raising.
        runner._charge_allocation_movement()


class TestRunBehaviour:
    def test_empty_document_list(self, harness):
        runner, _ = harness
        result = runner.run([])
        assert result.completed == 0
        assert result.throughput == 0.0

    def test_documents_without_tasks_complete(self, harness):
        from repro.model import Document

        runner, _ = harness
        ghost = Document.from_terms("ghost", ["zzz-unknown-term"])
        result = runner.run([ghost])
        assert result.completed == 1
