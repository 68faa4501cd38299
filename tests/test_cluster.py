"""Tests for cluster orchestration: rack layout, lookup, failure
injection and node joins."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import UnknownNodeError


@pytest.fixture
def cluster():
    return Cluster(ClusterConfig(num_nodes=9, num_racks=3, seed=2))


class TestCluster:
    def test_nodes_created_with_racks(self, cluster):
        assert len(cluster) == 9
        racks = {node.rack for node in cluster.nodes.values()}
        assert len(racks) == 3

    def test_home_node_lookup(self, cluster):
        node = cluster.home_node("term")
        assert node.node_id in cluster.nodes

    def test_unknown_node_raises(self, cluster):
        with pytest.raises(UnknownNodeError):
            cluster.node("ghost")

    def test_fail_and_recover(self, cluster):
        cluster.fail_node("node000")
        assert not cluster.node("node000").alive
        assert "node000" not in cluster.live_node_ids()
        assert cluster.membership.is_crashed("node000")
        cluster.recover_node("node000")
        assert cluster.node("node000").alive

    def test_fail_idempotent(self, cluster):
        cluster.fail_node("node000")
        cluster.fail_node("node000")
        assert len(cluster.live_node_ids()) == 8

    def test_fail_fraction(self, cluster):
        victims = cluster.fail_fraction(0.33, random.Random(1))
        assert len(victims) == 3
        assert len(cluster.live_node_ids()) == 6

    def test_fail_fraction_excludes(self, cluster):
        victims = cluster.fail_fraction(
            1.0, random.Random(1), exclude=["node000"]
        )
        assert "node000" not in victims
        assert cluster.node("node000").alive

    def test_fail_rack(self, cluster):
        rack = cluster.topology.rack_of("node000")
        victims = cluster.fail_rack(rack)
        assert len(victims) == 3
        for node_id in victims:
            assert not cluster.node(node_id).alive

    def test_invalid_fraction(self, cluster):
        with pytest.raises(ValueError):
            cluster.fail_fraction(1.5, random.Random(1))

    def test_add_node_joins_everything(self, cluster):
        node = cluster.add_node()
        assert node.node_id in cluster.nodes
        assert node.node_id in cluster.ring
        assert node.node_id in cluster.topology
        assert node.node_id in cluster.membership.views
