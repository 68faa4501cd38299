"""Coordinator failover tests.

Section V: the dedicated statistics node "is similar to the master
node in Hadoop, and harnessing redundant servers in groups can enhance
the resilience to node failure."  Our coordinator is deterministic
given the same statistics and seed, so a standby that observed the
same inputs produces an identical plan — which is exactly what makes
the redundancy cheap.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig
from repro.core import Coordinator, PlacementSelector
from repro.model import Document, Filter
from repro.stats import TermStatistics


def _setup():
    cluster = Cluster(ClusterConfig(num_nodes=10, num_racks=2, seed=4))
    stats = TermStatistics()
    for i in range(300):
        stats.register_filter(
            Filter.from_terms(f"f{i}", [f"t{i % 30}"])
        )
    for i in range(80):
        stats.observe_document(
            Document.from_terms(f"d{i}", ["t0", f"t{i % 30}"])
        )
    stats.frequency.renew()
    return cluster, stats


def _coordinator(cluster, seed=9):
    placement = PlacementSelector(
        cluster.ring, cluster.topology, mode="hybrid"
    )
    return Coordinator(
        placement,
        config=AllocationConfig(
            node_capacity=200, randomized_rounding=False
        ),
        seed=seed,
    )


def _plan_signature(plan):
    return {
        key: (table.grid.ratio, table.grid.rows)
        for key, table in plan.tables.items()
    }


def test_standby_produces_identical_plan():
    cluster, stats = _setup()
    primary = _coordinator(cluster)
    standby = _coordinator(cluster)
    plan_a = primary.plan_from_stats(
        stats, cluster.ring.home_node, num_nodes=10
    )
    plan_b = standby.plan_from_stats(
        stats, cluster.ring.home_node, num_nodes=10
    )
    assert _plan_signature(plan_a) == _plan_signature(plan_b)
    assert {k: f.n for k, f in plan_a.factors.items()} == {
        k: f.n for k, f in plan_b.factors.items()
    }


def test_randomized_rounding_deterministic_per_seed():
    cluster, stats = _setup()
    placement = PlacementSelector(
        cluster.ring, cluster.topology, mode="hybrid"
    )

    def make(seed):
        return Coordinator(
            placement,
            config=AllocationConfig(
                node_capacity=200, randomized_rounding=True
            ),
            seed=seed,
        ).plan_from_stats(stats, cluster.ring.home_node, num_nodes=10)

    assert _plan_signature(make(7)) == _plan_signature(make(7))


def test_failover_mid_stream_preserves_routing():
    # Swap in a standby's freshly computed plan mid-stream: matching
    # results are unchanged because the plan is a pure function of the
    # statistics.
    from repro.config import SystemConfig
    from repro.core import MoveSystem
    from repro.model import brute_force_match

    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(
            node_capacity=300, randomized_rounding=False
        ),
        seed=1,
    )
    cluster = Cluster(config.cluster)
    system = MoveSystem(cluster, config)
    filters = [
        Filter.from_terms(f"f{i}", ["hot", f"x{i}"]) for i in range(40)
    ]
    system.subscribe(filters)
    system.seed_frequencies(
        [Document.from_terms("s", ["hot"]) for _ in range(5)]
    )
    system.finalize_registration()
    before = system.publish(
        Document.from_terms("d1", ["hot"])
    ).matched_filter_ids

    # "Failover": recompute the plan from the same statistics (what a
    # standby coordinator would do) and re-apply it.
    standby_plan = system.coordinator.plan_from_stats(
        system.term_stats, system.home_of, num_nodes=len(cluster)
    )
    system._apply_plan(standby_plan)
    after = system.publish(
        Document.from_terms("d2", ["hot"])
    ).matched_filter_ids
    assert before == after
    expected = {
        f.filter_id
        for f in brute_force_match(
            Document.from_terms("d2", ["hot"]), filters
        )
    }
    assert after == expected
