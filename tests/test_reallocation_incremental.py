"""Incremental reallocation engine: equivalence and behaviour tests.

The incremental apply (plan diffing + per-key rebuilds) must be
*bit-identical* to the from-scratch apply: same match results on the
same document stream, same RNG stream consumption, same stored replica
counts per node and key, same storage trackers.  These tests run twin
systems — identical seeds and workload, one of them routing every
plan through ``MoveSystem._apply_plan_full`` — through every diff
class (no-op, delta churn, grid resize, node churn) and compare full
snapshots.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.core.allocation import AllocationGrid
from repro.core.coordinator import AllocationPlan
from repro.core.forwarding import ForwardingTable
from repro.core.reallocation import (
    KEY_DELTA,
    KEY_DROPPED,
    KEY_NEW,
    KEY_RESIZED,
    KEY_UNCHANGED,
    KeyDiff,
    ReallocationReport,
    ReplicaMove,
    diff_plans,
)
from repro.matching.inverted_index import InvertedIndex
from repro.model import Filter, brute_force_match


class _FromScratchMove(MoveSystem):
    """Reference twin: every plan is applied from scratch."""

    def _apply_plan_incremental(self, plan):
        return self._apply_plan_full(plan)


def _build(incremental, drift_epsilon=0.0, **alloc_kwargs):
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(
            node_capacity=400,
            drift_epsilon=drift_epsilon,
            **alloc_kwargs,
        ),
        expected_filter_terms=5_000,
        seed=1,
    )
    system_cls = MoveSystem if incremental else _FromScratchMove
    return system_cls(Cluster(config.cluster), config)


def _bootstrap(system, filters, documents):
    system.subscribe(filters)
    system.seed_frequencies(documents[:10])
    system.finalize_registration()


def _allocated_state(system):
    """(node, key) -> (sorted filter ids, stored replica count)."""
    state = {}
    for node_id, per_origin in system._allocated_indexes.items():
        for key, index in per_origin.items():
            state[(node_id, key)] = (
                tuple(
                    sorted(f.filter_id for f in index.all_filters())
                ),
                index.stored_replica_count(),
            )
    return state


def _snapshot(system):
    """Everything the equivalence contract promises is identical."""
    return {
        "rng": system._rng.getstate(),
        "coordinator_rng": system.coordinator._rng.getstate(),
        "optimizer_rng": system.coordinator.optimizer._rng.getstate(),
        "allocated": _allocated_state(system),
        "distribution": system.storage_distribution(),
        "allocated_load": system.metrics.load(
            "storage_replicas_allocated"
        ).as_dict(),
        "plan_keys": (
            sorted(system.plan.tables) if system.plan else None
        ),
    }


def _oracle_ids(document, filters):
    return {f.filter_id for f in brute_force_match(document, filters)}


class TestBitIdenticalEquivalence:
    """Twin runs: incremental apply vs from-scratch apply."""

    def _run_twins(self, tiny_workload, mutate, **alloc_kwargs):
        filters, documents = tiny_workload
        snapshots, match_sets, reports = [], [], []
        for incremental in (False, True):
            system = _build(incremental, **alloc_kwargs)
            _bootstrap(system, filters, documents)
            reports.append(mutate(system, filters, documents))
            match_sets.append(
                [
                    plan.matched_filter_ids
                    for plan in system.publish_all(documents[20:40])
                ]
            )
            snapshots.append(_snapshot(system))
        assert snapshots[0] == snapshots[1]
        assert match_sets[0] == match_sets[1]
        # The incremental run's report (for classification asserts).
        return reports[1]

    def test_noop_refresh_keeps_every_key(self, tiny_workload):
        def mutate(system, filters, documents):
            return system.reallocate()

        report = self._run_twins(
            tiny_workload, mutate, randomized_rounding=False
        )
        assert not report.skipped
        assert report.keys_rebuilt == 0
        assert report.keys_dropped == 0
        assert report.keys_unchanged > 0
        assert report.replicas_moved == 0
        assert report.moves == []

    def test_delta_register_unregister(self, tiny_workload):
        # Swap three filters for clones over the same terms: demands
        # (and therefore grids) are unchanged, only the filter sets
        # churned — the delta class.
        def mutate(system, filters, documents):
            for profile in filters[:3]:
                system.unregister(profile.filter_id)
            for i, profile in enumerate(filters[:3]):
                system.subscribe(
                    Filter.from_terms(
                        f"twin-{i}", profile.sorted_terms()
                    )
                )
            return system.reallocate()

        report = self._run_twins(
            tiny_workload, mutate, randomized_rounding=False
        )
        assert not report.skipped
        assert report.keys_delta > 0
        assert report.keys_resized == 0
        assert report.moves == []

    def test_grid_resize_rebuilds_only_changed_keys(
        self, tiny_workload
    ):
        # Shift both distributions hard: a burst of new filters over
        # one hot term plus a fresh document window reshapes some
        # grids while others survive.
        def mutate(system, filters, documents):
            hot_terms = filters[0].sorted_terms()
            for i in range(40):
                system.subscribe(
                    Filter.from_terms(f"burst-{i}", hot_terms)
                )
            for document in documents[10:30]:
                system.observe_document(document)
            return system.reallocate()

        report = self._run_twins(
            tiny_workload, mutate, randomized_rounding=False
        )
        assert not report.skipped
        assert report.keys_rebuilt + report.keys_dropped > 0

    def test_node_churn_rebalance(self, tiny_workload):
        def mutate(system, filters, documents):
            system.cluster.add_node()
            system.rebalance()
            return system.last_reallocation

        report = self._run_twins(
            tiny_workload, mutate, randomized_rounding=False
        )
        assert not report.skipped

    def test_randomized_rounding_streams_stay_identical(
        self, tiny_workload
    ):
        # With randomized rounding on, both apply modes must consume
        # the optimizer RNG identically (planning is shared; only the
        # apply differs).
        def mutate(system, filters, documents):
            system.reallocate()
            for profile in filters[3:6]:
                system.unregister(profile.filter_id)
            return system.reallocate()

        self._run_twins(
            tiny_workload, mutate, randomized_rounding=True
        )


class TestStorageTracker:
    """Satellite: the storage_replicas_allocated accumulation bug."""

    @pytest.mark.parametrize("incremental", [False, True])
    def test_double_reallocate_does_not_double_count(
        self, tiny_workload, incremental
    ):
        filters, documents = tiny_workload
        system = _build(incremental, randomized_rounding=False)
        _bootstrap(system, filters, documents)
        tracker = system.metrics.load("storage_replicas_allocated")
        first = tracker.total()
        assert first > 0
        system.reallocate()
        assert tracker.total() == pytest.approx(first)
        system.reallocate()
        assert tracker.total() == pytest.approx(first)

    @pytest.mark.parametrize("incremental", [False, True])
    def test_tracker_matches_live_indexes(
        self, tiny_workload, incremental
    ):
        filters, documents = tiny_workload
        system = _build(incremental, randomized_rounding=False)
        _bootstrap(system, filters, documents)
        for profile in filters[:5]:
            system.unregister(profile.filter_id)
        system.reallocate()
        tracker = system.metrics.load("storage_replicas_allocated")
        actual = sum(
            index.stored_replica_count()
            for per_origin in system._allocated_indexes.values()
            for index in per_origin.values()
        )
        assert tracker.total() == pytest.approx(float(actual))


class TestDriftGate:
    def test_skip_below_epsilon(self, tiny_workload):
        filters, documents = tiny_workload
        system = _build(
            True, drift_epsilon=0.5, randomized_rounding=False
        )
        _bootstrap(system, filters, documents)
        plan_before = system.plan
        report = system.reallocate()
        assert report.skipped
        assert report.drift < 0.5
        assert system.plan is plan_before
        stats = system.stats()
        assert stats.reallocations == 2.0  # bootstrap + this one
        assert stats.reallocations_skipped == 1.0
        # Dissemination stays correct after a skipped refresh.
        for document in documents[:10]:
            plan = system.publish(document)
            assert plan.matched_filter_ids == _oracle_ids(
                document, filters
            )

    def test_force_overrides_gate(self, tiny_workload):
        filters, documents = tiny_workload
        system = _build(
            True, drift_epsilon=0.99, randomized_rounding=False
        )
        _bootstrap(system, filters, documents)
        report = system.reallocate(force=True)
        assert not report.skipped

    def test_churn_crosses_epsilon(self, tiny_workload):
        filters, documents = tiny_workload
        system = _build(
            True, drift_epsilon=0.05, randomized_rounding=False
        )
        _bootstrap(system, filters, documents)
        # ~8% of the filter population churns: above the 5% gate.
        for profile in filters[:5]:
            system.unregister(profile.filter_id)
        for i in range(5):
            system.subscribe(
                Filter.from_terms(
                    f"churn-{i}", filters[5 + i].sorted_terms()
                )
            )
        assert system.estimate_drift() >= 0.05
        report = system.reallocate()
        assert not report.skipped

    def test_skip_does_not_renew_window(self, tiny_workload):
        filters, documents = tiny_workload
        system = _build(
            True, drift_epsilon=0.999, randomized_rounding=False
        )
        _bootstrap(system, filters, documents)
        for document in documents[10:20]:
            system.observe_document(document)
        drift_before = system.term_stats.window_drift()
        assert drift_before > 0.0
        report = system.reallocate()
        assert report.skipped
        # The window survives the skip and keeps accumulating drift.
        assert system.term_stats.window_drift() == pytest.approx(
            drift_before
        )

    def test_argument_overrides_config(self, tiny_workload):
        filters, documents = tiny_workload
        system = _build(True, drift_epsilon=0.0)
        _bootstrap(system, filters, documents)
        report = system.reallocate(drift_epsilon=0.99)
        assert report.skipped


class TestMovementAccounting:
    def test_initial_apply_matches_allocation_movement(
        self, tiny_workload
    ):
        filters, documents = tiny_workload
        system = _build(True, randomized_rounding=False)
        system.subscribe(filters)
        system.seed_frequencies(documents[:10])
        report = system.reallocate()
        total = sum(
            count for _, _, count in system.allocation_movement()
        )
        assert report.replicas_moved == total
        assert report.keys_new == len(system.plan.tables)

    def test_rebuild_moves_reference_real_nodes(self, tiny_workload):
        filters, documents = tiny_workload
        system = _build(True, randomized_rounding=False)
        _bootstrap(system, filters, documents)
        hot_terms = filters[0].sorted_terms()
        for i in range(40):
            system.subscribe(Filter.from_terms(f"burst-{i}", hot_terms))
        for document in documents[10:30]:
            system.observe_document(document)
        report = system.reallocate()
        nodes = set(system.cluster.node_ids())
        for move in report.moves:
            assert move.from_node in nodes
            assert move.to_node in nodes
            assert move.from_node != move.to_node
        triples = report.movement_triples()
        assert sum(count for _, _, count in triples) == len(
            report.moves
        )


def _grid(home, nodes, columns):
    rows = tuple(
        tuple(nodes[row * columns : (row + 1) * columns])
        for row in range(len(nodes) // columns)
    )
    return AllocationGrid(
        home_node=home, ratio=columns / len(nodes), rows=rows
    )


class TestPlanDiff:
    def test_classification_matrix(self):
        old = AllocationPlan(
            tables={
                "h1": ForwardingTable(_grid("h1", ["a", "b"], 1)),
                "h2": ForwardingTable(_grid("h2", ["c", "d"], 2)),
                "h4": ForwardingTable(_grid("h4", ["f", "g"], 1)),
            }
        )
        new = AllocationPlan(
            tables={
                # Equal grid, fresh instance: equality, not identity.
                "h1": ForwardingTable(_grid("h1", ["a", "b"], 1)),
                "h2": ForwardingTable(_grid("h2", ["c", "d"], 1)),
                "h3": ForwardingTable(_grid("h3", ["e"], 1)),
            }
        )
        diff = diff_plans(old, new, churned_keys={"h1"})
        assert diff.diffs["h1"].status == KEY_DELTA
        assert diff.diffs["h2"].status == KEY_RESIZED
        assert diff.diffs["h3"].status == KEY_NEW
        assert diff.diffs["h4"].status == KEY_DROPPED
        assert diff.keys_kept == 1
        assert diff.keys_rebuilt == 2
        assert diff.summary() == {
            KEY_UNCHANGED: 0,
            KEY_DELTA: 1,
            KEY_RESIZED: 1,
            KEY_NEW: 1,
            KEY_DROPPED: 1,
        }

    def test_unchanged_needs_equal_grid_and_no_churn(self):
        table = ForwardingTable(_grid("h1", ["a", "b"], 1))
        old = AllocationPlan(tables={"h1": table})
        new = AllocationPlan(
            tables={"h1": ForwardingTable(_grid("h1", ["a", "b"], 1))}
        )
        diff = diff_plans(old, new, churned_keys=set())
        assert diff.diffs["h1"].status == KEY_UNCHANGED

    def test_no_old_plan_is_all_new(self):
        new = AllocationPlan(
            tables={"h1": ForwardingTable(_grid("h1", ["a"], 1))}
        )
        diff = diff_plans(None, new, churned_keys={"h1"})
        assert diff.diffs["h1"].status == KEY_NEW

    def test_invalid_status_rejected(self):
        with pytest.raises(ValueError):
            KeyDiff(key="x", status="bogus")


class TestReallocationReport:
    def test_movement_triples_aggregate(self):
        report = ReallocationReport(
            moves=[
                ReplicaMove("f1", "h", "a"),
                ReplicaMove("f2", "h", "a"),
                ReplicaMove("f3", "h", "b"),
            ],
            replicas_moved=3,
        )
        assert report.movement_triples() == [
            ("h", "a", 2),
            ("h", "b", 1),
        ]

    def test_as_tags_payload(self):
        report = ReallocationReport(skipped=True, drift=0.25)
        tags = report.as_tags()
        assert tags["skipped"] is True
        assert tags["drift"] == 0.25
        assert {
            "keys_kept",
            "keys_rebuilt",
            "replicas_moved",
            "seconds",
        } <= set(tags)


class TestReplicaCountInvariant:
    """stored_replica_count is O(1) but must track every mutation."""

    @staticmethod
    def _recount(index):
        return sum(len(p) for p in index._postings.values())

    def test_counter_matches_recount(self):
        index = InvertedIndex()
        f1 = Filter.from_terms("f1", ["a", "b"])
        f2 = Filter.from_terms("f2", ["b", "c"])
        f3 = Filter.from_terms("f3", ["a"])
        index.add_filter(f1)
        index.add_filter(f2, indexed_terms=["b"])
        assert index.stored_replica_count() == self._recount(index) == 3
        index.add_filters([(f3, None), (f2, ["c"])])
        assert index.stored_replica_count() == self._recount(index) == 5
        # Duplicate add is a no-op for the counter.
        index.add_filter(f1, indexed_terms=["a"])
        assert index.stored_replica_count() == self._recount(index) == 5
        index.remove_filter("f2")
        assert index.stored_replica_count() == self._recount(index) == 3
        index.remove_term("a")
        assert index.stored_replica_count() == self._recount(index) == 1
        index.remove_filter("f1")
        assert index.stored_replica_count() == self._recount(index) == 0
