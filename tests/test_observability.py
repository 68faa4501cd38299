"""Observability subsystem tests: tracing, metrics, stats, and knobs.

Covers the PR-4 surface end to end:

- the disabled-path guarantee — the default tracer is the no-op
  singleton, publishing emits zero spans, and a traced run is
  bit-for-bit identical (plans *and* RNG streams) to an untraced one
  on all four systems;
- span structure — one ``publish_batch`` root per batch, one
  ``publish`` child per document, one child per pipeline stage, and
  per-node ``execute_node`` sub-spans that reconcile exactly with the
  plan's :class:`~repro.baselines.NodeTask` accounting;
- the uniform ``system.stats()`` accessor returning
  :class:`~repro.obs.SystemStats` with identical cross-scheme totals;
- the metrics primitives (gauges, fixed-bucket latency histograms)
  and the substrate instrumentation (disk-queue histograms, crash
  counters, KV client counters);
- ``Tracer.write_jsonl`` and the ``scripts/trace_report.py`` summary.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    MetricsRegistry,
    NullTracer,
    SystemStats,
    Tracer,
    get_default_tracer,
    set_default_tracer,
)
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core import MoveSystem
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.obs import NULL_TRACER, Gauge, LatencyHistogram
from repro.sim import FifoServer, Simulator

WORKLOAD = ScaledWorkload(num_filters=250, num_documents=12, seed=7)

ALL_SCHEMES = ["move", "il", "rs", "central"]

#: The five pipeline stages, in execution order.
STAGES = ("observe", "ingest", "route", "execute", "account")


def _build(scheme, bundle, tracer=None, threshold=None):
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=5
    )
    system = make_system(scheme, cluster, config, threshold=threshold)
    if tracer is not None:
        system.tracer = tracer
    system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system


def _rng_state(system):
    """The scheme's ingest-draw RNG state (None before any draw)."""
    for attr in ("_rng", "_ingest_rng"):
        rng = getattr(system, attr, None)
        if rng is not None:
            return rng.getstate()
    return None


def _plan_key(plan):
    return (
        plan.document.doc_id,
        sorted(plan.matched_filter_ids),
        sorted(plan.unreachable_filter_ids),
        plan.routing_messages,
        plan.tasks,
    )


# ---------------------------------------------------------------------------
# Disabled path: zero spans, zero divergence
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_default_tracer_is_the_noop_singleton(self):
        bundle = WORKLOAD.build()
        system = _build("central", bundle)
        assert system.tracer is NULL_TRACER
        assert system.tracer.enabled is False
        system.publish_batch(bundle.documents[:3])
        # The null tracer collects nothing (it has no span storage).
        assert not hasattr(system.tracer, "spans")

    def test_null_tracer_span_is_shared_and_inert(self):
        tracer = NullTracer()
        first = tracer.span("observe", system="Move")
        second = tracer.span("route")
        assert first is second  # one shared instance, no allocation
        with first as span:
            assert span.annotate(fanout=3) is span
        assert tracer.emit("execute_node", 0.0, 1.0, node="n0") is None

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_traced_run_identical_to_untraced(self, scheme):
        """Tracing must be pure observation: same plans, same RNG."""
        bundle = WORKLOAD.build()
        untraced = _build(scheme, bundle)
        traced = _build(scheme, bundle, tracer=Tracer())
        plain_plans = untraced.publish_batch(bundle.documents)
        traced_plans = traced.publish_batch(bundle.documents)
        assert [_plan_key(p) for p in plain_plans] == [
            _plan_key(p) for p in traced_plans
        ]
        assert _rng_state(untraced) == _rng_state(traced)
        # And the traced twin actually recorded something.
        assert traced.tracer.spans


# ---------------------------------------------------------------------------
# Span structure: counts, names, parenthood, reconciliation
# ---------------------------------------------------------------------------


class TestSpanStructure:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_one_span_per_stage_per_document(self, scheme):
        bundle = WORKLOAD.build()
        tracer = Tracer()
        system = _build(scheme, bundle, tracer=tracer)
        documents = bundle.documents
        system.publish_batch(documents)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["publish_batch"]) == 1
        assert len(by_name["publish"]) == len(documents)
        for stage in STAGES:
            assert len(by_name[stage]) == len(documents), stage
        # Parenthood: publish under the batch, stages under a publish.
        batch_span = by_name["publish_batch"][0]
        assert batch_span.parent_id is None
        assert batch_span.tags == {
            "system": system.name,
            "batch_size": len(documents),
        }
        publish_ids = set()
        for span in by_name["publish"]:
            assert span.parent_id == batch_span.span_id
            publish_ids.add(span.span_id)
        for stage in STAGES:
            for span in by_name[stage]:
                assert span.parent_id in publish_ids, stage

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_publish_tags_match_the_plan(self, scheme):
        bundle = WORKLOAD.build()
        tracer = Tracer()
        system = _build(scheme, bundle, tracer=tracer)
        plans = system.publish_batch(bundle.documents)
        publish_spans = [s for s in tracer.spans if s.name == "publish"]
        assert len(publish_spans) == len(plans)
        for span, plan in zip(publish_spans, plans):
            assert span.tags["document_id"] == plan.document.doc_id
            assert span.tags["system"] == system.name
            assert span.tags["fanout"] == plan.fanout
            assert span.tags["matched"] == len(plan.matched_filter_ids)
            assert span.tags["candidate_entries"] == (
                plan.total_posting_entries
            )
            assert span.tags["unreachable"] == len(
                plan.unreachable_filter_ids
            )

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_execute_node_reconciles_with_tasks(self, scheme):
        """Per-node sub-spans cover exactly the plan's task nodes and
        their posting costs sum to the plan totals."""
        bundle = WORKLOAD.build()
        tracer = Tracer()
        system = _build(scheme, bundle, tracer=tracer)
        plans = system.publish_batch(bundle.documents)
        execute_spans = [s for s in tracer.spans if s.name == "execute"]
        node_spans_by_parent = {}
        for span in tracer.spans:
            if span.name == "execute_node":
                node_spans_by_parent.setdefault(
                    span.parent_id, []
                ).append(span)
        assert len(execute_spans) == len(plans)
        for execute_span, plan in zip(execute_spans, plans):
            node_spans = node_spans_by_parent.get(
                execute_span.span_id, []
            )
            assert {s.tags["node"] for s in node_spans} == {
                task.node_id for task in plan.tasks
            }
            assert sum(
                s.tags["posting_entries"] for s in node_spans
            ) == sum(task.posting_entries for task in plan.tasks)
            assert sum(
                s.tags["posting_lists"] for s in node_spans
            ) == sum(task.posting_lists for task in plan.tasks)

    def test_stage_summary_covers_all_stage_names(self):
        bundle = WORKLOAD.build()
        tracer = Tracer()
        system = _build("move", bundle, tracer=tracer)
        system.publish_batch(bundle.documents[:4])
        summary = tracer.stage_summary()
        expected = {"publish_batch", "publish", "execute_node", *STAGES}
        assert expected <= set(summary)
        for row in summary.values():
            assert row["count"] >= 1
            assert row["total_s"] >= 0.0
            assert row["p95_s"] >= row["p50_s"] >= 0.0


# ---------------------------------------------------------------------------
# Uniform system.stats()
# ---------------------------------------------------------------------------


class TestSystemStats:
    def test_same_totals_on_all_four_systems(self):
        bundle = WORKLOAD.build()
        snapshots = {}
        for scheme in ALL_SCHEMES:
            system = _build(scheme, bundle)
            system.publish_batch(bundle.documents)
            snapshots[scheme] = system.stats()
        for scheme, stats in snapshots.items():
            assert isinstance(stats, SystemStats), scheme
            assert stats.documents_published == len(bundle.documents)
            assert stats.filters_registered == len(bundle.filters)
            assert stats.filters_unregistered == 0.0
            assert stats.active_filters == len(bundle.filters)
            assert stats.nodes_touched >= 1
            assert stats.documents_received >= stats.nodes_touched
        labels = {stats.system for stats in snapshots.values()}
        assert labels == {"Move", "IL", "RS", "Central"}

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_posting_entries_reconcile_with_plans(self, scheme):
        bundle = WORKLOAD.build()
        system = _build(scheme, bundle)
        plans = system.publish_batch(bundle.documents)
        stats = system.stats()
        assert stats.posting_entries == sum(
            plan.total_posting_entries for plan in plans
        )

    def test_stats_snapshot_is_point_in_time(self):
        bundle = WORKLOAD.build()
        system = _build("il", bundle)
        before = system.stats()
        system.publish_batch(bundle.documents[:5])
        after = system.stats()
        assert before.documents_published == 0.0
        assert after.documents_published == 5.0
        # The registry dicts are copies, not live views.
        assert "documents_published" not in before.counters or (
            before.counters["documents_published"] == 0.0
        )

    def test_move_stats_is_the_uniform_accessor(self):
        """The PR 4-deprecated attribute-forwarding shim is gone:
        ``move.stats()`` is the uniform snapshot accessor every system
        shares, and the old ``move.stats.<attr>`` spelling no longer
        reaches TermStatistics — that lives on ``move.term_stats``."""
        bundle = WORKLOAD.build()
        system = _build("move", bundle)
        system.publish_batch(bundle.documents[:3])
        stats = system.stats()
        assert isinstance(stats, SystemStats)
        assert stats.system == "Move"
        with pytest.raises(AttributeError):
            system.stats.popularity
        assert system.term_stats.popularity.total_filters > 0


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------


class TestMetricsPrimitives:
    def test_gauge_set_and_add(self):
        gauge = Gauge("depth")
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5

    def test_histogram_basic_stats(self):
        hist = LatencyHistogram("t", bounds=[0.001, 0.01, 0.1])
        for sample in (0.0005, 0.002, 0.002, 0.05):
            hist.observe(sample)
        assert hist.count == 4
        assert hist.total == pytest.approx(0.0545)
        assert hist.mean() == pytest.approx(0.0545 / 4)
        assert hist.max == 0.05
        # Bucket-resolution percentiles: upper bound of the bucket.
        assert hist.percentile(0.5) == 0.01
        assert hist.percentile(1.0) == 0.1

    def test_histogram_overflow_reports_observed_max(self):
        hist = LatencyHistogram("t", bounds=[0.001])
        hist.observe(5.0)
        assert hist.percentile(0.99) == 5.0
        assert hist.buckets() == [(float("inf"), 1)]

    def test_histogram_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LatencyHistogram("t", bounds=[])
        with pytest.raises(ValueError):
            LatencyHistogram("t", bounds=[2.0, 1.0])
        with pytest.raises(ValueError):
            LatencyHistogram("t").observe(-0.1)
        with pytest.raises(ValueError):
            LatencyHistogram("t").percentile(1.5)

    def test_registry_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.load("l") is registry.load("l")

    def test_sim_metrics_shim_removed(self):
        """The ``repro.sim.metrics`` compat re-export is gone; the
        primitives live only in :mod:`repro.obs.metrics` now."""
        with pytest.raises(ModuleNotFoundError):
            import repro.sim.metrics  # noqa: F401


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------


class TestTracerMechanics:
    def test_nesting_and_annotation(self):
        tracer = Tracer()
        with tracer.span("outer", system="X") as outer:
            with tracer.span("inner") as inner:
                inner.annotate(k=1)
            outer.annotate(done=True)
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.tags == {"k": 1}
        assert outer.tags == {"system": "X", "done": True}
        assert outer.duration >= inner.duration >= 0.0

    def test_emit_records_under_current_parent(self):
        tracer = Tracer()
        with tracer.span("execute") as parent:
            tracer.emit("execute_node", 1.0, 1.5, node="n1")
        emitted = tracer.spans[0]
        assert emitted.name == "execute_node"
        assert emitted.parent_id == parent.span_id
        assert emitted.duration == pytest.approx(0.5)
        assert emitted.tags == {"node": "n1"}

    def test_write_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("publish", document_id="d1"):
            pass
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 1
        record = json.loads(path.read_text().strip())
        assert record["name"] == "publish"
        assert record["tags"] == {"document_id": "d1"}
        assert record["duration_s"] >= 0.0
        # Stream destination too.
        buffer = io.StringIO()
        assert tracer.write_jsonl(buffer) == 1
        assert json.loads(buffer.getvalue()) == record

    def test_reset_clears_state(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.spans == []
        assert tracer.stage_summary() == {}
        with tracer.span("a"):
            with pytest.raises(RuntimeError):
                tracer.reset()

    def test_default_tracer_install_and_restore(self):
        assert get_default_tracer() is NULL_TRACER
        tracer = Tracer()
        previous = set_default_tracer(tracer)
        try:
            assert previous is NULL_TRACER
            assert get_default_tracer() is tracer
            # Newly built systems adopt the installed default.
            cluster = Cluster(ClusterConfig(num_nodes=4))
            from repro.baselines import CentralizedSystem

            system = CentralizedSystem(cluster)
            assert system.tracer is tracer
        finally:
            assert set_default_tracer(None) is tracer
        assert get_default_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# Substrate instrumentation
# ---------------------------------------------------------------------------


class TestSubstrateMetrics:
    def test_disk_queue_histograms(self):
        sim = Simulator()
        registry = MetricsRegistry()
        server = FifoServer(sim, name="n0/disk", registry=registry)
        server.submit(1.0)
        server.submit(2.0)
        sim.run()
        service = registry.histogram("server.service")
        wait = registry.histogram("server.wait")
        assert service.count == 2
        assert service.total == pytest.approx(3.0)
        assert wait.total == pytest.approx(1.0)  # second job waited 1s
        assert registry.load("server_busy_time").get("n0/disk") == (
            pytest.approx(3.0)
        )

    def test_cluster_crash_recover_counters(self):
        cluster = Cluster(ClusterConfig(num_nodes=4))
        victim = cluster.node_ids()[0]
        cluster.fail_node(victim)
        cluster.fail_node(victim)  # idempotent: already down
        cluster.recover_node(victim)
        assert cluster.metrics.counter("node_crashes").value == 1.0
        assert cluster.metrics.counter("node_recoveries").value == 1.0


# ---------------------------------------------------------------------------
# trace_report.py
# ---------------------------------------------------------------------------


REPO_ROOT = Path(__file__).resolve().parent.parent


class TestTraceReport:
    def _run_report(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts/trace_report.py")]
            + list(argv),
            capture_output=True,
            text=True,
        )

    def test_report_summarizes_a_real_trace(self, tmp_path):
        bundle = WORKLOAD.build()
        tracer = Tracer()
        system = _build("move", bundle, tracer=tracer)
        system.publish_batch(bundle.documents[:5])
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        result = self._run_report(str(path))
        assert result.returncode == 0, result.stderr
        assert "Stage latency" in result.stdout
        assert "publish_batch" in result.stdout
        assert "Execution spread" in result.stdout
        assert "Move" in result.stdout  # publish totals table

    def test_report_fails_on_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        result = self._run_report(str(path))
        assert result.returncode == 1
