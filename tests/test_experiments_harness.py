"""Tests for the experiment harness (workloads, DES runner, reports)."""

from __future__ import annotations

import pytest

from repro.core import MoveSystem
from repro.experiments.harness import (
    ClusterThroughputHarness,
    ExperimentSeries,
    ScaledWorkload,
    build_cluster,
    format_multi_series,
    make_system,
    run_scheme_once,
)


SMALL = ScaledWorkload(
    num_filters=300,
    num_documents=60,
    num_nodes=8,
    node_capacity=300,
    vocabulary_size=600,
    mean_doc_terms=20,
)


@pytest.fixture(scope="module")
def bundle():
    return SMALL.build()


class TestScaledWorkload:
    def test_build_produces_requested_sizes(self, bundle):
        assert len(bundle.filters) == 300
        assert len(bundle.documents) == 60

    def test_offline_corpus_distinct_ids(self, bundle):
        corpus = bundle.offline_corpus(20)
        doc_ids = {d.doc_id for d in corpus}
        assert len(doc_ids) == 20
        assert not doc_ids & {d.doc_id for d in bundle.documents}

    def test_build_deterministic(self):
        a = SMALL.build()
        b = SMALL.build()
        assert [f.terms for f in a.filters] == [
            f.terms for f in b.filters
        ]


class TestMakeSystem:
    def test_schemes(self):
        cluster, config = build_cluster(8, 300)
        for scheme, name in (("Move", "Move"), ("il", "IL"), ("RS", "RS")):
            system = make_system(scheme, cluster, config)
            assert system.name == name

    def test_unknown_scheme(self):
        cluster, config = build_cluster(4, 100)
        with pytest.raises(ValueError):
            make_system("magic", cluster, config)


class TestHarnessRun:
    def _run(self, scheme, bundle, **kwargs):
        return run_scheme_once(scheme, bundle, **kwargs)

    @pytest.mark.parametrize("scheme", ["Move", "IL", "RS"])
    def test_all_documents_complete(self, bundle, scheme):
        result = self._run(scheme, bundle)
        assert result.completed == len(bundle.documents)
        assert result.throughput > 0
        assert result.bottleneck_busy > 0

    def test_failures_reduce_matches(self, bundle):
        healthy = self._run("Move", bundle)
        degraded = self._run(
            "Move", bundle, fail_fraction=0.4, fail_whole_racks=True
        )
        assert degraded.total_matches <= healthy.total_matches

    def test_more_nodes_higher_throughput(self, bundle):
        small = self._run("Move", bundle, num_nodes=4)
        large = self._run("Move", bundle, num_nodes=16)
        assert large.throughput > small.throughput

    def test_higher_rate_lower_throughput(self, bundle):
        slow = self._run("Move", bundle, injection_rate=10)
        fast = self._run("Move", bundle, injection_rate=10_000)
        assert fast.throughput <= slow.throughput * 1.05

    def test_placement_override(self, bundle):
        result = self._run("Move", bundle, placement="ring")
        assert result.completed == len(bundle.documents)

    def test_allocation_rule_override(self, bundle):
        result = self._run("Move", bundle, allocation_rule="uniform")
        assert result.completed == len(bundle.documents)

    def test_contention_increases_busy_time(self, bundle):
        workload = bundle.workload
        results = {}
        for coefficient in (0.0, 2.0):
            cluster, config = build_cluster(
                workload.num_nodes, workload.node_capacity, seed=0
            )
            system = make_system("IL", cluster, config)
            system.subscribe(bundle.filters)
            system.finalize_registration()
            harness = ClusterThroughputHarness(
                system,
                cluster,
                injection_rate=10_000,
                contention_coefficient=coefficient,
            )
            results[coefficient] = harness.run(bundle.documents)
        assert (
            results[2.0].bottleneck_busy
            >= results[0.0].bottleneck_busy
        )


class TestReporting:
    def test_series_rows_and_table(self):
        series = ExperimentSeries("s", "x", "y")
        series.add(1, 10)
        series.add(2, 20)
        assert series.rows() == [(1, 10), (2, 20)]
        table = series.format_table()
        assert "# s" in table and "10" in table

    def test_multi_series_alignment(self):
        a = ExperimentSeries("A", "x", "y")
        b = ExperimentSeries("B", "x", "y")
        for x in (1, 2):
            a.add(x, x * 10)
            b.add(x, x * 100)
        text = format_multi_series("title", [a, b])
        assert "title" in text
        assert "200" in text

    def test_empty_multi_series(self):
        assert "(empty)" in format_multi_series("t", [])
